"""NetScatter protocol layer: queries, association, scheduling, network.

The AP broadcasts ASK query messages that simultaneously synchronise the
concurrent round, carry association responses and (when needed) full
cyclic-shift reassignments. Devices associate through reserved cyclic
shifts and then participate in concurrent rounds. The network simulator
executes full query/response rounds over a synthetic deployment to
produce the paper's Figs. 17-19.
"""

from repro.protocol.ap import AccessPoint
from repro.protocol.association import AssociationController
from repro.protocol.messages import QueryMessage, AssociationResponse
from repro.protocol.network import (
    NetworkSimulator,
    NetworkMetrics,
    sweep_device_counts,
)

__all__ = [
    "AccessPoint",
    "AssociationController",
    "QueryMessage",
    "AssociationResponse",
    "NetworkSimulator",
    "NetworkMetrics",
    "sweep_device_counts",
]
