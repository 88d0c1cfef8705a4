"""Access-point orchestration: queries, association and round control.

The AP drives the association controller, whose allocation table holds
every device's protocol state, and binds the concurrent receiver to the
table's assignments. One call to :meth:`AccessPoint.run_association`
walks a device through Fig. 10's handshake;
:meth:`AccessPoint.build_query` emits the next query message with any
pending grants or reassignments piggybacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.config import NetScatterConfig
from repro.core.receiver import NetScatterReceiver
from repro.errors import AssociationError, ProtocolError
from repro.protocol.association import AssociationController
from repro.protocol.messages import QueryMessage


@dataclass
class ApStats:
    """Counters the AP keeps for reporting."""

    queries_sent: int = 0
    reassignment_queries: int = 0
    associations_completed: int = 0
    downlink_bits_sent: int = 0


class AccessPoint:
    """The NetScatter AP."""

    def __init__(self, config: NetScatterConfig) -> None:
        self._config = config
        self._association = AssociationController(config)
        self._needs_reassignment_query = False
        self.stats = ApStats()

    @property
    def config(self) -> NetScatterConfig:
        return self._config

    @property
    def association(self) -> AssociationController:
        return self._association

    @property
    def n_members(self) -> int:
        return self._association.n_members

    def assignments(self) -> Dict[int, int]:
        return self._association.assignments()

    # ------------------------------------------------------------------ #
    # association flow
    # ------------------------------------------------------------------ #

    def run_association(self, device_id: int, measured_snr_db: float) -> int:
        """Full Fig. 10 handshake for one device; returns its shift.

        Models the request -> grant-on-query -> ACK exchange with the
        radio legs assumed delivered (the waveform-level association is
        exercised separately in the integration tests).
        """
        grant, reassigned = self._association.handle_request(
            device_id, measured_snr_db
        )
        self.stats.queries_sent += 1
        query = QueryMessage(association=grant)
        self.stats.downlink_bits_sent += query.n_bits
        if reassigned:
            self._needs_reassignment_query = True
        shift = self._association.handle_ack(device_id)
        self.stats.associations_completed += 1
        return shift

    # ------------------------------------------------------------------ #
    # query / round flow
    # ------------------------------------------------------------------ #

    def build_query(self, group_id: int = 0) -> QueryMessage:
        """Next query message, carrying any pending protocol payloads."""
        reassignment = None
        if self._needs_reassignment_query and self.n_members > 1:
            # Announce the current ranking as a permutation of ranks:
            # entry i is the rank of the i-th member by device id.
            ranked = self._association.ranked_members()
            reassignment = np.argsort(ranked).tolist()
            self._needs_reassignment_query = False
            self.stats.reassignment_queries += 1
        grants = self._association.pending_grants()
        query = QueryMessage(
            group_id=group_id,
            association=grants[0] if grants else None,
            reassignment_order=reassignment,
        )
        self.stats.queries_sent += 1
        self.stats.downlink_bits_sent += query.n_bits
        return query

    def receiver(self) -> NetScatterReceiver:
        """A receiver bound to the current assignments."""
        assignments = self.assignments()
        if not assignments:
            raise ProtocolError("no devices associated yet")
        return NetScatterReceiver(self._config, assignments)

    def update_member_snr(self, device_id: int, snr_db: float) -> bool:
        """Handle a re-association with a significantly changed SNR."""
        if device_id not in self._association.ranked_members():
            raise AssociationError(f"device {device_id} is not a member")
        changed = self._association.handle_reassociation(device_id, snr_db)
        if changed:
            self._needs_reassignment_query = True
        return changed
