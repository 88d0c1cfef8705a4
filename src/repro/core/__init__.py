"""NetScatter core: distributed CSS coding and its supporting machinery.

This is the paper's contribution: the per-device ON-OFF keyed cyclic-shift
encoder, the single-FFT concurrent receiver, power-aware cyclic-shift
allocation, fine-grained power control policy, bandwidth aggregation and
the capacity analysis.
"""

from repro.core.allocation import AllocationTable, power_aware_allocation
from repro.core.config import NetScatterConfig, TABLE1_CONFIGS
from repro.core.dcss import (
    DeviceTransmission,
    compose_symbol,
    compose_readout,
    compose_rounds,
)
from repro.core.receiver import (
    NetScatterReceiver,
    FrameDecode,
    DeviceDecode,
    RoundsDecode,
)

__all__ = [
    "AllocationTable",
    "power_aware_allocation",
    "NetScatterConfig",
    "TABLE1_CONFIGS",
    "DeviceTransmission",
    "compose_symbol",
    "compose_readout",
    "compose_rounds",
    "NetScatterReceiver",
    "FrameDecode",
    "DeviceDecode",
    "RoundsDecode",
]
