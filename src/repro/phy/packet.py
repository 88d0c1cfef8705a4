"""Link-layer packet structure (Section 3.3.1).

A NetScatter uplink packet is: six upchirp preamble symbols, two downchirp
preamble symbols, then the OOK payload and checksum. All symbols of one
device carry the same assigned cyclic shift. This module defines the
structure: symbol counts and air times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    PAYLOAD_CRC_BITS,
    PREAMBLE_DOWNCHIRPS,
    PREAMBLE_UPCHIRPS,
)
from repro.errors import ProtocolError
from repro.phy.chirp import ChirpParams


@dataclass(frozen=True)
class PacketStructure:
    """Symbol-count layout of a NetScatter uplink packet.

    The defaults reproduce the deployment settings used in Figs. 18-19:
    an 8-symbol preamble and a 40-bit payload+CRC field.
    """

    n_preamble_upchirps: int = PREAMBLE_UPCHIRPS
    n_preamble_downchirps: int = PREAMBLE_DOWNCHIRPS
    payload_bits: int = PAYLOAD_CRC_BITS

    def __post_init__(self) -> None:
        if self.n_preamble_upchirps < 1:
            raise ProtocolError("need at least one preamble upchirp")
        if self.n_preamble_downchirps < 1:
            raise ProtocolError("need at least one preamble downchirp")
        if self.payload_bits < 0:
            raise ProtocolError("payload_bits must be non-negative")

    @property
    def n_preamble_symbols(self) -> int:
        return self.n_preamble_upchirps + self.n_preamble_downchirps

    @property
    def n_payload_symbols(self) -> int:
        """OOK payload symbols; one bit per symbol for every device."""
        return self.payload_bits

    @property
    def n_symbols(self) -> int:
        return self.n_preamble_symbols + self.n_payload_symbols

    def airtime_s(self, params: ChirpParams) -> float:
        """Total on-air duration of the packet."""
        return self.n_symbols * params.symbol_duration_s

    def preamble_airtime_s(self, params: ChirpParams) -> float:
        """On-air duration of the preamble alone (the shared overhead)."""
        return self.n_preamble_symbols * params.symbol_duration_s

    def payload_airtime_s(self, params: ChirpParams) -> float:
        """On-air duration of the payload+CRC portion."""
        return self.n_payload_symbols * params.symbol_duration_s
