"""Air-time accounting for NetScatter and the LoRa backscatter baseline.

The link-layer and latency comparisons (Figs. 18-19) are dominated by who
pays which overhead how often:

* NetScatter: one query + one 8-symbol preamble + one payload window per
  round, shared by *all* concurrent devices;
* LoRa backscatter (TDMA): one query + one preamble + one payload *per
  device per poll*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    DOWNLINK_BITRATE_BPS,
    LORA_BACKSCATTER_QUERY_BITS,
    PAYLOAD_CRC_BITS,
)
from repro.core.config import NetScatterConfig
from repro.errors import ConfigurationError
from repro.phy.chirp import ChirpParams
from repro.phy.packet import PacketStructure


@dataclass(frozen=True)
class RoundAirtime:
    """Breakdown of one NetScatter concurrent round's air time."""

    query_s: float
    preamble_s: float
    payload_s: float

    @property
    def total_s(self) -> float:
        return self.query_s + self.preamble_s + self.payload_s


def netscatter_round_airtime_s(
    config: NetScatterConfig,
    query_bits: int,
    structure: PacketStructure = None,
    downlink_bitrate_bps: float = DOWNLINK_BITRATE_BPS,
) -> RoundAirtime:
    """Air time of one concurrent round (query + shared packet)."""
    if query_bits < 0:
        raise ConfigurationError("query_bits must be non-negative")
    if structure is None:
        structure = PacketStructure()
    params = config.chirp_params
    return RoundAirtime(
        query_s=query_bits / downlink_bitrate_bps,
        preamble_s=structure.preamble_airtime_s(params),
        payload_s=structure.payload_airtime_s(params),
    )


def lora_backscatter_poll_airtime_s(
    payload_bitrate_bps: float,
    payload_bits: int = PAYLOAD_CRC_BITS,
    preamble_s: float = None,
    params: ChirpParams = None,
    query_bits: int = LORA_BACKSCATTER_QUERY_BITS,
    downlink_bitrate_bps: float = DOWNLINK_BITRATE_BPS,
    n_preamble_symbols: int = 8,
) -> float:
    """Air time for the TDMA baseline to poll *one* device.

    The AP queries the device (28 bits), the device sends its preamble
    (8 chirp symbols at its own SF/BW) and then the payload at its
    bitrate. When ``preamble_s`` is not given it is derived from
    ``params`` (the modulation the device transmits with).
    """
    if payload_bitrate_bps <= 0:
        raise ConfigurationError("payload bitrate must be positive")
    if preamble_s is None:
        if params is None:
            raise ConfigurationError(
                "need either preamble_s or the chirp params"
            )
        preamble_s = n_preamble_symbols * params.symbol_duration_s
    query_s = query_bits / downlink_bitrate_bps
    payload_s = payload_bits / payload_bitrate_bps
    return query_s + preamble_s + payload_s


def netscatter_network_latency_s(
    config: NetScatterConfig,
    query_bits: int,
    payload_bits: int = PAYLOAD_CRC_BITS,
) -> float:
    """Latency to collect one payload from every device: one round."""
    structure = PacketStructure(payload_bits=payload_bits)
    return netscatter_round_airtime_s(config, query_bits, structure).total_s
