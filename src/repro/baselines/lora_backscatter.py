"""LoRa Backscatter baseline [25]: sequential query-response TDMA.

The paper replicates LoRa Backscatter (whose code was not released) as a
query-response system: the AP polls each device in turn with a 28-bit
query; the device answers with an 8-symbol preamble and its payload at
either a fixed 8.7 kbps or (for the idealised variant) the best bitrate
its SNR supports. This module reproduces that replication and its
rate/latency accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.airtime import lora_backscatter_poll_airtime_s
from repro.baselines.rate_adaptation import best_choice
from repro.constants import (
    LORA_BACKSCATTER_FIXED_BITRATE_BPS,
    LORA_BACKSCATTER_QUERY_BITS,
    PAYLOAD_CRC_BITS,
)
from repro.errors import ConfigurationError
from repro.phy.chirp import ChirpParams


@dataclass(frozen=True)
class PollAccounting:
    """Air-time breakdown of polling one device."""

    device_index: int
    bitrate_bps: float
    poll_airtime_s: float
    payload_airtime_s: float


class LoRaBackscatterNetwork:
    """The TDMA baseline over a deployment's SNR vector.

    Parameters
    ----------
    snrs_db:
        Per-device uplink SNRs (referred to 500 kHz).
    rate_adaptation:
        If True, each device uses its ideal single-user bitrate (and the
        matching preamble duration); otherwise the fixed 8.7 kbps of the
        original system, with the deployment (500 kHz, SF 9) preamble.
    """

    def __init__(
        self,
        snrs_db: Sequence[float],
        rate_adaptation: bool = False,
        payload_bits: int = PAYLOAD_CRC_BITS,
        fixed_bitrate_bps: float = LORA_BACKSCATTER_FIXED_BITRATE_BPS,
        fixed_params: Optional[ChirpParams] = None,
    ) -> None:
        if len(snrs_db) == 0:
            raise ConfigurationError("need at least one device")
        self._snrs = [float(s) for s in snrs_db]
        self._rate_adaptation = bool(rate_adaptation)
        self._payload_bits = int(payload_bits)
        self._fixed_bitrate = float(fixed_bitrate_bps)
        self._fixed_params = fixed_params or ChirpParams(
            bandwidth_hz=500e3, spreading_factor=9
        )

    @property
    def n_devices(self) -> int:
        return len(self._snrs)

    def _device_choice(self, index: int):
        """The adapted rate choice for one device (None when fixed-rate
        or out of range)."""
        if not self._rate_adaptation:
            return None
        return best_choice(self._snrs[index])

    def device_bitrate_bps(self, index: int) -> float:
        """Payload bitrate the indexed device transmits at."""
        choice = self._device_choice(index)
        if choice is None:
            # Fixed-rate mode, or an out-of-range device falling back to
            # the slowest configuration.
            return self._fixed_bitrate
        return choice.bitrate_bps

    def device_preamble_s(self, index: int, n_symbols: int = 8) -> float:
        """Preamble duration for the device's chosen modulation."""
        choice = self._device_choice(index)
        params = choice.params if choice is not None else self._fixed_params
        return n_symbols * params.symbol_duration_s

    def poll(self, index: int) -> PollAccounting:
        """Air-time accounting for polling one device."""
        bitrate = self.device_bitrate_bps(index)
        preamble_s = self.device_preamble_s(index)
        poll_s = lora_backscatter_poll_airtime_s(
            bitrate,
            payload_bits=self._payload_bits,
            preamble_s=preamble_s,
            query_bits=LORA_BACKSCATTER_QUERY_BITS,
        )
        return PollAccounting(
            device_index=index,
            bitrate_bps=bitrate,
            poll_airtime_s=poll_s,
            payload_airtime_s=self._payload_bits / bitrate,
        )

    def full_sweep(self) -> List[PollAccounting]:
        """Poll every device once (one full data-collection cycle)."""
        return [self.poll(i) for i in range(self.n_devices)]

    def network_phy_rate_bps(self) -> float:
        """Total payload bits over total *payload* air time (Fig. 17)."""
        polls = self.full_sweep()
        total_bits = self._payload_bits * self.n_devices
        total_payload_time = sum(p.payload_airtime_s for p in polls)
        return total_bits / total_payload_time

    def link_layer_rate_bps(self) -> float:
        """Total payload bits over total poll air time (Fig. 18)."""
        polls = self.full_sweep()
        total_bits = self._payload_bits * self.n_devices
        total_time = sum(p.poll_airtime_s for p in polls)
        return total_bits / total_time

    def network_latency_s(self) -> float:
        """Time to hear from every device once (Fig. 19)."""
        return sum(p.poll_airtime_s for p in self.full_sweep())
