"""Ideal LoRa rate adaptation via the SX1276 SNR table (Section 4.4).

The paper's strongest baseline gives every backscatter device the best
single-user LoRa bitrate its SNR supports, chosen from the SX1276
datasheet's demodulator SNR limits across (SF, BW) combinations. This is
"ideal" in that it ignores the adaptation protocol's own overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.core.config import SX1276_SNR_LIMIT_DB
from repro.channel.awgn import noise_power_dbm
from repro.constants import LORA_MAX_BITRATE_BPS
from repro.phy.chirp import ChirpParams

CANDIDATE_BANDWIDTHS_HZ = (125e3, 250e3, 500e3)
CANDIDATE_SPREADING_FACTORS = (6, 7, 8, 9, 10, 11, 12)


@dataclass(frozen=True)
class RateChoice:
    """A feasible (SF, BW) operating point for one device."""

    bandwidth_hz: float
    spreading_factor: int
    bitrate_bps: float
    required_snr_db: float

    @property
    def params(self) -> ChirpParams:
        return ChirpParams(
            bandwidth_hz=self.bandwidth_hz,
            spreading_factor=self.spreading_factor,
        )


@lru_cache(maxsize=16)
def _candidate_table(
    reference_bandwidth_hz: float, max_bitrate_bps: float
) -> Tuple[Tuple[float, RateChoice], ...]:
    """The fixed (threshold, choice) table, built once per reference.

    Each entry pairs a candidate operating point with the minimum SNR —
    *referred to the reference bandwidth* — at which it demodulates.
    The candidates themselves never change, so the per-device adaptation
    (which the Fig. 17-19 baselines run thousands of times per sweep)
    reduces to threshold comparisons instead of rebuilding 21
    :class:`ChirpParams` per call.
    """
    reference_noise = noise_power_dbm(reference_bandwidth_hz)
    table = []
    for bw in CANDIDATE_BANDWIDTHS_HZ:
        bandwidth_gain_db = reference_noise - noise_power_dbm(bw)
        for sf in CANDIDATE_SPREADING_FACTORS:
            limit = SX1276_SNR_LIMIT_DB.get(sf)
            if limit is None:
                continue
            params = ChirpParams(bandwidth_hz=bw, spreading_factor=sf)
            bitrate = min(params.lora_bitrate_bps, max_bitrate_bps)
            table.append(
                (
                    limit - bandwidth_gain_db,
                    RateChoice(
                        bandwidth_hz=bw,
                        spreading_factor=sf,
                        bitrate_bps=bitrate,
                        required_snr_db=limit,
                    ),
                )
            )
    return tuple(table)


def feasible_choices(
    snr_db: float,
    reference_bandwidth_hz: float = 500e3,
    max_bitrate_bps: float = LORA_MAX_BITRATE_BPS,
) -> List[RateChoice]:
    """All (SF, BW) pairs whose SNR demand is met at ``snr_db``.

    ``snr_db`` is referred to ``reference_bandwidth_hz``; narrower
    bandwidths see proportionally less noise, which the comparison
    accounts for (a 125 kHz choice gains 6 dB of SNR over 500 kHz).
    """
    return [
        choice
        for threshold, choice in _candidate_table(
            float(reference_bandwidth_hz), float(max_bitrate_bps)
        )
        if snr_db >= threshold
    ]


@lru_cache(maxsize=4096)
def best_choice(
    snr_db: float, reference_bandwidth_hz: float = 500e3
) -> Optional[RateChoice]:
    """The highest-bitrate feasible choice, or ``None`` if out of range.

    Cached: deployments poll the same per-device SNRs once per sweep
    point, so Fig. 17-19 hit this with a few hundred distinct values.
    """
    choices = feasible_choices(snr_db, reference_bandwidth_hz)
    if not choices:
        return None
    return max(choices, key=lambda c: c.bitrate_bps)
