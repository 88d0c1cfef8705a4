"""Concurrent (SF, BW) pair analysis (Section 2.2, "different SFs").

An alternative to NetScatter: run several LoRa networks concurrently on
different spreading factors. Two configurations can coexist without
sensitivity loss only if their chirp *slopes* ``BW^2 / 2^SF`` differ
(Sornin & Champion's patent, cited as [24]). Over the LoRa bandwidth
family that fits a 500 kHz band (the half-split chain 7.8125 kHz ...
500 kHz) and SF 6-12, there are exactly 19 distinct slopes; requiring
sensitivity better than -123 dBm and at least 1 kbps leaves 8 usable
concurrent configurations — the paper's counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.core.config import SX1276_SNR_LIMIT_DB, NetScatterConfig
from repro.phy.chirp import ChirpParams

DEFAULT_BANDWIDTHS_HZ = (
    7812.5,
    15625.0,
    31250.0,
    62500.0,
    125e3,
    250e3,
    500e3,
)
"""The power-of-two LoRa bandwidth chain inside a 500 kHz allocation."""

DEFAULT_SPREADING_FACTORS = (6, 7, 8, 9, 10, 11, 12)


@dataclass(frozen=True)
class SfBwPair:
    """One candidate LoRa operating point."""

    bandwidth_hz: float
    spreading_factor: int

    @property
    def params(self) -> ChirpParams:
        return ChirpParams(
            bandwidth_hz=self.bandwidth_hz,
            spreading_factor=self.spreading_factor,
        )

    @property
    def slope(self) -> float:
        """Chirp slope ``BW^2 / 2^SF`` (the concurrency discriminant)."""
        return self.params.chirp_slope_hz_per_s

    @property
    def bitrate_bps(self) -> float:
        return self.params.lora_bitrate_bps

    @property
    def sensitivity_dbm(self) -> float:
        cfg = NetScatterConfig(
            bandwidth_hz=self.bandwidth_hz,
            spreading_factor=self.spreading_factor,
        )
        return cfg.sensitivity_dbm


def _slope_key(pair: SfBwPair) -> float:
    return round(pair.slope, 6)


def all_pairs(
    bandwidths_hz: Sequence[float] = DEFAULT_BANDWIDTHS_HZ,
    spreading_factors: Sequence[int] = DEFAULT_SPREADING_FACTORS,
) -> List[SfBwPair]:
    """Every candidate (SF, BW) combination."""
    return [
        SfBwPair(bandwidth_hz=bw, spreading_factor=sf)
        for bw in bandwidths_hz
        for sf in spreading_factors
    ]


def _dedupe_by_slope(pairs: Sequence[SfBwPair]) -> List[SfBwPair]:
    """Keep the highest-bitrate member of each slope-equivalence class.

    Combinations sharing a slope (e.g. (500 kHz, SF 8) and (250 kHz,
    SF 6): both 977 MHz/ms) cannot be concurrently decoded, so only one
    member of each class can be fielded.
    """
    by_slope: Dict[float, SfBwPair] = {}
    for pair in pairs:
        key = _slope_key(pair)
        current = by_slope.get(key)
        if current is None or pair.bitrate_bps > current.bitrate_bps:
            by_slope[key] = pair
    return sorted(
        by_slope.values(),
        key=lambda p: (-p.bandwidth_hz, p.spreading_factor),
    )


def slope_distinct_pairs(
    bandwidths_hz: Sequence[float] = DEFAULT_BANDWIDTHS_HZ,
    spreading_factors: Sequence[int] = DEFAULT_SPREADING_FACTORS,
) -> List[SfBwPair]:
    """The maximal slope-distinct set (paper: 19 pairs)."""
    return _dedupe_by_slope(all_pairs(bandwidths_hz, spreading_factors))


def usable_concurrent_pairs(
    min_sensitivity_dbm: float = -123.0,
    min_bitrate_bps: float = 1e3,
    bandwidths_hz: Sequence[float] = DEFAULT_BANDWIDTHS_HZ,
    spreading_factors: Sequence[int] = DEFAULT_SPREADING_FACTORS,
) -> List[SfBwPair]:
    """Slope-distinct pairs that also meet the practical constraints.

    Filters *before* deduplication: a slope class counts as usable if any
    member passes (sensitivity at or better than -123 dBm, bitrate of at
    least 1 kbps). The paper counts 8.
    """
    passing = [
        pair
        for pair in all_pairs(bandwidths_hz, spreading_factors)
        if pair.spreading_factor in SX1276_SNR_LIMIT_DB
        and pair.sensitivity_dbm <= min_sensitivity_dbm
        and pair.bitrate_bps >= min_bitrate_bps
    ]
    return _dedupe_by_slope(passing)


def verify_pairwise_distinct_slopes(pairs: Sequence[SfBwPair]) -> bool:
    """Invariant check used by tests: no two pairs share a slope."""
    slopes: Set[float] = set()
    for pair in pairs:
        key = _slope_key(pair)
        if key in slopes:
            return False
        slopes.add(key)
    return True
