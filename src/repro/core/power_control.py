"""Network-wide power-control policy (Section 3.2.3, fine-grained half).

The tag-side step logic lives on :class:`repro.hardware.device
.BackscatterDevice`; this module provides the network-side view — target
SNR windows, the closed-loop simulation used by the power-control
ablation, and the SNR-based grouping the AP uses for the query group ID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import DYNAMIC_RANGE_PRACTICE_DB, POWER_GAIN_LEVELS_DB
from repro.errors import ConfigurationError
from repro.utils.rng import RngLike, make_rng


@dataclass(frozen=True)
class PowerControlPolicy:
    """Parameters of the self-aware power adjustment loop.

    Attributes
    ----------
    levels_db:
        The discrete gains the switch network offers.
    hysteresis_db:
        Channel change (vs the association baseline) needed before the
        tag steps its gain.
    dynamic_range_db:
        The network-wide SNR window the allocation tolerates (35 dB in
        practice, Fig. 15b).
    """

    levels_db: Tuple[float, ...] = POWER_GAIN_LEVELS_DB
    hysteresis_db: float = 1.5
    dynamic_range_db: float = DYNAMIC_RANGE_PRACTICE_DB

    def __post_init__(self) -> None:
        if len(self.levels_db) < 1:
            raise ConfigurationError("need at least one power level")
        if self.hysteresis_db < 0:
            raise ConfigurationError("hysteresis must be non-negative")


def reciprocity_step(
    baseline_rssi_dbm: float,
    current_rssi_dbm: float,
    current_level: int,
    policy: PowerControlPolicy,
) -> Tuple[int, bool]:
    """One power-control decision; returns ``(new_level, participate)``.

    Stronger downlink than at association -> the uplink would also arrive
    hotter -> step the gain down (and vice versa). When the tag runs out
    of levels and the channel has moved more than twice the hysteresis,
    it sits the round out (``participate = False``).
    """
    n_levels = len(policy.levels_db)
    delta = current_rssi_dbm - baseline_rssi_dbm
    if delta > policy.hysteresis_db:
        if current_level < n_levels - 1:
            return current_level + 1, True
        return current_level, delta <= 2.0 * policy.hysteresis_db
    if delta < -policy.hysteresis_db:
        if current_level > 0:
            return current_level - 1, True
        return current_level, delta >= -2.0 * policy.hysteresis_db
    return current_level, True


def simulate_power_control(
    mean_snrs_db: Sequence[float],
    n_rounds: int,
    policy: Optional[PowerControlPolicy] = None,
    fading_std_db: float = 1.5,
    round_interval_s: float = 0.06,
    enabled: bool = True,
    rng: RngLike = None,
) -> Dict[str, np.ndarray]:
    """Closed-loop power control over a fading population (ablation).

    Simulates ``n_rounds`` query/response rounds: each device's channel
    follows an AR(1) fading track; before each round the device applies
    (or, with ``enabled=False``, skips) the reciprocity step. Returns the
    per-round *effective* SNR matrix (channel + gain) and participation
    mask, from which the caller can compare the residual SNR spread with
    and without control.
    """
    from repro.channel.fading import FadingProcess

    if policy is None:
        policy = PowerControlPolicy()
    generator = make_rng(rng)
    n_devices = len(mean_snrs_db)
    if n_devices == 0:
        raise ConfigurationError("need at least one device")
    levels = sorted(policy.levels_db, reverse=True)

    fadings = []
    for snr in mean_snrs_db:
        process = FadingProcess(mean_snr_db=float(snr), std_db=fading_std_db)
        process.reset(generator)
        fadings.append(process)

    current_levels = [len(levels) // 2] * n_devices
    baselines = [f.current_snr_db for f in fadings]

    effective = np.zeros((n_rounds, n_devices))
    participating = np.ones((n_rounds, n_devices), dtype=bool)
    for r in range(n_rounds):
        for d, fading in enumerate(fadings):
            channel_snr = fading.step(round_interval_s, generator)
            if enabled:
                # RSSI deltas mirror SNR deltas under reciprocity; the
                # loop operates directly on the dB difference.
                new_level, participate = reciprocity_step(
                    baselines[d], channel_snr, current_levels[d], policy
                )
                current_levels[d] = new_level
                participating[r, d] = participate
            effective[r, d] = channel_snr + levels[current_levels[d]]
    return {
        "effective_snr_db": effective,
        "participating": participating,
        "final_levels": np.asarray(current_levels),
    }


def snr_groups(
    snrs_db: Sequence[float], group_span_db: float = 35.0
) -> List[List[int]]:
    """Group device indices into similar-SNR groups (query group IDs).

    Section 3.3.3: a large network splits devices into groups of similar
    signal strength so each concurrent round stays inside the tolerable
    dynamic range. Greedy span-limited grouping over the sorted SNRs.
    """
    if group_span_db <= 0:
        raise ConfigurationError("group span must be positive")
    order = np.argsort(np.asarray(snrs_db, dtype=float))[::-1]
    groups: List[List[int]] = []
    current: List[int] = []
    group_top: Optional[float] = None
    for idx in order:
        snr = float(snrs_db[idx])
        if group_top is None or group_top - snr <= group_span_db:
            current.append(int(idx))
            if group_top is None:
                group_top = snr
        else:
            groups.append(current)
            current = [int(idx)]
            group_top = snr
    if current:
        groups.append(current)
    return groups
