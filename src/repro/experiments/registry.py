"""Registry mapping experiment ids to their drivers.

Used by the ``python -m repro`` command-line runner and by tooling that
wants to enumerate everything the reproduction can regenerate.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List

from repro.errors import ReproError
from repro.experiments import (
    choir_comparison,
    group_scaling,
    fig04_choir_cdf,
    fig07_power_gain,
    fig08_sidelobes,
    fig09_snr_variance,
    fig10_association,
    fig12_nearfar_ber,
    fig14_offsets,
    fig15_doppler_dr,
    fig16_spectrogram,
    fig17_phy_rate,
    fig18_linklayer,
    fig19_latency,
    sec22_analytics,
    table1_configs,
)

EXPERIMENTS: Dict[str, Callable] = {
    "fig04": fig04_choir_cdf.run,
    "table1": table1_configs.run,
    "fig07": fig07_power_gain.run,
    "fig08": fig08_sidelobes.run,
    "fig09": fig09_snr_variance.run,
    "fig10": fig10_association.run,
    "fig12": fig12_nearfar_ber.run,
    "fig14a": fig14_offsets.run_frequency_offsets,
    "fig14b": fig14_offsets.run_residual_bins,
    "fig15a": fig15_doppler_dr.run_doppler,
    "fig15b": fig15_doppler_dr.run_dynamic_range,
    "fig16": fig16_spectrogram.run,
    "fig17": fig17_phy_rate.run,
    "fig18": fig18_linklayer.run,
    "fig19": fig19_latency.run,
    "sec22": sec22_analytics.run,
    "ext-choir": choir_comparison.run,
    "ext-groups": group_scaling.run,
}

# Reduced-scale keyword arguments for a fast smoke pass of everything.
QUICK_KWARGS: Dict[str, dict] = {
    "fig04": dict(n_devices=24, n_packets=30),
    "fig09": dict(duration_s=600.0),
    "fig10": dict(n_trials=4),
    "fig12": dict(snrs_db=(-16, -10), n_symbols=1500),
    "fig14a": dict(n_devices=32, n_packets=20),
    "fig14b": dict(n_devices=16, n_packets=40),
    "fig15a": dict(n_samples=500),
    "fig15b": dict(
        separations_bins=(2, 64, 256),
        deltas_db=(0, 5, 15, 30, 35),
        n_symbols=800,
        ber_threshold=0.015,
    ),
    "fig16": dict(n_symbols=8),
    "fig17": dict(device_counts=(1, 64, 256), n_rounds=1),
    "fig18": dict(device_counts=(1, 256), n_rounds=1),
    "fig19": dict(device_counts=(1, 64, 256)),
    "sec22": dict(n_trials=5000),
    "ext-choir": dict(n_rounds=120),
    "ext-groups": dict(populations=(128, 512)),
}


def experiment_ids() -> List[str]:
    """All registered experiment ids, in paper order."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, quick: bool = False, seed: int = 0):
    """Run one experiment by id; returns its ExperimentResult."""
    if experiment_id not in EXPERIMENTS:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {', '.join(EXPERIMENTS)}"
        )
    kwargs = dict(QUICK_KWARGS.get(experiment_id, {})) if quick else {}
    driver = EXPERIMENTS[experiment_id]
    # A few drivers (table1, fig07, fig08) are deterministic and take
    # no rng.
    if "rng" in inspect.signature(driver).parameters:
        kwargs["rng"] = seed
    return driver(**kwargs)
