"""Fig. 14 — frequency offsets and residual FFT-bin variation.

(a) CDF of the per-packet frequency offset of the deployment's tags:
within +/-150 Hz, about 0.15 bins at (500 kHz, SF 9).
(b) 1-CDF of the residual |delta FFT bin| (timing + frequency) for three
configurations; the 500 kHz configuration has the widest bin (in time),
so it tolerates the least jitter and shows the heaviest tail.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.config import NetScatterConfig
from repro.experiments.common import ExperimentResult
from repro.hardware.mcu import McuTimingModel
from repro.hardware.oscillator import tag_oscillator
from repro.utils.conversions import timing_offset_to_bins
from repro.utils.rng import RngLike, child_rng, make_rng
from repro.utils.stats import cdf_at

FIG14B_CONFIGS: Tuple[Tuple[float, int], ...] = (
    (500e3, 9),
    (250e3, 8),
    (125e3, 7),
)


def run_frequency_offsets(
    n_devices: int = 256,
    n_packets: int = 50,
    rng: RngLike = None,
) -> ExperimentResult:
    """Fig. 14a: CDF of tag frequency offsets."""
    generator = make_rng(rng)
    offsets = []
    for device in range(n_devices):
        osc = tag_oscillator()
        osc.calibrate(child_rng(generator, device))
        offsets.extend(osc.offset_series_hz(n_packets, generator).tolist())

    result = ExperimentResult(
        experiment_id="fig14a",
        title=f"CDF of tag frequency offsets ({n_devices} devices)",
        columns=["offset_hz", "cdf"],
    )
    for x in np.linspace(-150.0, 150.0, 25):
        result.rows.append(
            {"offset_hz": float(x), "cdf": cdf_at(offsets, x)}
        )
    max_offset = float(np.max(np.abs(offsets)))
    config = NetScatterConfig()
    max_bins = max_offset * config.n_bins / config.bandwidth_hz
    result.check(
        "offsets bounded by ~150 Hz", max_offset <= 160.0
    )
    result.check(
        "worst offset under 0.2 FFT bins at (500 kHz, SF 9)",
        max_bins < 0.2,
    )
    result.notes.append(
        f"max |offset| = {max_offset:.1f} Hz = {max_bins:.3f} bins"
    )
    return result


def run_residual_bins(
    n_devices: int = 64,
    n_packets: int = 50,
    configs: Sequence[Tuple[float, int]] = FIG14B_CONFIGS,
    rng: RngLike = None,
) -> ExperimentResult:
    """Fig. 14b: 1-CDF of residual |delta FFT bin| per configuration.

    Per packet, the residual combines the MCU turnaround jitter (relative
    to the device's calibrated mean, which preamble synchronisation
    absorbs) and the oscillator offset.
    """
    generator = make_rng(rng)
    timing = McuTimingModel()
    mean_latency = (timing.min_latency_s + timing.max_latency_s) / 2.0

    samples = {}
    for bw, sf in configs:
        config = NetScatterConfig(bandwidth_hz=bw, spreading_factor=sf)
        params = config.chirp_params
        values = []
        for device in range(n_devices):
            osc = tag_oscillator()
            osc.calibrate(child_rng(generator, device))
            for _ in range(n_packets):
                dt = timing.sample_latency_s(generator) - mean_latency
                dbin = timing_offset_to_bins(dt, bw) + osc.offset_bins(
                    params, generator
                )
                values.append(abs(dbin))
        samples[(bw, sf)] = np.asarray(values)

    result = ExperimentResult(
        experiment_id="fig14b",
        title="1-CDF of residual |delta FFT bin| (timing + frequency)",
        columns=["delta_bin"]
        + [f"bw{int(bw/1e3)}_sf{sf}" for bw, sf in configs],
    )
    for x in np.linspace(0.0, 2.0, 21):
        row = {"delta_bin": float(x)}
        for bw, sf in configs:
            row[f"bw{int(bw/1e3)}_sf{sf}"] = 1.0 - cdf_at(
                samples[(bw, sf)], x
            )
        result.rows.append(row)

    tail_500 = 1.0 - cdf_at(samples[(500e3, 9)], 1.0)
    tail_125 = 1.0 - cdf_at(samples[(125e3, 7)], 1.0)
    result.check(
        "wider-band config has the heavier residual tail",
        tail_500 >= tail_125,
    )
    result.check(
        "most packets stay within half a bin at 500 kHz",
        cdf_at(samples[(500e3, 9)], 0.5) > 0.9,
    )
    result.check(
        "residuals beyond one bin are rare at 500 kHz (< 3%)",
        tail_500 < 0.03,
    )
    result.notes.append(
        f"P(|dbin| > 1) = {tail_500:.4f} at 500 kHz/SF9, "
        f"{tail_125:.4f} at 125 kHz/SF7"
    )
    return result
