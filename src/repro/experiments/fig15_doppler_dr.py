"""Fig. 15 — Doppler effect and power dynamic range vs bin distance.

(a) 1-CDF of |delta FFT bin| for device speeds 0-5 m/s: motion-induced
Doppler at 900 MHz is tens of hertz, far below the ~1 kHz bin spacing, so
all curves collapse onto the static one.
(b) The maximum tolerable power difference between two concurrent devices
as a function of their FFT-bin separation: ~5 dB at the SKIP = 2 neighbour
distance, rising to ~35 dB mid-spectrum, symmetric about the centre.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.channel.offsets import doppler_bin_shift
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.receiver import NetScatterReceiver
from repro.experiments.common import ExperimentResult
from repro.hardware.mcu import McuTimingModel
from repro.hardware.oscillator import tag_oscillator
from repro.utils.conversions import timing_offset_to_bins
from repro.utils.rng import RngLike, child_rng, make_rng
from repro.utils.stats import cdf_at


def run_doppler(
    speeds_m_s: Sequence[float] = (0.0, 1.0, 3.0, 5.0),
    n_samples: int = 2000,
    rng: RngLike = None,
) -> ExperimentResult:
    """Fig. 15a: residual bin offsets for different movement speeds."""
    generator = make_rng(rng)
    config = NetScatterConfig()
    params = config.chirp_params
    timing = McuTimingModel()
    mean_latency = (timing.min_latency_s + timing.max_latency_s) / 2.0

    # One device is carried at each speed (the paper's subject holds the
    # same tag), so the oscillator is shared across the speed sweep.
    osc = tag_oscillator()
    osc.calibrate(child_rng(generator, 0))
    samples = {}
    for speed in speeds_m_s:
        doppler = doppler_bin_shift(speed, params)
        values = []
        for _ in range(n_samples):
            dt = timing.sample_latency_s(generator) - mean_latency
            dbin = (
                timing_offset_to_bins(dt, params.bandwidth_hz)
                + osc.offset_bins(params, generator)
                + doppler * float(generator.uniform(-1.0, 1.0))
            )
            values.append(abs(dbin))
        samples[speed] = np.asarray(values)

    result = ExperimentResult(
        experiment_id="fig15a",
        title="1-CDF of |delta FFT bin| under mobility (Doppler)",
        columns=["delta_bin"]
        + [f"speed_{s:g}ms" for s in speeds_m_s],
    )
    for x in np.linspace(0.0, 1.5, 16):
        row = {"delta_bin": float(x)}
        for speed in speeds_m_s:
            row[f"speed_{speed:g}ms"] = 1.0 - cdf_at(samples[speed], x)
        result.rows.append(row)

    medians = {s: float(np.median(samples[s])) for s in speeds_m_s}
    static_median = medians[min(speeds_m_s)]
    fastest_median = medians[max(speeds_m_s)]
    result.check(
        "speed leaves the bin-offset distribution unchanged "
        "(medians within 0.05 bins)",
        abs(fastest_median - static_median) < 0.05,
    )
    result.check(
        "Doppler shift itself is far below one bin",
        doppler_bin_shift(10.0, params) < 0.1,
    )
    result.notes.append(
        f"Doppler at 10 m/s = {doppler_bin_shift(10.0, params):.4f} bins "
        "(paper: 30 Hz vs 976 Hz bin spacing)"
    )
    return result


def _weak_device_ber(
    config: NetScatterConfig,
    separation_bins: int,
    delta_db: float,
    snr_db: float,
    n_symbols: int,
    rng: np.random.Generator,
) -> float:
    """BER of a weak device with a stronger device ``separation_bins`` away.

    All rounds of the point run as one batch through the sparse-readout
    decode engine (compose, noise-load, decode in one pass each).
    """
    params = config.chirp_params
    weak_shift = 0
    strong_shift = separation_bins % config.n_bins
    receiver = NetScatterReceiver(
        config,
        {0: weak_shift, 1: strong_shift},
        detection_snr_db=-100.0,
    )
    n_preamble = 6
    frame_payload = 40
    n_rounds = -(-n_symbols // frame_payload)
    cfo_to_bins = params.n_samples / params.bandwidth_hz

    bits = rng.integers(0, 2, size=(n_rounds, frame_payload, 2))
    bit_tensor = np.ones((n_rounds, n_preamble + frame_payload, 2))
    bit_tensor[:, n_preamble:] = bits
    cfos = rng.normal(scale=300.0, size=(n_rounds, 2))
    bins = (
        np.array([weak_shift, strong_shift], dtype=float)[None, :]
        + cfos * cfo_to_bins
    )
    amplitudes = np.broadcast_to(
        np.array([1.0, 10.0 ** (delta_db / 20.0)]), (n_rounds, 2)
    )
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_rounds, 2))

    # Dechirped-domain composition + readout-bin AWGN: see fig12.
    symbols = compose_rounds(
        params, bins, amplitudes, phases, bit_tensor, respread=False
    )
    decode = receiver.decode_rounds(
        symbols,
        n_preamble_upchirps=n_preamble,
        dechirped=True,
        noise_snr_db=snr_db,
        rng=rng,
    )

    weak = decode.column_of(0)
    wrong = (decode.bits[:, :, weak] != bits[:, :, 0])
    errors = int(np.sum(wrong & decode.detected[:, weak][:, None]))
    return errors / (n_rounds * frame_payload)


def run_dynamic_range(
    separations_bins: Sequence[int] = (2, 4, 8, 16, 64, 128, 256),
    deltas_db: Sequence[float] = (0, 5, 10, 15, 20, 25, 30, 35, 40),
    snr_db: float = -5.0,
    n_symbols: int = 800,
    ber_threshold: float = 0.012,
    rng: RngLike = None,
) -> ExperimentResult:
    """Fig. 15b: max tolerable power delta vs FFT-bin separation.

    For each separation, sweep the strong device's power upward until the
    weak device's BER crosses the ~1% packet-error-equivalent threshold;
    report the last tolerable delta.
    """
    generator = make_rng(rng)
    config = NetScatterConfig()
    result = ExperimentResult(
        experiment_id="fig15b",
        title="Tolerable power difference vs FFT-bin separation",
        columns=["separation_bins", "max_tolerable_delta_db"],
    )
    tolerances = {}
    baseline = _weak_device_ber(
        config, 256, 0.0, snr_db, n_symbols, generator
    )
    threshold = max(ber_threshold, 4.0 * baseline)
    for separation in separations_bins:
        tolerated = 0.0
        for delta in deltas_db:
            ber = _weak_device_ber(
                config, separation, float(delta), snr_db, n_symbols, generator
            )
            if ber <= threshold:
                tolerated = float(delta)
            else:
                break
        tolerances[separation] = tolerated
        result.rows.append(
            {
                "separation_bins": int(separation),
                "max_tolerable_delta_db": tolerated,
            }
        )

    near = tolerances[min(separations_bins)]
    far = tolerances[max(separations_bins)]
    result.check(
        "tolerable delta grows with bin separation", far > near
    )
    result.check(
        "SKIP=2 neighbours tolerate at least ~5 dB", near >= 5.0
    )
    result.check(
        "mid-spectrum tolerance reaches ~35 dB", far >= 30.0
    )
    result.notes.append(
        f"tolerance at separation 2 = {near:.0f} dB (paper: 5 dB); "
        f"at 256 = {far:.0f} dB (paper: 35 dB)"
    )
    return result
