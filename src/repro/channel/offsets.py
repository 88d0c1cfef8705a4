"""Timing, frequency and Doppler offset models.

These are the imperfection sources of Sections 3.2.1-3.2.2 and the Fig. 14
measurements: per-packet MCU/envelope-detector delay jitter, per-device
crystal frequency offsets, and motion-induced Doppler. Each model converts
its physical quantity to the FFT-bin shift the decoder actually sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    CARRIER_FREQ_HZ,
    HW_DELAY_JITTER_MAX_S,
)
from repro.errors import ReproError
from repro.phy.chirp import ChirpParams
from repro.utils.conversions import (
    doppler_shift_hz,
    freq_offset_to_bins,
    timing_offset_to_bins,
)
from repro.utils.rng import RngLike, make_rng


@dataclass(frozen=True)
class TimingOffsetModel:
    """Per-packet hardware delay jitter of a backscatter tag.

    The tag's envelope detector receives the query, interrupts the MCU,
    and the FPGA starts the chirp — each step adds a variable latency. The
    paper measures total jitter up to ~3.5 us. We model the per-packet
    delay as a truncated Gaussian over ``[0, max_delay_s]``: strictly
    non-negative (the tag can only be late, never early) with most mass
    near the typical latency.
    """

    max_delay_s: float = HW_DELAY_JITTER_MAX_S
    mean_delay_s: float = HW_DELAY_JITTER_MAX_S / 3.0
    std_delay_s: float = HW_DELAY_JITTER_MAX_S / 4.0

    def __post_init__(self) -> None:
        if self.max_delay_s < 0 or self.std_delay_s < 0:
            raise ReproError("delays must be non-negative")

    def sample_delay_s(self, rng: RngLike = None) -> float:
        """Draw one per-packet hardware delay (seconds)."""
        generator = make_rng(rng)
        for _ in range(64):
            value = generator.normal(self.mean_delay_s, self.std_delay_s)
            if 0.0 <= value <= self.max_delay_s:
                return float(value)
        return float(np.clip(self.mean_delay_s, 0.0, self.max_delay_s))

    def sample_bin_offset(
        self, params: ChirpParams, rng: RngLike = None
    ) -> float:
        """Per-packet FFT-bin shift: ``dt * BW`` (Section 3.2.1)."""
        return timing_offset_to_bins(
            self.sample_delay_s(rng), params.bandwidth_hz
        )

    def worst_case_bins(self, params: ChirpParams) -> float:
        """Largest bin shift the jitter can cause at this bandwidth."""
        return timing_offset_to_bins(self.max_delay_s, params.bandwidth_hz)


@dataclass(frozen=True)
class FrequencyOffsetModel:
    """Per-device crystal frequency offset.

    A tag synthesises only its few-MHz baseband, so a crystal error of
    ``ppm`` parts-per-million yields ``ppm * f_baseband`` hertz of offset —
    roughly 90x smaller than an active 900 MHz radio with the same crystal
    (the Section 2.2 argument against Choir for backscatter).
    """

    oscillator_freq_hz: float
    tolerance_ppm: float = 50.0

    def __post_init__(self) -> None:
        if self.oscillator_freq_hz <= 0:
            raise ReproError("oscillator frequency must be positive")
        if self.tolerance_ppm < 0:
            raise ReproError("tolerance must be non-negative")

    @property
    def max_offset_hz(self) -> float:
        """Worst-case frequency offset magnitude."""
        return self.oscillator_freq_hz * self.tolerance_ppm * 1e-6

    def sample_offset_hz(self, rng: RngLike = None) -> float:
        """Draw a per-device offset, uniform over the tolerance window.

        Crystal cut errors are fixed per part; uniform over the tolerance
        band is the standard conservative assumption.
        """
        generator = make_rng(rng)
        return float(
            generator.uniform(-self.max_offset_hz, self.max_offset_hz)
        )

    def sample_bin_offset(
        self, params: ChirpParams, rng: RngLike = None
    ) -> float:
        """Per-device FFT-bin shift: ``2^SF * df / BW`` (Section 3.2.2)."""
        return freq_offset_to_bins(
            self.sample_offset_hz(rng),
            params.bandwidth_hz,
            params.spreading_factor,
        )


def backscatter_frequency_model(
    tolerance_ppm: float = 50.0,
) -> FrequencyOffsetModel:
    """Offset model of a tag clocking a 3 MHz baseband subcarrier."""
    from repro.constants import BACKSCATTER_BASEBAND_FREQ_HZ

    return FrequencyOffsetModel(
        oscillator_freq_hz=BACKSCATTER_BASEBAND_FREQ_HZ,
        tolerance_ppm=tolerance_ppm,
    )


def radio_frequency_model(
    tolerance_ppm: float = 50.0,
) -> FrequencyOffsetModel:
    """Offset model of an active LoRa radio synthesising 900 MHz."""
    return FrequencyOffsetModel(
        oscillator_freq_hz=CARRIER_FREQ_HZ, tolerance_ppm=tolerance_ppm
    )


def doppler_bin_shift(
    speed_m_s: float,
    params: ChirpParams,
    carrier_freq_hz: float = CARRIER_FREQ_HZ,
) -> float:
    """FFT-bin shift caused by motion at ``speed_m_s`` (Section 4.2).

    10 m/s at 900 MHz gives 30 Hz — far below the ~1 kHz bin spacing of
    the deployed configuration, which is why Fig. 15a is flat.
    """
    shift_hz = doppler_shift_hz(speed_m_s, carrier_freq_hz)
    return freq_offset_to_bins(
        shift_hz, params.bandwidth_hz, params.spreading_factor
    )


def residual_bin_offset(
    params: ChirpParams,
    timing_model: TimingOffsetModel,
    frequency_model: FrequencyOffsetModel,
    rng: RngLike = None,
) -> float:
    """One combined per-packet bin offset draw (timing + frequency).

    This is the quantity whose tail Fig. 14b plots for three
    configurations; the timing term dominates for backscatter hardware.
    """
    generator = make_rng(rng)
    return timing_model.sample_bin_offset(params, generator) + abs(
        frequency_model.sample_bin_offset(params, generator)
    )
