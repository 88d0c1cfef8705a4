"""Chirp symbol generation for CSS modulation.

A CSS symbol at spreading factor ``SF`` and bandwidth ``BW`` spans
``N = 2^SF`` samples when sampled at the chirp bandwidth. The baseline
upchirp sweeps frequency linearly from ``-BW/2`` to ``+BW/2`` over the
symbol; a data symbol is a *cyclic time shift* of the baseline, which after
dechirping appears as a clean FFT peak at the bin equal to the shift
(Section 2.1 of the paper).

The discrete baseline upchirp used here is ``u[n] = exp(j*pi*n^2 / N)``.
Because ``N`` is a power of two, the cyclic shift identity is exact:

    u[(n + k) mod N] = u[n] * exp(j*2*pi*k*n/N) * exp(j*pi*k^2/N)

so dechirping a shift-``k`` symbol yields a pure tone at bin ``k`` with a
constant phase, with no discontinuity at the wrap point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChirpParams:
    """Parameters of a CSS chirp symbol.

    Attributes
    ----------
    bandwidth_hz:
        Chirp sweep bandwidth; also the critical sample rate.
    spreading_factor:
        ``SF``; the symbol carries ``2^SF`` distinguishable cyclic shifts.
    """

    bandwidth_hz: float
    spreading_factor: int

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if not 1 <= int(self.spreading_factor) <= 16:
            raise ConfigurationError(
                f"spreading factor must be in [1, 16], got {self.spreading_factor}"
            )

    @property
    def n_samples(self) -> int:
        """Samples per symbol at the critical rate (= number of FFT bins)."""
        return 2 ** int(self.spreading_factor)

    @property
    def n_shifts(self) -> int:
        """Number of distinguishable cyclic shifts (= ``2^SF``)."""
        return self.n_samples

    @property
    def symbol_duration_s(self) -> float:
        """Chirp symbol duration ``2^SF / BW`` seconds."""
        return self.n_samples / self.bandwidth_hz

    @property
    def symbol_rate_hz(self) -> float:
        """Symbols per second, ``BW / 2^SF``."""
        return self.bandwidth_hz / self.n_samples

    @property
    def bin_spacing_hz(self) -> float:
        """Frequency spacing between adjacent FFT bins, ``BW / 2^SF``."""
        return self.bandwidth_hz / self.n_samples

    @property
    def lora_bitrate_bps(self) -> float:
        """Classic CSS bitrate ``SF * BW / 2^SF`` (Section 2.1)."""
        return self.spreading_factor * self.symbol_rate_hz

    @property
    def chirp_slope_hz_per_s(self) -> float:
        """Chirp slope ``BW^2 / 2^SF`` (the quantity that must differ for
        concurrent LoRa decoding, Section 2.2)."""
        return self.bandwidth_hz**2 / self.n_samples

    def sample_times(self) -> np.ndarray:
        """Time axis of one symbol at the critical sample rate."""
        return np.arange(self.n_samples) / self.bandwidth_hz


@lru_cache(maxsize=64)
def _base_upchirp_cached(n_samples: int) -> np.ndarray:
    n = np.arange(n_samples, dtype=float)
    chirp = np.exp(1j * np.pi * n**2 / n_samples)
    chirp.setflags(write=False)
    return chirp


def upchirp(params: ChirpParams) -> np.ndarray:
    """Baseline (shift-0) upchirp at the critical sample rate.

    The returned array is a cached read-only view; copy before mutating.
    """
    return _base_upchirp_cached(params.n_samples)


def downchirp(params: ChirpParams) -> np.ndarray:
    """Baseline downchirp: the complex conjugate of the upchirp.

    Multiplying a received upchirp by this de-spreads it to a single tone.
    """
    return np.conjugate(upchirp(params))


def cyclic_shifted_upchirp(params: ChirpParams, shift: int) -> np.ndarray:
    """Upchirp cyclically shifted by ``shift`` samples.

    After dechirping, the symbol produces an FFT peak at bin ``shift``.
    ``shift`` is taken modulo ``2^SF`` so callers can use signed offsets.
    """
    base = upchirp(params)
    shift = int(shift) % params.n_samples
    if shift == 0:
        return base
    return np.roll(base, -shift)


def oversampled_upchirp(
    params: ChirpParams, oversampling: int, shift: int = 0
) -> np.ndarray:
    """Cyclically shifted upchirp rendered at ``oversampling x BW``.

    Used by the waveform-fidelity path so that sub-sample timing offsets
    are meaningful. The analytic chirp phase is evaluated on the fine grid
    (not interpolated), so the waveform is alias-free before the channel.
    """
    if oversampling < 1:
        raise ConfigurationError("oversampling must be >= 1")
    n_total = params.n_samples * oversampling
    n = np.arange(n_total, dtype=float) / oversampling
    shifted = (n + (int(shift) % params.n_samples)) % params.n_samples
    return np.exp(1j * np.pi * shifted**2 / params.n_samples)
