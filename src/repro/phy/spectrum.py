"""Spectral analysis utilities: side-lobe profile, PSD and spectrogram.

Fig. 8 of the paper plots the zero-padded FFT power spectrum of a single
dechirped upchirp: a sinc main lobe with side lobes at -13 dB (1.5 bins
away, the SKIP = 2 neighbour) and -21 dB (2.5 bins away, SKIP = 3). These
levels set the near-far dynamic range and are produced here directly from
the window transform, plus helpers for spectrograms (Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.chirp import ChirpParams, upchirp
from repro.phy.demodulation import Demodulator


@dataclass(frozen=True)
class SideLobeProfile:
    """Normalised power profile of a dechirped chirp on the padded grid.

    ``power_db[i]`` is the power at interpolated bin ``i`` relative to the
    main-lobe peak (0 dB at bin 0).
    """

    power_db: np.ndarray
    zero_pad_factor: int

    @property
    def n_bins(self) -> int:
        return self.power_db.size

    def at_natural_bin(self, offset: float) -> float:
        """Profile level (dB) at a natural-bin offset from the peak."""
        idx = int(round(offset * self.zero_pad_factor)) % self.n_bins
        return float(self.power_db[idx])

    def worst_side_lobe_beyond(self, offset_bins: float) -> float:
        """Maximum side-lobe level at natural-bin distance >= ``offset_bins``.

        This is the interference floor a SKIP-spaced neighbour faces: a
        device ``SKIP`` bins away sees at worst this level leaking from a
        unit-power transmitter.
        """
        zp = self.zero_pad_factor
        lo = int(round(offset_bins * zp))
        hi = self.n_bins - lo
        if lo >= hi:
            raise ConfigurationError("offset exceeds half the spectrum")
        return float(np.max(self.power_db[lo:hi]))

    def worst_in_range(self, lo_bins: float, hi_bins: float) -> float:
        """Maximum level over natural-bin offsets ``[lo_bins, hi_bins]``.

        The paper's Fig. 8 annotations are this quantity over a SKIP-
        spaced neighbour's residual-offset window (neighbour distance
        +/- half a bin): about -13 dB for SKIP = 2 (range [1.5, 2.5],
        the first sinc side lobe) and -21 dB for SKIP = 3 (range
        [2.5, 3.5], the third lobe).
        """
        if not 0.0 <= lo_bins < hi_bins:
            raise ConfigurationError("need 0 <= lo < hi")
        zp = self.zero_pad_factor
        lo = int(round(lo_bins * zp))
        hi = int(round(hi_bins * zp))
        if hi >= self.n_bins:
            raise ConfigurationError("range exceeds the spectrum")
        return float(np.max(self.power_db[lo : hi + 1]))


def side_lobe_profile(
    params: ChirpParams, zero_pad_factor: int = 10
) -> SideLobeProfile:
    """Zero-padded power spectrum of one dechirped, shift-0 upchirp.

    Reproduces Fig. 8: the dechirped symbol is a pure tone seen through a
    rectangular window of ``2^SF`` samples, so the padded FFT traces the
    Dirichlet (periodic sinc) kernel.
    """
    demod = Demodulator(params, zero_pad_factor=zero_pad_factor)
    result = demod.dechirp(upchirp(params))
    power = result.power
    peak = float(np.max(power))
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(power / peak)
    return SideLobeProfile(power_db=power_db, zero_pad_factor=zero_pad_factor)


def dirichlet_side_lobe_db(offset_bins: float, n_samples: int) -> float:
    """Analytic Dirichlet-kernel level at a natural-bin offset.

    Closed form for the rectangular window: ``|sin(pi*x) / (N*sin(pi*x/N))``
    in power dB. Used to cross-check the simulated profile (the -13.3 dB /
    -20.8 dB landmarks quoted as -13 / -21 dB in the paper).
    """
    x = float(offset_bins)
    if abs(x % n_samples) < 1e-12:
        return 0.0
    num = np.sin(np.pi * x)
    den = n_samples * np.sin(np.pi * x / n_samples)
    value = abs(num / den)
    if value <= 0.0:
        return float("-inf")
    return float(20.0 * np.log10(value))


def power_spectral_density(
    signal: np.ndarray, sample_rate_hz: float, nfft: int = 1024
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch-averaged PSD of a complex baseband signal.

    Returns (frequency axis in Hz, PSD in dB). Frequencies are centred
    (fftshifted) to match the paper's spectrogram axes.
    """
    from scipy.signal import welch

    signal = np.asarray(signal, dtype=complex)
    if signal.size < nfft:
        nfft = max(8, signal.size)
    freqs, psd = welch(
        signal,
        fs=sample_rate_hz,
        nperseg=nfft,
        return_onesided=False,
        detrend=False,
    )
    order = np.argsort(np.fft.fftshift(np.fft.fftfreq(len(freqs))))
    freqs = np.fft.fftshift(freqs)
    psd = np.fft.fftshift(psd)
    del order
    with np.errstate(divide="ignore"):
        psd_db = 10.0 * np.log10(np.maximum(psd, 1e-30))
    return freqs, psd_db


def instantaneous_frequency(
    signal: np.ndarray, sample_rate_hz: float
) -> np.ndarray:
    """Instantaneous frequency track of a complex signal (Hz).

    Handy for verifying chirp slopes and the bandwidth-aggregation alias
    behaviour of Fig. 5.
    """
    signal = np.asarray(signal, dtype=complex)
    if signal.size < 2:
        raise ConfigurationError("need at least two samples")
    phase_steps = np.angle(signal[1:] * np.conjugate(signal[:-1]))
    return phase_steps * sample_rate_hz / (2.0 * np.pi)
