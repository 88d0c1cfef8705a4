"""Dechirp + FFT demodulation with zero-padded sub-bin resolution.

This is the receiver-side workhorse shared by the NetScatter concurrent
decoder and the LoRa baseline: multiply the received symbol by the baseline
downchirp, zero-pad, and take a single FFT. Every concurrent transmission
lands in its own bin, so one FFT decodes all devices (the paper's central
receiver-complexity claim).

Zero-padding by a factor ``zp`` gives ``1/zp``-bin peak resolution but
convolves each peak with a sinc whose side lobes (-13.3 dB first lobe)
create the near-far problem analysed in Section 3.2.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from repro.errors import DecodingError
from repro.phy.chirp import ChirpParams, downchirp


@dataclass(frozen=True)
class DechirpResult:
    """Zero-padded FFT magnitude spectrum of one dechirped symbol.

    Attributes
    ----------
    spectrum:
        Complex FFT output, length ``2^SF * zero_pad_factor``.
    params:
        The chirp parameters used.
    zero_pad_factor:
        Interpolation factor of the FFT grid.
    """

    spectrum: np.ndarray
    params: ChirpParams
    zero_pad_factor: int

    # cached_property stores into the instance __dict__ directly, which
    # sidesteps the frozen-dataclass __setattr__ guard: the spectrum is
    # immutable, so |.| and |.|^2 are computed at most once per result
    # (bin_power and peak_index_near read .power on every call).
    @cached_property
    def magnitude(self) -> np.ndarray:
        """Magnitude spectrum (computed once, then cached)."""
        return np.abs(self.spectrum)

    @cached_property
    def power(self) -> np.ndarray:
        """Power spectrum (computed once, then cached)."""
        return self.spectrum.real**2 + self.spectrum.imag**2

    @property
    def n_bins(self) -> int:
        """Number of interpolated FFT bins."""
        return self.spectrum.size

    def bin_power(self, shift: float, width_bins: float = 0.5) -> float:
        """Peak power near natural (un-interpolated) bin ``shift``.

        Searches ``shift +/- width_bins`` on the interpolated grid, which
        absorbs residual fractional offsets from timing jitter, and returns
        the maximum power found. Wraps cyclically.
        """
        zp = self.zero_pad_factor
        centre = shift * zp
        half = max(1, int(round(width_bins * zp)))
        idx = (np.arange(-half, half + 1) + int(round(centre))) % self.n_bins
        return float(np.max(self.power[idx]))

    def peak_index_near(self, shift: float, width_bins: float = 0.5) -> int:
        """Interpolated-grid index of the peak near natural bin ``shift``."""
        zp = self.zero_pad_factor
        centre = shift * zp
        half = max(1, int(round(width_bins * zp)))
        idx = (np.arange(-half, half + 1) + int(round(centre))) % self.n_bins
        return int(idx[int(np.argmax(self.power[idx]))])

    def peak_bin(self) -> float:
        """Location of the global peak, in natural-bin units (fractional)."""
        peak_index = int(np.argmax(self.magnitude))
        return peak_index / self.zero_pad_factor

class Demodulator:
    """Dechirps CSS symbols and exposes the single-FFT spectrum.

    Parameters
    ----------
    params:
        Chirp bandwidth and spreading factor.
    zero_pad_factor:
        FFT interpolation factor; the paper (following Choir) uses 10 to
        resolve one-tenth of an FFT bin.
    """

    def __init__(self, params: ChirpParams, zero_pad_factor: int = 10) -> None:
        if zero_pad_factor < 1:
            raise DecodingError("zero_pad_factor must be >= 1")
        self._params = params
        self._zero_pad_factor = int(zero_pad_factor)
        self._downchirp = downchirp(params)

    @property
    def params(self) -> ChirpParams:
        return self._params

    @property
    def zero_pad_factor(self) -> int:
        return self._zero_pad_factor

    def dechirp(self, symbol: np.ndarray) -> DechirpResult:
        """De-spread one received symbol and return its FFT spectrum.

        ``symbol`` must hold exactly ``2^SF`` critical-rate samples.
        """
        symbol = np.asarray(symbol, dtype=complex)
        n = self._params.n_samples
        if symbol.size != n:
            raise DecodingError(
                f"expected {n} samples per symbol, got {symbol.size}"
            )
        despread = symbol * self._downchirp
        padded_len = n * self._zero_pad_factor
        spectrum = np.fft.fft(despread, n=padded_len)
        return DechirpResult(
            spectrum=spectrum,
            params=self._params,
            zero_pad_factor=self._zero_pad_factor,
        )

    def classic_decode(self, symbol: np.ndarray) -> int:
        """Classic LoRa decision: the integer shift of the strongest peak.

        Used by the single-user baseline; NetScatter instead inspects all
        assigned bins (see :class:`repro.core.receiver.NetScatterReceiver`).
        """
        result = self.dechirp(symbol)
        return int(round(result.peak_bin())) % self._params.n_shifts
