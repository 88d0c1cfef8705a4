"""Crystal oscillator model: per-device frequency offsets and drift.

Section 2.2's key quantitative argument: a tag synthesises only a few-MHz
baseband, so the same crystal ppm error produces ~90x less absolute
frequency offset than an active 900 MHz radio. This model carries a fixed
per-part offset (crystal cut error) plus a slow random walk (temperature
drift), and reports offsets both in hertz and FFT bins. It is the data
source behind Fig. 4 and Fig. 14a. :class:`OscillatorBank` holds a whole
population of one part as columns, for the batched network simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

import numpy as np

from repro.errors import HardwareModelError
from repro.phy.chirp import ChirpParams
from repro.utils.conversions import freq_offset_to_bins
from repro.utils.rng import RngLike, make_rng


@dataclass
class CrystalOscillator:
    """A crystal with a fixed cut error and slow drift.

    Attributes
    ----------
    nominal_freq_hz:
        The synthesised output frequency (3 MHz baseband for a tag,
        900 MHz for an active radio).
    tolerance_ppm:
        Cut-error tolerance band; the per-part offset is drawn uniformly
        inside it.
    drift_ppm_std:
        Standard deviation of the slow per-measurement drift (temperature
        and ageing), in ppm.
    """

    nominal_freq_hz: float
    tolerance_ppm: float = 50.0
    drift_ppm_std: float = 2.0
    _cut_error_ppm: float = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.nominal_freq_hz <= 0:
            raise HardwareModelError("nominal frequency must be positive")
        if self.tolerance_ppm < 0 or self.drift_ppm_std < 0:
            raise HardwareModelError("ppm figures must be non-negative")

    def calibrate(self, rng: RngLike = None) -> None:
        """Draw the fixed per-part cut error."""
        generator = make_rng(rng)
        self.calibrate_from_unit(generator.uniform(-1.0, 1.0))

    def calibrate_from_unit(self, draw: float) -> None:
        """Set the cut error from a pre-drawn uniform(-1, 1) variate.

        The seam shared by :meth:`calibrate` and
        :meth:`OscillatorBank.oscillators`, so both apply the same
        tolerance scaling (and any future validation) in one place.
        """
        if not -1.0 <= draw <= 1.0:
            raise HardwareModelError("unit draw must lie in [-1, 1]")
        self._cut_error_ppm = float(draw * self.tolerance_ppm)

    @property
    def cut_error_ppm(self) -> float:
        if self._cut_error_ppm is None:
            raise HardwareModelError(
                "oscillator not calibrated; call calibrate() first"
            )
        return self._cut_error_ppm

    def offset_hz(self, rng: RngLike = None) -> float:
        """One measurement's frequency offset: cut error + drift (Hz)."""
        generator = make_rng(rng)
        drift = (
            generator.normal(scale=self.drift_ppm_std)
            if self.drift_ppm_std > 0
            else 0.0
        )
        return (self.cut_error_ppm + drift) * 1e-6 * self.nominal_freq_hz

    def offset_bins(self, params: ChirpParams, rng: RngLike = None) -> float:
        """One measurement's offset expressed in FFT bins."""
        return freq_offset_to_bins(
            self.offset_hz(rng), params.bandwidth_hz, params.spreading_factor
        )

    def offset_series_hz(self, n: int, rng: RngLike = None) -> np.ndarray:
        """``n`` repeated offset measurements (Fig. 14a's raw data)."""
        if n < 1:
            raise HardwareModelError("need at least one measurement")
        generator = make_rng(rng)
        return np.array([self.offset_hz(generator) for _ in range(n)])


@dataclass(frozen=True, eq=False)
class OscillatorBank:
    """A population of identical oscillator parts, held as columns.

    ``unit_draws`` are the per-part uniform(-1, 1) variates that set each
    part's cut error, drawn for the whole population by one
    ``Generator.uniform`` call (:meth:`calibrate`). The batched network
    simulator reads the cut error, drift and nominal frequency as
    arrays; :meth:`oscillators` materialises per-part
    :class:`CrystalOscillator` objects with the same cut errors for code
    that draws per part.
    """

    part: CrystalOscillator
    unit_draws: np.ndarray

    @classmethod
    def calibrate(
        cls, part: CrystalOscillator, n: int, rng: RngLike = None
    ) -> "OscillatorBank":
        """Draw the cut errors of ``n`` copies of ``part`` in one call."""
        draws = make_rng(rng).uniform(-1.0, 1.0, size=int(n))
        return cls(part=part, unit_draws=draws)

    @property
    def cut_error_ppm(self) -> np.ndarray:
        """Per-part fixed cut error (ppm), scaled as
        :meth:`CrystalOscillator.calibrate_from_unit` scales it."""
        return self.unit_draws * self.part.tolerance_ppm

    def offsets_hz(self, standard_normals: np.ndarray) -> np.ndarray:
        """Frequency offsets (Hz) for drift draws, one column per part.

        ``standard_normals`` scaled by the drift spread are the drift
        terms; the result is :meth:`CrystalOscillator.offset_hz` per
        part and measurement, computed as arrays.
        """
        drift_ppm = standard_normals * self.part.drift_ppm_std
        return (
            (self.cut_error_ppm + drift_ppm) * 1e-6 * self.part.nominal_freq_hz
        )

    def oscillators(self) -> List[CrystalOscillator]:
        """One calibrated :class:`CrystalOscillator` per part."""
        parts = []
        for draw in self.unit_draws:
            osc = replace(self.part)
            osc.calibrate_from_unit(draw)
            parts.append(osc)
        return parts


def tag_oscillator(
    tolerance_ppm: float = 20.0, drift_ppm_std: float = 2.0
) -> CrystalOscillator:
    """A backscatter tag's oscillator (3 MHz baseband subcarrier).

    20 ppm at 3 MHz spans +/-60 Hz of cut error with a few-Hz drift,
    matching the paper's measured +/-150 Hz envelope (Fig. 14a) with
    margin for the drift term.
    """
    from repro.constants import BACKSCATTER_BASEBAND_FREQ_HZ

    return CrystalOscillator(
        nominal_freq_hz=BACKSCATTER_BASEBAND_FREQ_HZ,
        tolerance_ppm=tolerance_ppm,
        drift_ppm_std=drift_ppm_std,
    )


def radio_oscillator(
    tolerance_ppm: float = 20.0, drift_ppm_std: float = 2.0
) -> CrystalOscillator:
    """An active LoRa radio's oscillator (900 MHz synthesis).

    The same crystal quality at 900 MHz yields offsets of many kHz —
    multiple FFT bins — which is what lets Choir tell radios apart and
    why the trick fails for backscatter (Fig. 4).
    """
    from repro.constants import RADIO_OSC_FREQ_HZ

    return CrystalOscillator(
        nominal_freq_hz=RADIO_OSC_FREQ_HZ,
        tolerance_ppm=tolerance_ppm,
        drift_ppm_std=drift_ppm_std,
    )
