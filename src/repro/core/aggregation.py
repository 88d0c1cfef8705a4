"""Bandwidth aggregation (Section 3.1, Fig. 5).

To double both the device count and keep per-device bitrate, NetScatter
doubles the *total* band to ``2 x BW`` while each device keeps its chirp
bandwidth ``BW`` and spreading factor: devices park at initial frequency
offsets across the aggregate band, and when a chirp sweeps past the top
edge it aliases down (automatic in sampled complex baseband). The AP then
needs only one dechirp and one ``2 * 2^SF``-point FFT — cheaper than two
filtered sub-bands with separate FFTs.

This module generalises to an ``m``-fold aggregate band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError, DecodingError
from repro.phy.chirp import ChirpParams
from repro.utils.conversions import amplitude_from_db
from repro.utils.rng import RngLike, make_rng


@dataclass(frozen=True)
class AggregateBand:
    """An ``m x BW`` aggregate band hosting ``m * 2^SF`` offset slots."""

    chirp_params: ChirpParams
    aggregation_factor: int = 2

    def __post_init__(self) -> None:
        if self.aggregation_factor < 1:
            raise ConfigurationError("aggregation factor must be >= 1")

    @property
    def total_bandwidth_hz(self) -> float:
        return self.chirp_params.bandwidth_hz * self.aggregation_factor

    @property
    def sample_rate_hz(self) -> float:
        """The AP samples the full aggregate band."""
        return self.total_bandwidth_hz

    @property
    def n_samples(self) -> int:
        """Samples per symbol at the aggregate rate: ``m * 2^SF``."""
        return self.chirp_params.n_samples * self.aggregation_factor

    @property
    def n_slots(self) -> int:
        """Distinguishable frequency slots: ``m * 2^SF``."""
        return self.n_samples

    def base_chirp(self) -> np.ndarray:
        """The shared chirp rendered at the aggregate sample rate.

        Same slope ``BW^2 / 2^SF`` as the single-band chirp, evaluated on
        the ``m``-times finer time grid over one symbol duration.
        """
        m = self.aggregation_factor
        n_base = self.chirp_params.n_samples
        n = np.arange(self.n_samples, dtype=float) / m
        return np.exp(1j * np.pi * n**2 / n_base)

    def slot_waveform(self, slot: int) -> np.ndarray:
        """Device waveform for frequency slot ``slot``.

        The chirp shifted by ``slot`` bin spacings; sweeps past the band
        edge alias down automatically in complex baseband sampling.
        """
        if not 0 <= int(slot) < self.n_slots:
            raise ConfigurationError(
                f"slot must be in [0, {self.n_slots}), got {slot}"
            )
        t = np.arange(self.n_samples)
        tone = np.exp(2j * np.pi * int(slot) * t / self.n_samples)
        return self.base_chirp() * tone

    def compose_symbol(
        self,
        active_slots: Sequence[int],
        gains_db: Sequence[float] = None,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Sum of the active devices' slot waveforms with random phases."""
        if gains_db is None:
            gains_db = [0.0] * len(active_slots)
        if len(gains_db) != len(active_slots):
            raise ConfigurationError("gains and slots must align")
        generator = make_rng(rng)
        total = np.zeros(self.n_samples, dtype=complex)
        for slot, gain in zip(active_slots, gains_db):
            phase = float(generator.uniform(0.0, 2.0 * np.pi))
            total += (
                amplitude_from_db(gain)
                * np.exp(1j * phase)
                * self.slot_waveform(slot)
            )
        return total

    def dechirp(self, symbol: np.ndarray) -> np.ndarray:
        """Single dechirp + ``m * 2^SF``-point FFT over the aggregate band."""
        symbol = np.asarray(symbol, dtype=complex)
        if symbol.size != self.n_samples:
            raise DecodingError(
                f"expected {self.n_samples} samples, got {symbol.size}"
            )
        despread = symbol * np.conjugate(self.base_chirp())
        return np.fft.fft(despread)

    def decode_slots(
        self, symbol: np.ndarray, threshold_ratio: float = 0.5
    ) -> List[int]:
        """Active slots detected in one aggregate symbol.

        A slot is active when its bin power exceeds ``threshold_ratio``
        times the strongest bin — adequate for the equal-power validation
        scenario; the full near-far machinery runs per sub-band.
        """
        spectrum = np.abs(self.dechirp(symbol)) ** 2
        peak = float(spectrum.max())
        if peak <= 0:
            return []
        return [
            int(i)
            for i in np.flatnonzero(spectrum >= threshold_ratio * peak)
        ]

    def slots_by_subband(self) -> Dict[int, List[int]]:
        """Slots grouped by which ``BW`` sub-band their start frequency
        falls in (the filtered-bands alternative's view)."""
        n_base = self.chirp_params.n_samples
        groups: Dict[int, List[int]] = {}
        for slot in range(self.n_slots):
            groups.setdefault(slot // n_base, []).append(slot)
        return groups


def required_aggregation_factor(n_devices: int, max_devices_per_band: int) -> int:
    """Smallest aggregate-band factor ``m`` that seats ``n_devices``.

    Each ``BW``-wide sub-band seats ``max_devices_per_band`` concurrent
    devices (``NetScatterConfig.max_devices``); an ``m``-fold aggregate
    band seats ``m`` times that. This is the Section 3.1 scaling knob
    the population layer sizes AP-clusters with.

    >>> required_aggregation_factor(256, 256)
    1
    >>> required_aggregation_factor(100_000, 256)
    391
    """
    if n_devices < 1:
        raise ConfigurationError("need at least one device")
    if max_devices_per_band < 1:
        raise ConfigurationError("per-band capacity must be positive")
    return -(-int(n_devices) // int(max_devices_per_band))


def compare_receiver_costs(band: AggregateBand) -> Dict[str, float]:
    """FFT-work comparison: one aggregate FFT vs per-sub-band FFTs.

    Cost model is ``n log2 n`` per FFT. The aggregate approach also skips
    the band-split filters, which this model does not even charge for.
    """
    m = band.aggregation_factor
    n_base = band.chirp_params.n_samples
    aggregate_cost = band.n_samples * np.log2(band.n_samples)
    filtered_cost = m * n_base * np.log2(n_base)
    return {
        "aggregate_fft_cost": float(aggregate_cost),
        "filtered_fft_cost": float(filtered_cost),
        "aggregate_over_filtered": float(aggregate_cost / filtered_cost),
    }
