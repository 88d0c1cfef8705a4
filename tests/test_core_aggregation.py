"""Unit tests for bandwidth aggregation (Fig. 5)."""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.core.aggregation import AggregateBand, compare_receiver_costs
from repro.errors import ConfigurationError, DecodingError


@pytest.fixture
def band(small_params):
    return AggregateBand(chirp_params=small_params, aggregation_factor=2)


class TestGeometry:
    def test_slot_count_doubles(self, band, small_params):
        assert band.n_slots == 2 * small_params.n_samples

    def test_sample_rate(self, band, small_params):
        assert band.sample_rate_hz == 2 * small_params.bandwidth_hz

    def test_invalid_factor(self, small_params):
        with pytest.raises(ConfigurationError):
            AggregateBand(small_params, aggregation_factor=0)


class TestWaveforms:
    def test_slot_zero_is_base_chirp(self, band):
        assert np.allclose(band.slot_waveform(0), band.base_chirp())

    def test_slot_out_of_range(self, band):
        with pytest.raises(ConfigurationError):
            band.slot_waveform(band.n_slots)

    def test_each_slot_decodes_to_own_bin(self, band):
        for slot in (0, 1, 63, 64, 100, band.n_slots - 1):
            spectrum = np.abs(band.dechirp(band.slot_waveform(slot)))
            assert int(np.argmax(spectrum)) == slot

    def test_alias_behaviour(self, band):
        """Slots in the upper half wrap past the band edge mid-symbol
        (Fig. 5) yet still land in their own FFT bin — the aliasing the
        paper exploits to avoid per-band filters."""
        upper_slot = band.n_slots - 5
        spectrum = np.abs(band.dechirp(band.slot_waveform(upper_slot)))
        assert int(np.argmax(spectrum)) == upper_slot


class TestConcurrentDecode:
    def test_multiple_slots_single_fft(self, band, rng):
        active = [3, 64, 90, 120]
        symbol = band.compose_symbol(active, rng=rng)
        decoded = band.decode_slots(symbol, threshold_ratio=0.3)
        assert set(decoded) == set(active)

    def test_with_noise(self, band, rng):
        active = [10, 70]
        symbol = awgn(band.compose_symbol(active, rng=rng), 0.0, rng)
        decoded = band.decode_slots(symbol, threshold_ratio=0.3)
        assert set(active) <= set(decoded)

    def test_devices_across_subbands(self, band, rng):
        """One device per sub-band, decoded together with one FFT."""
        groups = band.slots_by_subband()
        assert len(groups) == 2
        active = [groups[0][5], groups[1][5]]
        symbol = band.compose_symbol(active, rng=rng)
        assert set(band.decode_slots(symbol, 0.3)) == set(active)

    def test_gain_alignment_validated(self, band, rng):
        with pytest.raises(ConfigurationError):
            band.compose_symbol([1, 2], gains_db=[0.0], rng=rng)

    def test_dechirp_length_validated(self, band):
        with pytest.raises(DecodingError):
            band.dechirp(np.ones(10, dtype=complex))


class TestReceiverCost:
    def test_aggregate_slightly_costlier_fft_but_no_filters(self, band):
        costs = compare_receiver_costs(band)
        # One m*N-point FFT costs a bit more than m N-point FFTs in pure
        # FFT work, but saves the band-split filters entirely; the ratio
        # must stay close to 1 (log factor).
        assert 1.0 <= costs["aggregate_over_filtered"] < 1.5

    def test_factor_one_equal(self, small_params):
        band = AggregateBand(small_params, aggregation_factor=1)
        costs = compare_receiver_costs(band)
        assert costs["aggregate_over_filtered"] == pytest.approx(1.0)
