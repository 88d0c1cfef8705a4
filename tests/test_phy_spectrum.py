"""Unit tests for repro.phy.spectrum — side lobes, PSD, instantaneous frequency."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.chirp import oversampled_upchirp, upchirp
from repro.phy.spectrum import (
    dirichlet_side_lobe_db,
    instantaneous_frequency,
    power_spectral_density,
    side_lobe_profile,
)


class TestSideLobeProfile:
    def test_peak_at_zero(self, params):
        profile = side_lobe_profile(params)
        assert profile.power_db[0] == pytest.approx(0.0)

    def test_first_lobe_minus_13db(self, params):
        """Paper Fig. 8: first side lobe (SKIP=2 annotation) ~ -13 dB."""
        profile = side_lobe_profile(params)
        lobe = profile.worst_in_range(1.0, 2.0)
        assert lobe == pytest.approx(-13.3, abs=0.5)

    def test_third_lobe_minus_21db(self, params):
        """Paper Fig. 8: third side lobe (SKIP=3 annotation) ~ -21 dB."""
        profile = side_lobe_profile(params)
        lobe = profile.worst_in_range(3.0, 4.0)
        assert lobe == pytest.approx(-20.8, abs=0.5)

    def test_matches_analytic_dirichlet(self, params):
        profile = side_lobe_profile(params)
        # Half-integer offsets sit on lobe peaks; integer offsets are
        # numerical nulls where both forms underflow differently.
        for offset in (1.5, 2.5, 3.5, 10.5):
            assert profile.at_natural_bin(offset) == pytest.approx(
                dirichlet_side_lobe_db(offset, params.n_samples), abs=0.3
            )

    def test_worst_beyond_decreases(self, params):
        profile = side_lobe_profile(params)
        assert (
            profile.worst_side_lobe_beyond(1.1)
            > profile.worst_side_lobe_beyond(4.0)
            > profile.worst_side_lobe_beyond(32.0)
        )

    def test_range_validation(self, params):
        profile = side_lobe_profile(params)
        with pytest.raises(ConfigurationError):
            profile.worst_in_range(2.0, 1.0)


class TestDirichlet:
    def test_zero_offset_is_peak(self):
        assert dirichlet_side_lobe_db(0.0, 512) == 0.0

    def test_integer_offsets_are_nulls(self):
        assert dirichlet_side_lobe_db(5.0, 512) < -200.0

    def test_first_lobe_level(self):
        # First sinc lobe at ~1.43 bins: -13.3 dB.
        assert dirichlet_side_lobe_db(1.43, 512) == pytest.approx(
            -13.3, abs=0.2
        )


class TestPsd:
    def test_tone_peak_location(self):
        fs = 1000.0
        t = np.arange(4096) / fs
        tone = np.exp(2j * np.pi * 100.0 * t)
        freqs, psd_db = power_spectral_density(tone, fs, nfft=512)
        assert freqs[np.argmax(psd_db)] == pytest.approx(100.0, abs=5.0)

    def test_chirp_fills_band(self, params):
        signal = np.tile(oversampled_upchirp(params, 2), 8)
        freqs, psd_db = power_spectral_density(
            signal, 2 * params.bandwidth_hz, nfft=256
        )
        in_band = (freqs >= 0) & (freqs <= params.bandwidth_hz)
        out_band = freqs < -0.25 * params.bandwidth_hz
        assert np.median(psd_db[in_band]) > np.median(psd_db[out_band]) + 10


class TestInstantaneousFrequency:
    def test_constant_tone(self):
        fs = 1000.0
        t = np.arange(256) / fs
        tone = np.exp(2j * np.pi * 110.0 * t)
        freq = instantaneous_frequency(tone, fs)
        assert np.median(freq) == pytest.approx(110.0, abs=1.0)

    def test_chirp_sweeps_linearly(self, params):
        track = instantaneous_frequency(
            np.asarray(upchirp(params)), params.bandwidth_hz
        )
        # Discard the wrap region; the ramp must be increasing.
        mid = track[10 : params.n_samples // 2]
        assert np.all(np.diff(mid) > -1.0)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            instantaneous_frequency(np.ones(1, dtype=complex), 1e6)
