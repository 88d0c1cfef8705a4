"""Unit tests for repro.phy.chirp — the CSS symbol algebra."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.chirp import (
    ChirpParams,
    cyclic_shifted_upchirp,
    downchirp,
    oversampled_upchirp,
    upchirp,
)
from waveform_oracle import cyclic_shifted_downchirp


class TestChirpParams:
    def test_n_samples(self, params):
        assert params.n_samples == 512

    def test_symbol_duration(self, params):
        # 512 / 500 kHz = 1.024 ms
        assert params.symbol_duration_s == pytest.approx(1.024e-3)

    def test_symbol_rate_is_device_bitrate(self, params):
        # The paper's ~1 kbps (976 bps) per-device OOK bitrate.
        assert params.symbol_rate_hz == pytest.approx(976.5625)

    def test_lora_bitrate(self, params):
        # Classic CSS: SF * BW / 2^SF = 8789 bps at (500 kHz, SF 9).
        assert params.lora_bitrate_bps == pytest.approx(8789.0625)

    def test_bin_spacing(self, params):
        assert params.bin_spacing_hz == pytest.approx(976.5625)

    def test_slope_identity(self):
        # (500 kHz, SF 8) and (250 kHz, SF 6) share a slope (Section 2.2).
        a = ChirpParams(500e3, 8).chirp_slope_hz_per_s
        b = ChirpParams(250e3, 6).chirp_slope_hz_per_s
        assert a == pytest.approx(b)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            ChirpParams(bandwidth_hz=0.0, spreading_factor=9)

    def test_invalid_sf(self):
        with pytest.raises(ConfigurationError):
            ChirpParams(bandwidth_hz=500e3, spreading_factor=0)
        with pytest.raises(ConfigurationError):
            ChirpParams(bandwidth_hz=500e3, spreading_factor=17)

    def test_sample_times(self, params):
        t = params.sample_times()
        assert t.size == params.n_samples
        assert t[1] - t[0] == pytest.approx(1.0 / params.bandwidth_hz)


class TestChirpWaveforms:
    def test_unit_modulus(self, params):
        assert np.allclose(np.abs(upchirp(params)), 1.0)

    def test_downchirp_is_conjugate(self, params):
        assert np.allclose(downchirp(params), np.conjugate(upchirp(params)))

    def test_dechirp_of_base_is_dc(self, params):
        despread = upchirp(params) * downchirp(params)
        assert np.allclose(despread, np.ones(params.n_samples))

    def test_cached_chirp_is_readonly(self, params):
        chirp = upchirp(params)
        with pytest.raises((ValueError, RuntimeError)):
            chirp[0] = 0.0

    def test_cyclic_shift_is_frequency_shift(self, params):
        """The central CSS identity: shift k dechirps to a clean tone at
        bin k with no wrap discontinuity (N is a power of two)."""
        n = params.n_samples
        for k in (1, 7, 255, 256, 511):
            despread = cyclic_shifted_upchirp(params, k) * downchirp(params)
            spectrum = np.abs(np.fft.fft(despread))
            assert np.argmax(spectrum) == k
            # The tone must be pure: all energy in one bin.
            assert spectrum[k] == pytest.approx(n, rel=1e-9)

    def test_shift_zero_is_base(self, params):
        assert np.array_equal(
            cyclic_shifted_upchirp(params, 0), upchirp(params)
        )

    def test_shift_wraps_modulo(self, params):
        n = params.n_samples
        assert np.allclose(
            cyclic_shifted_upchirp(params, 5),
            cyclic_shifted_upchirp(params, 5 + n),
        )

    def test_negative_shift(self, params):
        n = params.n_samples
        assert np.allclose(
            cyclic_shifted_upchirp(params, -1),
            cyclic_shifted_upchirp(params, n - 1),
        )

    def test_shifted_downchirp_conjugate_pair(self, params):
        k = 42
        up = cyclic_shifted_upchirp(params, k)
        down = cyclic_shifted_downchirp(params, k)
        assert np.allclose(down, np.conjugate(up))

    def test_orthogonality_of_shifts(self, params):
        """Different cyclic shifts are orthogonal after dechirping —
        the CDMA-view of distributed CSS (Section 3.1)."""
        a = cyclic_shifted_upchirp(params, 10)
        b = cyclic_shifted_upchirp(params, 20)
        inner = np.vdot(a, b)
        assert abs(inner) < 1e-6 * params.n_samples


class TestOversampledChirp:
    def test_length(self, params):
        assert oversampled_upchirp(params, 4).size == 4 * params.n_samples

    def test_decimates_to_critical(self, params):
        over = oversampled_upchirp(params, 4, shift=17)
        critical = over[::4]
        expected = cyclic_shifted_upchirp(params, 17)
        assert np.allclose(critical, expected, atol=1e-9)

    def test_invalid_oversampling(self, params):
        with pytest.raises(ConfigurationError):
            oversampled_upchirp(params, 0)

    def test_unit_modulus(self, params):
        assert np.allclose(np.abs(oversampled_upchirp(params, 2)), 1.0)
