"""Unit tests for repro.channel.awgn — noise and SNR accounting."""

import numpy as np
import pytest

from repro.channel.awgn import awgn, noise_power_dbm, snr_from_rssi_db
from repro.errors import LinkBudgetError


class TestAwgn:
    def test_realised_snr(self, rng):
        signal = np.ones(200000, dtype=complex)
        noisy = awgn(signal, 10.0, rng)
        noise = noisy - signal
        measured = 10 * np.log10(1.0 / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(10.0, abs=0.1)

    def test_noise_level_independent_of_signal_content(self, rng):
        """OOK '0' symbols are silent but the channel noise must not
        change: the reference is signal_power, not measured power."""
        silent = np.zeros(100000, dtype=complex)
        noisy = awgn(silent, 0.0, rng, signal_power=1.0)
        assert np.mean(np.abs(noisy) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_complex_noise_is_circular(self, rng):
        noisy = awgn(np.zeros(100000, dtype=complex), 0.0, rng)
        real_var = np.var(noisy.real)
        imag_var = np.var(noisy.imag)
        assert real_var == pytest.approx(imag_var, rel=0.05)

    def test_invalid_signal_power(self, rng):
        with pytest.raises(LinkBudgetError):
            awgn(np.ones(4, dtype=complex), 0.0, rng, signal_power=0.0)

    def test_preserves_shape(self, rng):
        signal = np.ones((3, 16), dtype=complex)
        assert awgn(signal, 0.0, rng).shape == (3, 16)


class TestNoisePower:
    def test_500khz_floor(self):
        # -174 + 10log10(500e3) + 6 = -111 dBm.
        assert noise_power_dbm(500e3) == pytest.approx(-111.0, abs=0.1)

    def test_narrower_band_is_quieter(self):
        assert noise_power_dbm(125e3) < noise_power_dbm(500e3)

    def test_invalid_bandwidth(self):
        with pytest.raises(LinkBudgetError):
            noise_power_dbm(0.0)


class TestRssiSnr:
    def test_sensitivity_level_snr(self):
        # A signal at -111 dBm over 500 kHz sits exactly at 0 dB SNR.
        assert snr_from_rssi_db(-111.0, 500e3) == pytest.approx(0.0, abs=0.1)
