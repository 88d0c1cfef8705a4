"""Unit tests for the oracle's fractional delay and CFO rotation."""

import numpy as np
import pytest

from repro.errors import ReproError
from waveform_oracle import apply_cfo, fractional_delay


class TestFractionalDelay:
    def test_integer_delay_matches_roll(self, rng):
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        delayed = fractional_delay(x, 5.0)
        assert np.allclose(delayed, np.roll(x, 5), atol=1e-9)

    def test_zero_delay_is_identity(self, rng):
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.allclose(fractional_delay(x, 0.0), x, atol=1e-12)

    def test_half_sample_preserves_energy(self, rng):
        x = rng.normal(size=128) + 1j * rng.normal(size=128)
        delayed = fractional_delay(x, 0.5)
        assert np.sum(np.abs(delayed) ** 2) == pytest.approx(
            np.sum(np.abs(x) ** 2), rel=1e-9
        )

    def test_delays_compose(self, rng):
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        once = fractional_delay(fractional_delay(x, 0.3), 0.7)
        direct = fractional_delay(x, 1.0)
        assert np.allclose(once, direct, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            fractional_delay(np.array([]), 1.0)


class TestCfo:
    def test_zero_cfo_is_identity(self, rng):
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.allclose(apply_cfo(x, 0.0, 1e6), x)

    def test_cfo_shifts_tone(self):
        fs = 1000.0
        n = 1000
        t = np.arange(n) / fs
        tone = np.exp(2j * np.pi * 100.0 * t)
        shifted = apply_cfo(tone, 50.0, fs)
        spectrum = np.abs(np.fft.fft(shifted))
        peak_hz = np.fft.fftfreq(n, 1 / fs)[np.argmax(spectrum)]
        assert peak_hz == pytest.approx(150.0, abs=1.0)

    def test_invalid_sample_rate(self):
        with pytest.raises(ReproError):
            apply_cfo(np.ones(4, dtype=complex), 10.0, 0.0)
