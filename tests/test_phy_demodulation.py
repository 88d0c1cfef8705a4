"""Unit tests for repro.phy.demodulation — dechirp + zero-padded FFT."""

import numpy as np
import pytest

import per_symbol_oracle as oracle
from repro.channel.awgn import awgn
from repro.errors import DecodingError
from repro.phy.chirp import cyclic_shifted_upchirp, upchirp
from repro.phy.demodulation import Demodulator


class TestDechirp:
    def test_peak_at_shift(self, params):
        demod = Demodulator(params)
        for shift in (0, 3, 100, 511):
            result = demod.dechirp(cyclic_shifted_upchirp(params, shift))
            assert round(oracle.peak_bin(result)) % params.n_shifts == shift

    def test_spectrum_length_includes_padding(self, params):
        demod = Demodulator(params, zero_pad_factor=10)
        result = demod.dechirp(upchirp(params))
        assert result.spectrum.size == params.n_samples * 10

    def test_fractional_peak_resolution(self, params):
        """A quarter-bin frequency offset must be resolvable on the
        interpolated grid — the sub-bin capability the paper borrows
        from Choir."""
        demod = Demodulator(params, zero_pad_factor=10)
        n = params.n_samples
        t = np.arange(n)
        tone = np.exp(2j * np.pi * (50.3) * t / n)
        symbol = tone * upchirp(params)
        result = demod.dechirp(symbol)
        assert oracle.peak_bin(result) == pytest.approx(50.3, abs=0.05)

    def test_wrong_length_rejected(self, params):
        demod = Demodulator(params)
        with pytest.raises(DecodingError):
            demod.dechirp(np.ones(100, dtype=complex))

    def test_invalid_zero_pad(self, params):
        with pytest.raises(DecodingError):
            Demodulator(params, zero_pad_factor=0)


class TestBinPower:
    def test_peak_power_at_assigned_bin(self, params):
        demod = Demodulator(params)
        result = demod.dechirp(cyclic_shifted_upchirp(params, 77))
        on = oracle.bin_power(result, 77, 0.5)
        off = oracle.bin_power(result, 200, 0.5)
        assert on > 100 * off

    def test_window_absorbs_fractional_offset(self, params):
        demod = Demodulator(params)
        n = params.n_samples
        tone = np.exp(2j * np.pi * 77.4 * np.arange(n) / n)
        result = demod.dechirp(tone * upchirp(params))
        assert oracle.bin_power(result, 77, 0.5) == pytest.approx(
            float(np.max(result.power)), rel=0.05
        )

    def test_peak_index_near_locates(self, params):
        demod = Demodulator(params, zero_pad_factor=10)
        n = params.n_samples
        tone = np.exp(2j * np.pi * 20.3 * np.arange(n) / n)
        result = demod.dechirp(tone * upchirp(params))
        located = oracle.peak_index_near(result, 20, 0.5)
        assert located == pytest.approx(203, abs=1)

    def test_power_at_index_guard(self, params):
        demod = Demodulator(params, zero_pad_factor=10)
        result = demod.dechirp(cyclic_shifted_upchirp(params, 8))
        exact = oracle.power_at_index(result, 80, guard=0)
        guarded = oracle.power_at_index(result, 79, guard=1)
        assert guarded == pytest.approx(exact)


class TestClassicDecode:
    def test_noiseless(self, params):
        demod = Demodulator(params)
        for k in (0, 1, 130, 511):
            assert oracle.classic_decode(
                demod, cyclic_shifted_upchirp(params, k)
            ) == k

    def test_below_noise_floor(self, params, rng):
        """CSS decodes below the noise floor: at -10 dB in-band SNR the
        coding gain (27 dB at SF 9) leaves 17 dB post-FFT."""
        demod = Demodulator(params)
        errors = 0
        for trial in range(50):
            k = int(rng.integers(0, params.n_shifts))
            noisy = awgn(cyclic_shifted_upchirp(params, k), -10.0, rng)
            if oracle.classic_decode(demod, noisy) != k:
                errors += 1
        assert errors <= 1

    def test_fails_far_below_sensitivity(self, params, rng):
        """At -35 dB even SF 9 cannot decode — sanity that noise is real."""
        demod = Demodulator(params)
        errors = 0
        for trial in range(20):
            k = int(rng.integers(0, params.n_shifts))
            noisy = awgn(cyclic_shifted_upchirp(params, k), -35.0, rng)
            if oracle.classic_decode(demod, noisy) != k:
                errors += 1
        assert errors > 5


class TestNoiseFloor:
    def test_excludes_peaks(self, params, rng):
        demod = Demodulator(params)
        noisy = awgn(cyclic_shifted_upchirp(params, 50), 10.0, rng)
        result = demod.dechirp(noisy)
        floor_with = oracle.noise_floor(result, exclude_bins=[50])
        peak = oracle.bin_power(result, 50, 0.5)
        assert peak > 100 * floor_with

    def test_full_exclusion_falls_back(self, params, rng):
        demod = Demodulator(params, zero_pad_factor=2)
        noisy = awgn(upchirp(params), 0.0, rng)
        result = demod.dechirp(noisy)
        # Exclude everything: the quantile fallback must still answer.
        floor = oracle.noise_floor(
            result, exclude_bins=list(range(params.n_shifts))
        )
        assert floor > 0.0
