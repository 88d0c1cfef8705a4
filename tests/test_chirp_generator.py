"""Tests for the quantised phase-accumulator chirp generator."""

import numpy as np
import pytest

from chirp_generator_oracle import ChirpGenerator, decode_through_generator
from repro.errors import HardwareModelError


class TestChirpGenerator:
    def test_square_wave_is_one_bit(self, params):
        generator = ChirpGenerator(params=params)
        wave = generator.square_wave_iq()
        assert set(np.unique(wave.real)) <= {-1.0, 0.0, 1.0}
        assert set(np.unique(wave.imag)) <= {-1.0, 0.0, 1.0}

    def test_every_shift_decodes(self, small_params):
        for shift in range(0, small_params.n_shifts, 7):
            assert decode_through_generator(small_params, shift) == shift

    def test_deployment_config_decodes(self, params):
        for shift in (0, 1, 255, 256, 511):
            assert decode_through_generator(params, shift) == shift

    def test_fidelity_near_square_wave_limit(self, params):
        """The 1-bit synthesis must correlate within ~2 dB of ideal —
        the margin that justifies the ideal-chirp model elsewhere."""
        generator = ChirpGenerator(params=params)
        for shift in (0, 100, 300):
            assert generator.fidelity_db(shift) > -2.0

    def test_more_accumulator_bits_not_worse(self, small_params):
        coarse = ChirpGenerator(params=small_params, acc_bits=8)
        fine = ChirpGenerator(params=small_params, acc_bits=24)
        assert fine.fidelity_db(5) >= coarse.fidelity_db(5) - 0.5

    def test_harmonic_levels(self, params):
        levels = ChirpGenerator(params=params).harmonic_levels_db()
        assert levels[3] == pytest.approx(-9.54, abs=0.05)
        assert levels[5] == pytest.approx(-13.98, abs=0.05)
        assert levels[5] < levels[3]

    def test_phase_track_monotone_modulo(self, small_params):
        generator = ChirpGenerator(params=small_params)
        phase = generator.phase_track()
        assert phase.size == small_params.n_samples * 8
        assert np.all(phase >= 0.0)
        assert np.all(phase < 2.0 * np.pi)

    def test_invalid_params(self, params):
        with pytest.raises(HardwareModelError):
            ChirpGenerator(params=params, acc_bits=2)
        with pytest.raises(HardwareModelError):
            ChirpGenerator(params=params, clock_multiplier=0)
