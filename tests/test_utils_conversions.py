"""Unit tests for repro.utils.conversions."""

import pytest

from repro.errors import LinkBudgetError
from repro.utils.conversions import (
    amplitude_from_db,
    db_to_linear,
    doppler_shift_hz,
    freq_offset_to_bins,
    timing_offset_to_bins,
)


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_ten_db_is_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_matches_definition(self):
        for value_db in (-60.0, -3.0, 0.0, 16.2, 42.0):
            assert db_to_linear(value_db) == pytest.approx(10.0 ** (value_db / 10.0))

    def test_negative_db(self):
        assert db_to_linear(-30.0) == pytest.approx(1e-3)


class TestAmplitude:
    def test_zero_db(self):
        assert amplitude_from_db(0.0) == pytest.approx(1.0)

    def test_minus_20_db(self):
        assert amplitude_from_db(-20.0) == pytest.approx(0.1)

    def test_power_consistency(self):
        amp = amplitude_from_db(-7.0)
        assert amp**2 == pytest.approx(db_to_linear(-7.0))


class TestBinOffsets:
    def test_timing_paper_example(self):
        # 2 us at 500 kHz is exactly one FFT bin (Table 1).
        assert timing_offset_to_bins(2e-6, 500e3) == pytest.approx(1.0)

    def test_timing_scales_with_bandwidth(self):
        assert timing_offset_to_bins(3.3e-6, 250e3) == pytest.approx(3.3e-6 * 250e3)

    def test_freq_paper_example(self):
        # 976 Hz at (500 kHz, SF 9) is one bin (Table 1).
        assert freq_offset_to_bins(976.5625, 500e3, 9) == pytest.approx(1.0)

    def test_freq_in_bin_spacings(self):
        assert freq_offset_to_bins(123.4, 125e3, 7) == pytest.approx(123.4 / (125e3 / 2**7))

    def test_timing_rejects_bad_bandwidth(self):
        with pytest.raises(LinkBudgetError):
            timing_offset_to_bins(1e-6, 0.0)

    def test_freq_rejects_bad_sf(self):
        with pytest.raises(LinkBudgetError):
            freq_offset_to_bins(100.0, 500e3, 0)


class TestDoppler:
    def test_paper_example(self):
        # 10 m/s at 900 MHz -> 30 Hz (Section 4.2).
        assert doppler_shift_hz(10.0, 900e6) == pytest.approx(30.0)

    def test_zero_speed(self):
        assert doppler_shift_hz(0.0, 900e6) == 0.0

    def test_negative_speed_rejected(self):
        with pytest.raises(LinkBudgetError):
            doppler_shift_hz(-1.0, 900e6)
