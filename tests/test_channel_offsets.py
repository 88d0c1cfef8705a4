"""Unit tests for repro.channel.offsets — Doppler."""

import pytest

from repro.channel.offsets import doppler_bin_shift


class TestDoppler:
    def test_paper_example(self, params):
        """10 m/s at 900 MHz: 30 Hz << 976 Hz bin spacing."""
        shift = doppler_bin_shift(10.0, params)
        assert shift == pytest.approx(30.0 / 976.5625, rel=0.01)
        assert shift < 0.05

    def test_static_no_shift(self, params):
        assert doppler_bin_shift(0.0, params) == 0.0
