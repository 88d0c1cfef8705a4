"""Unit tests for repro.utils.stats."""

import pytest

from repro.errors import ReproError
from repro.utils.stats import (
    ber_estimate,
    cdf_at,
)


class TestCdfAt:
    def test_median(self):
        assert cdf_at([1, 2, 3, 4], 2.5) == pytest.approx(0.5)

    def test_below_all(self):
        assert cdf_at([1, 2, 3], 0.0) == 0.0

    def test_above_all(self):
        assert cdf_at([1, 2, 3], 10.0) == 1.0


class TestBerEstimate:
    def test_point_estimate(self):
        est = ber_estimate(10, 1000)
        assert est.ber == pytest.approx(0.01)

    def test_interval_contains_estimate(self):
        est = ber_estimate(10, 1000)
        assert est.ci_low <= est.ber <= est.ci_high

    def test_zero_errors_has_positive_upper(self):
        est = ber_estimate(0, 10000)
        assert est.ber == 0.0
        assert est.ci_high > 0.0

    def test_interval_shrinks_with_trials(self):
        narrow = ber_estimate(100, 100000)
        wide = ber_estimate(1, 1000)
        assert (narrow.ci_high - narrow.ci_low) < (wide.ci_high - wide.ci_low)

    def test_invalid_inputs(self):
        with pytest.raises(ReproError):
            ber_estimate(5, 0)
        with pytest.raises(ReproError):
            ber_estimate(11, 10)
        with pytest.raises(ReproError):
            ber_estimate(-1, 10)

    def test_str_mentions_counts(self):
        assert "10/1000" in str(ber_estimate(10, 1000))
