"""Unit tests for the power-control policy and closed-loop simulation."""

import numpy as np
import pytest

from repro.core.power_control import (
    PowerControlPolicy,
    reciprocity_step,
    simulate_power_control,
    snr_groups,
)
from repro.errors import ConfigurationError


class TestPolicy:
    def test_defaults(self):
        policy = PowerControlPolicy()
        assert policy.levels_db == (0.0, -4.0, -10.0)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            PowerControlPolicy(levels_db=())
        with pytest.raises(ConfigurationError):
            PowerControlPolicy(hysteresis_db=-1.0)


class TestReciprocityStep:
    def test_hotter_channel_steps_down(self):
        policy = PowerControlPolicy()
        level, participate = reciprocity_step(-30.0, -26.0, 1, policy)
        assert level == 2 and participate

    def test_colder_channel_steps_up(self):
        policy = PowerControlPolicy()
        level, participate = reciprocity_step(-30.0, -34.0, 1, policy)
        assert level == 0 and participate

    def test_within_hysteresis_no_change(self):
        policy = PowerControlPolicy()
        level, participate = reciprocity_step(-30.0, -29.5, 1, policy)
        assert level == 1 and participate

    def test_exhausted_weak_side_sits_out(self):
        policy = PowerControlPolicy()
        level, participate = reciprocity_step(-30.0, -24.0, 2, policy)
        assert level == 2 and not participate

    def test_exhausted_strong_side_sits_out(self):
        policy = PowerControlPolicy()
        level, participate = reciprocity_step(-30.0, -36.0, 0, policy)
        assert level == 0 and not participate

    def test_mild_overshoot_still_participates(self):
        policy = PowerControlPolicy()
        level, participate = reciprocity_step(-30.0, -28.0, 2, policy)
        assert participate


class TestClosedLoop:
    def test_control_reduces_snr_wander_under_strong_fading(self, rng):
        """The ablation claim: power control shrinks the effective-SNR
        wander when the channel moves by more than a power step (the
        someone-stands-next-to-the-tag regime the 3-level adjustment is
        designed for; with 4-6 dB steps it cannot — and should not —
        chase sub-step fading)."""
        snrs = list(np.linspace(0.0, 20.0, 16))
        on = simulate_power_control(
            snrs, n_rounds=300, enabled=True, fading_std_db=6.0, rng=1
        )
        off = simulate_power_control(
            snrs, n_rounds=300, enabled=False, fading_std_db=6.0, rng=1
        )
        # Per-device deviation from its own mean is what control fixes.
        def wander(result):
            eff = result["effective_snr_db"]
            return float(np.mean(np.std(eff, axis=0)))

        assert wander(on) < wander(off)

    def test_disabled_control_keeps_levels(self, rng):
        result = simulate_power_control(
            [10.0, 20.0], n_rounds=50, enabled=False, rng=rng
        )
        assert np.all(result["final_levels"] == 1)

    def test_participation_mask_shape(self, rng):
        result = simulate_power_control(
            [10.0] * 4, n_rounds=25, rng=rng
        )
        assert result["participating"].shape == (25, 4)

    def test_empty_population_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            simulate_power_control([], n_rounds=10, rng=rng)


class TestSnrGroups:
    def test_single_group_within_span(self):
        groups = snr_groups([0.0, 10.0, 20.0], group_span_db=35.0)
        assert len(groups) == 1
        assert sorted(groups[0]) == [0, 1, 2]

    def test_splits_beyond_span(self):
        groups = snr_groups([0.0, 50.0], group_span_db=35.0)
        assert len(groups) == 2

    def test_groups_ordered_by_snr(self):
        groups = snr_groups([0.0, 50.0, 49.0, 1.0], group_span_db=10.0)
        assert len(groups) == 2
        assert set(groups[0]) == {1, 2}
        assert set(groups[1]) == {0, 3}

    def test_every_device_grouped(self, rng):
        snrs = rng.uniform(-20, 60, size=50).tolist()
        groups = snr_groups(snrs, group_span_db=20.0)
        allocated = [i for g in groups for i in g]
        assert sorted(allocated) == list(range(50))

    def test_invalid_span(self):
        with pytest.raises(ConfigurationError):
            snr_groups([0.0], group_span_db=0.0)
