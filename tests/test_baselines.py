"""Unit tests for the comparison baselines."""

import numpy as np
import pytest

from repro.baselines.choir import (
    choir_distinct_fraction_probability,
    choir_same_shift_collision_probability,
)
from repro.baselines.lora_backscatter import LoRaBackscatterNetwork
from repro.baselines.rate_adaptation import (
    best_choice,
    feasible_choices,
)
from repro.baselines.sf_pairs import (
    slope_distinct_pairs,
    usable_concurrent_pairs,
    verify_pairwise_distinct_slopes,
)
from repro.errors import ConfigurationError


class TestChoirAnalytics:
    def test_distinct_fraction_paper_value(self):
        """Section 2.2: only ~30% at N = 5."""
        assert choir_distinct_fraction_probability(5) == pytest.approx(
            0.302, abs=0.001
        )

    def test_distinct_fraction_impossible_beyond_resolution(self):
        assert choir_distinct_fraction_probability(11) == 0.0

    def test_collision_paper_values(self):
        """~9% at N = 10 and ~32% at N = 20 (SF 9)."""
        assert choir_same_shift_collision_probability(
            10, 9
        ) == pytest.approx(0.085, abs=0.005)
        assert choir_same_shift_collision_probability(
            20, 9
        ) == pytest.approx(0.31, abs=0.01)

    def test_approximation_close_to_exact(self):
        exact = choir_same_shift_collision_probability(10, 9, exact=True)
        approx = choir_same_shift_collision_probability(10, 9, exact=False)
        assert approx == pytest.approx(exact, rel=0.05)

    def test_certain_collision_beyond_shifts(self):
        assert choir_same_shift_collision_probability(100, 6) == 1.0


class TestRateAdaptation:
    def test_strong_device_caps_at_32kbps(self):
        assert best_choice(20.0).bitrate_bps == pytest.approx(32000.0)

    def test_weak_device_gets_low_rate(self):
        rate = best_choice(-18.0).bitrate_bps
        assert 0 < rate < 8000.0

    def test_monotone_in_snr(self):
        rates = [best_choice(snr).bitrate_bps for snr in (-20, -15, -10, -5, 0)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_feasible_choices_meet_snr(self):
        for choice in feasible_choices(-10.0):
            assert choice.required_snr_db is not None

    def test_best_choice_none_out_of_range(self):
        assert best_choice(-60.0) is None


class TestLoRaBackscatter:
    def test_fixed_rate_network_phy_rate(self):
        """All devices at 8.7 kbps: the network PHY rate is 8.7 kbps
        regardless of device count (TDMA, Fig. 17's flat line)."""
        for n in (1, 10, 100):
            network = LoRaBackscatterNetwork([10.0] * n)
            assert network.network_phy_rate_bps() == pytest.approx(8.7e3)

    def test_latency_linear_in_devices(self):
        snrs = [10.0] * 50
        half = LoRaBackscatterNetwork(snrs[:25]).network_latency_s()
        full = LoRaBackscatterNetwork(snrs).network_latency_s()
        assert full == pytest.approx(2 * half, rel=1e-9)

    def test_rate_adaptation_beats_fixed(self):
        snrs = list(np.linspace(0.0, 40.0, 32))
        fixed = LoRaBackscatterNetwork(snrs, rate_adaptation=False)
        adaptive = LoRaBackscatterNetwork(snrs, rate_adaptation=True)
        assert (
            adaptive.network_phy_rate_bps() > fixed.network_phy_rate_bps()
        )
        assert adaptive.network_latency_s() < fixed.network_latency_s()

    def test_link_layer_below_phy_rate(self):
        network = LoRaBackscatterNetwork([10.0] * 8)
        assert network.link_layer_rate_bps() < network.network_phy_rate_bps()

    def test_paper_256_latency_ballpark(self):
        """Fig. 19: ~3.3 s to poll 256 devices at fixed 8.7 kbps."""
        network = LoRaBackscatterNetwork([10.0] * 256)
        assert network.network_latency_s() == pytest.approx(3.3, abs=0.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            LoRaBackscatterNetwork([])


class TestSfPairs:
    def test_paper_counts(self):
        assert len(slope_distinct_pairs()) == 19
        assert len(usable_concurrent_pairs()) == 8

    def test_slopes_distinct(self):
        assert verify_pairwise_distinct_slopes(slope_distinct_pairs())
        assert verify_pairwise_distinct_slopes(usable_concurrent_pairs())

    def test_usable_meet_constraints(self):
        for pair in usable_concurrent_pairs():
            assert pair.sensitivity_dbm <= -123.0
            assert pair.bitrate_bps >= 1000.0

    def test_ceiling_far_below_netscatter(self):
        """8 concurrent configurations vs NetScatter's 256 devices."""
        assert len(usable_concurrent_pairs()) == 8
        assert 256 / len(usable_concurrent_pairs()) == 32

    def test_known_slope_collision_excluded(self):
        """(500 kHz, SF 8) and (250 kHz, SF 6) share a slope — only one
        can appear in the distinct set."""
        pairs = slope_distinct_pairs()
        keys = {(p.bandwidth_hz, p.spreading_factor) for p in pairs}
        assert not (
            (500e3, 8) in keys and (250e3, 6) in keys
        )
