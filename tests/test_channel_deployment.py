"""Unit tests for repro.channel.deployment and link budget."""

import numpy as np
import pytest

from repro.channel.deployment import generate_office_deployment, paper_deployment
from repro.channel.link import LinkBudget
from repro.errors import ReproError


class TestLinkBudget:
    def test_uplink_pays_double_path_loss(self):
        budget = LinkBudget()
        down_10 = budget.downlink_rssi_dbm(10.0)
        down_20 = budget.downlink_rssi_dbm(20.0)
        up_10 = budget.uplink_rssi_dbm(10.0)
        up_20 = budget.uplink_rssi_dbm(20.0)
        one_way_drop = down_10 - down_20
        two_way_drop = up_10 - up_20
        assert two_way_drop == pytest.approx(2 * one_way_drop)

    def test_tag_power_gain_shifts_uplink(self):
        budget = LinkBudget()
        full = budget.uplink_rssi_dbm(10.0, tag_power_gain_db=0.0)
        reduced = budget.uplink_rssi_dbm(10.0, tag_power_gain_db=-10.0)
        assert full - reduced == pytest.approx(10.0)

    def test_walls_reduce_both_directions(self):
        budget = LinkBudget()
        assert budget.uplink_snr_db(10.0, n_walls=2) < budget.uplink_snr_db(
            10.0, n_walls=0
        )


class TestDeploymentGeneration:
    def test_device_count(self, rng):
        deployment = generate_office_deployment(n_devices=32, rng=rng)
        assert deployment.n_devices == 32

    def test_devices_inside_floor(self, rng):
        deployment = generate_office_deployment(
            n_devices=64, floor_size_m=(40.0, 20.0), rng=rng
        )
        for device in deployment.devices:
            x, y = device.position_m
            assert 0.0 <= x <= 40.0
            assert 0.0 <= y <= 20.0

    def test_min_distance_respected(self, rng):
        deployment = generate_office_deployment(
            n_devices=64, rng=rng, min_distance_m=4.0
        )
        assert all(d.distance_m >= 4.0 for d in deployment.devices)

    def test_snr_decreases_with_distance(self, rng):
        deployment = generate_office_deployment(n_devices=128, rng=rng)
        distances = np.array([d.distance_m for d in deployment.devices])
        snrs = deployment.snrs_db()
        # Correlation must be strongly negative (walls add scatter).
        assert np.corrcoef(distances, snrs)[0, 1] < -0.6

    def test_subset_preserves_order(self, rng):
        deployment = generate_office_deployment(n_devices=16, rng=rng)
        subset = deployment.subset(4)
        assert [d.device_id for d in subset.devices] == [0, 1, 2, 3]

    def test_subset_validation(self, rng):
        deployment = generate_office_deployment(n_devices=8, rng=rng)
        with pytest.raises(ReproError):
            deployment.subset(0)
        with pytest.raises(ReproError):
            deployment.subset(9)

    def test_deterministic_with_seed(self):
        a = generate_office_deployment(n_devices=8, rng=123)
        b = generate_office_deployment(n_devices=8, rng=123)
        assert np.allclose(a.snrs_db(), b.snrs_db())

    def test_invalid_device_count(self):
        with pytest.raises(ReproError):
            generate_office_deployment(n_devices=0)


class TestPaperDeployment:
    def test_snr_spread_near_dynamic_range(self):
        """The calibrated deployment must exercise the near-far design:
        a pre-control spread in the 30-55 dB window."""
        deployment = paper_deployment(rng=7)
        assert 30.0 <= deployment.snr_spread_db() <= 55.0

    def test_supports_256_devices(self):
        deployment = paper_deployment(n_devices=256, rng=7)
        assert deployment.n_devices == 256

    def test_fading_attached(self):
        deployment = paper_deployment(n_devices=4, rng=7)
        for device in deployment.devices:
            assert device.fading is not None
            before = device.current_uplink_snr_db()
            device.step_channel(10.0, np.random.default_rng(1))
            after = device.current_uplink_snr_db()
            assert before != after or device.fading.std_db == 0.0


class TestPrefixContract:
    """``paper_deployment(n)`` is the first ``n`` devices of the full build.

    The campaign runner relies on this to build only the devices a point
    simulates; the fading state is compared on its own because dataclass
    equality skips ``FadingProcess._state_db``.
    """

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2, 4, 17, 255, 256])
    def test_prefix_build_equals_subset_of_full_build(self, seed, n):
        prefix = paper_deployment(n, rng=seed)
        full = paper_deployment(256, rng=seed).subset(n)
        assert prefix == full
        for built, cut in zip(prefix.devices, full.devices):
            assert built.fading._state_db == cut.fading._state_db
