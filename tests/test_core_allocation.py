"""Unit tests for power-aware cyclic-shift allocation."""

import numpy as np
import pytest

from repro.core.allocation import (
    AllocationTable,
    association_shifts,
    cyclic_bin_distance,
    power_aware_allocation,
    random_allocation,
)
from repro.core.config import NetScatterConfig
from repro.errors import AllocationError


class TestCyclicDistance:
    def test_simple(self):
        assert cyclic_bin_distance(0, 10, 512) == 10

    def test_wraps(self):
        assert cyclic_bin_distance(2, 510, 512) == 4

    def test_symmetry(self):
        assert cyclic_bin_distance(5, 100, 512) == cyclic_bin_distance(
            100, 5, 512
        )

    def test_max_is_half_ring(self):
        assert cyclic_bin_distance(0, 256, 512) == 256


class TestPowerAwareAllocation:
    def test_all_shifts_skip_aligned(self, config):
        snrs = list(np.linspace(-10, 25, 100))
        allocation = power_aware_allocation(snrs, config)
        assert all(s % config.skip == 0 for s in allocation.values())

    def test_unique_shifts(self, config):
        snrs = list(np.linspace(-10, 25, 200))
        allocation = power_aware_allocation(snrs, config)
        shifts = list(allocation.values())
        assert len(set(shifts)) == len(shifts)

    def test_weakest_far_from_strongest(self, config):
        """The folded layout: the weakest device must sit at a large
        cyclic distance from the strongest."""
        snrs = list(np.linspace(0, 35, 64))
        allocation = power_aware_allocation(snrs, config)
        strongest = int(np.argmax(snrs))
        weakest = int(np.argmin(snrs))
        distance = cyclic_bin_distance(
            allocation[strongest], allocation[weakest], config.n_bins
        )
        assert distance > config.n_bins / 4

    def test_neighbours_have_similar_snr(self, config):
        """Adjacent (in bin space) devices must have small SNR deltas —
        the property that keeps side-lobe exposure tolerable."""
        rng = np.random.default_rng(5)
        snrs = rng.uniform(0.0, 35.0, size=128).tolist()
        allocation = power_aware_allocation(snrs, config)
        by_shift = sorted(
            (shift, snrs[dev]) for dev, shift in allocation.items()
        )
        deltas = [
            abs(a[1] - b[1]) for a, b in zip(by_shift, by_shift[1:])
        ]
        # Neighbour deltas must be far below the population spread.
        assert float(np.median(deltas)) < 5.0

    def test_under_capacity_spreads_out(self, config):
        """Section 4.4: fewer than half the devices means an effective
        separation of more than SKIP bins."""
        snrs = list(np.linspace(0, 30, 64))
        allocation = power_aware_allocation(snrs, config)
        shifts = sorted(allocation.values())
        gaps = np.diff(shifts)
        assert np.min(gaps) >= 2 * config.skip

    def test_capacity_enforced(self, config):
        snrs = [0.0] * (config.max_devices + 1)
        with pytest.raises(AllocationError):
            power_aware_allocation(snrs, config)

    def test_empty_rejected(self, config):
        with pytest.raises(AllocationError):
            power_aware_allocation([], config)

    def test_avoids_association_shifts(self):
        config = NetScatterConfig()  # two association shifts reserved
        snrs = list(np.linspace(0, 35, config.max_devices))
        allocation = power_aware_allocation(snrs, config)
        reserved = set(association_shifts(config))
        assert reserved.isdisjoint(set(allocation.values()))


class TestRandomAllocation:
    def test_skip_aligned_and_unique(self, config, rng):
        allocation = random_allocation(64, config, rng)
        shifts = list(allocation.values())
        assert len(set(shifts)) == 64
        assert all(s % config.skip == 0 for s in shifts)

    def test_capacity_enforced(self, config, rng):
        with pytest.raises(AllocationError):
            random_allocation(config.max_devices + 1, config, rng)


class TestAssociationShifts:
    def test_two_regions(self, config):
        shifts = association_shifts(config)
        assert len(shifts) == 2
        assert shifts[0] == 0
        # The low-SNR association shift sits mid-ring.
        assert abs(shifts[1] - config.n_bins // 2) <= config.skip

    def test_zero_reserved(self):
        config = NetScatterConfig(n_association_shifts=0)
        assert association_shifts(config) == []


class TestAllocationTable:
    def test_add_and_assign(self, config):
        table = AllocationTable(config)
        shift, reassigned = table.add_device(1, snr_db=10.0)
        assert shift % config.skip == 0
        assert not reassigned
        assert table.n_devices == 1

    def test_duplicate_rejected(self, config):
        table = AllocationTable(config)
        table.add_device(1, 10.0)
        with pytest.raises(AllocationError):
            table.add_device(1, 12.0)

    def test_validate_passes_after_adds(self, config, rng):
        table = AllocationTable(config)
        for device_id in range(32):
            table.add_device(device_id, float(rng.uniform(0, 35)))
        table.validate()

    def test_remove_respreads(self, config):
        table = AllocationTable(config)
        for device_id in range(8):
            table.add_device(device_id, float(device_id))
        table.remove_device(3)
        assert table.n_devices == 7
        table.validate()

    def test_remove_unknown_rejected(self, config):
        table = AllocationTable(config)
        with pytest.raises(AllocationError):
            table.remove_device(99)

    def test_update_snr_rank_change_reassigns(self, config):
        table = AllocationTable(config)
        table.add_device(0, 30.0)
        table.add_device(1, 10.0)
        changed = table.update_snr(1, 40.0)  # now the strongest
        assert changed
        table.validate()

    def test_update_snr_same_rank_no_reassign(self, config):
        table = AllocationTable(config)
        table.add_device(0, 30.0)
        table.add_device(1, 10.0)
        changed = table.update_snr(1, 12.0)
        assert not changed

    def test_capacity_full(self):
        config = NetScatterConfig(
            bandwidth_hz=125e3, spreading_factor=6, skip=2,
            n_association_shifts=0,
        )
        table = AllocationTable(config)
        for device_id in range(table.capacity):
            table.add_device(device_id, float(device_id))
        with pytest.raises(AllocationError):
            table.add_device(9999, 0.0)

    def test_worst_case_exposure_safe_for_sorted(self, config):
        """A 30 dB population allocated power-aware should have negative
        worst-case margin (side lobes below every weak device)."""
        table = AllocationTable(config)
        for device_id, snr in enumerate(np.linspace(0, 30, 64)):
            table.add_device(device_id, float(snr))
        margin = table.worst_case_exposure_db()
        assert margin is not None
        assert margin < 0.0

    def test_exposure_none_for_single_device(self, config):
        table = AllocationTable(config)
        table.add_device(0, 10.0)
        assert table.worst_case_exposure_db() is None

    def test_strong_and_weak_far_apart(self, config):
        table = AllocationTable(config)
        table.add_device(0, 30.0)
        table.add_device(1, 0.0)
        distance = cyclic_bin_distance(
            table.shift_of(0), table.shift_of(1), config.n_bins
        )
        assert distance > config.n_bins / 4
