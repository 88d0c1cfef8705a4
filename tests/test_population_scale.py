"""Population-scale equivalence suite.

Pins the tentpole invariants of the flat-array population layer:

* the flat (struct-of-arrays) :class:`AllocationTable`,
  :class:`AssociationController` and the :class:`AccessPoint` over them
  make *bit-identical* decisions to the per-device-object oracle defined
  below, across spreading factors and device counts up to 256, over
  randomised add / SNR-update / remove sequences and the grant / ACK /
  abandon lifecycle, down to the ranking a reassignment query announces;
* :func:`assign_cluster`'s span grouping equals the oracle's greedy
  per-device walk;
* their entry points reject non-finite input before any state changes;
* the hybrid fidelity split is a seeded pure function (same population
  + same seed -> same routing, same metrics) and its closed-form legs
  stay within a statistical-equivalence gate of the all-Monte-Carlo
  reference at 10^4 devices;
* the per-config slot geometry (``_data_slots`` / ``association_shifts``
  / ``spread_slot_indices``) is cached, not recomputed per call;
* :func:`office_population`'s vectorised link law matches the scalar
  :class:`LinkBudget` arithmetic elementwise.
"""

import contextvars
import dataclasses
import enum
import multiprocessing
import os
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import pytest

import repro.protocol.population as population_module
from repro.channel.deployment import Deployment
from repro.channel.link import LinkBudget
from repro.core.allocation import (
    AllocationTable,
    _data_slots,
    association_shifts,
    power_aware_allocation,
)
from repro.core.config import NetScatterConfig
from repro.errors import (
    AllocationError,
    AssociationError,
    ConfigurationError,
)
from repro.protocol.ap import AccessPoint
from repro.protocol.association import AssociationController
from repro.protocol.messages import AssociationResponse
from repro.protocol.population import (
    FidelityRule,
    Population,
    hybrid_population_round,
    office_population,
    spread_slot_indices,
    span_group_bounds,
    split_fidelity,
    assign_cluster,
)
from repro.utils import parallel

SPREADING_FACTORS = (7, 9, 12)
DEVICE_COUNTS = (1, 2, 3, 17, 64, 256)


def _config(sf: int) -> NetScatterConfig:
    return NetScatterConfig(spreading_factor=sf, n_association_shifts=0)


def _assoc_config(sf: int) -> NetScatterConfig:
    return NetScatterConfig(spreading_factor=sf)


def _table_state(table: AllocationTable):
    return (table.assignments(), table.reassignments)


# ---------------------------------------------------------------------- #
# Per-device-object oracle
# ---------------------------------------------------------------------- #
# The protocol layer's original implementation: one Python object per
# device in the allocation table and the association controller. Ranking
# and grouping go through the same
# ``spread_slot_indices`` and ``snr_groups`` calls the flat kernels were
# derived from, so any drift of the flat path shows as a mismatch here.


def snr_groups(snrs_db, group_span_db: float = 35.0) -> List[List[int]]:
    """Greedy span-limited grouping over the sorted SNRs, one device at
    a time (Section 3.3.3's query group IDs)."""
    order = np.argsort(np.asarray(snrs_db, dtype=float))[::-1]
    groups: List[List[int]] = []
    current: List[int] = []
    group_top: Optional[float] = None
    for idx in order:
        snr = float(snrs_db[idx])
        if group_top is None or group_top - snr <= group_span_db:
            current.append(int(idx))
            if group_top is None:
                group_top = snr
        else:
            groups.append(current)
            current = [int(idx)]
            group_top = snr
    if current:
        groups.append(current)
    return groups


@dataclass
class AllocationEntry:
    """One device's standing in the allocation table."""

    device_id: int
    shift: int
    snr_db: float


class ObjectAllocationTable:
    """Per-device-object :class:`AllocationTable`."""

    def __init__(self, config: NetScatterConfig) -> None:
        self._config = config
        self._slots = _data_slots(config)
        self.reassignments = 0
        self._entries: Dict[int, AllocationEntry] = {}

    @property
    def n_devices(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return len(self._slots)

    def assignments(self) -> Dict[int, int]:
        return {e.device_id: e.shift for e in self._entries.values()}

    def shift_of(self, device_id: int) -> int:
        return self._entry(device_id).shift

    def _entry(self, device_id: int) -> AllocationEntry:
        if device_id not in self._entries:
            raise AllocationError(f"device {device_id} is not allocated")
        return self._entries[device_id]

    def _ranked_ids(self) -> List[int]:
        return sorted(
            self._entries,
            key=lambda d: self._entries[d].snr_db,
            reverse=True,
        )

    def _spread_assignment(self) -> Dict[int, int]:
        ranked = self._ranked_ids()
        indices = spread_slot_indices(len(ranked), len(self._slots)).tolist()
        return {
            device_id: self._slots[indices[rank]]
            for rank, device_id in enumerate(ranked)
        }

    def _apply_spread(self) -> bool:
        target = self._spread_assignment()
        moved = False
        for device_id, shift in target.items():
            entry = self._entries[device_id]
            if entry.shift != shift:
                moved = moved or entry.shift != -1
                entry.shift = shift
        return moved

    def add_device(self, device_id: int, snr_db: float):
        if device_id in self._entries:
            raise AllocationError(f"device {device_id} already allocated")
        if self.n_devices >= self.capacity:
            raise AllocationError(
                f"network full: {self.capacity} slots in use"
            )
        self._entries[device_id] = AllocationEntry(
            device_id=device_id, shift=-1, snr_db=float(snr_db)
        )
        moved_others = self._apply_spread()
        if moved_others:
            self.reassignments += 1
        return self._entries[device_id].shift, moved_others

    def remove_device(self, device_id: int) -> bool:
        self._entry(device_id)
        del self._entries[device_id]
        moved = bool(self._entries) and self._apply_spread()
        if moved:
            self.reassignments += 1
        return moved

    def update_snr(self, device_id: int, snr_db: float) -> bool:
        entry = self._entry(device_id)
        old_rank = self._ranked_ids().index(device_id)
        entry.snr_db = float(snr_db)
        new_rank = self._ranked_ids().index(device_id)
        if new_rank != old_rank:
            self._apply_spread()
            self.reassignments += 1
            return True
        return False

    def validate(self) -> None:
        seen = set()
        for entry in self._entries.values():
            if entry.shift % self._config.skip != 0:
                raise AllocationError(
                    f"shift {entry.shift} breaks SKIP alignment"
                )
            if entry.shift in seen:
                raise AllocationError(f"shift {entry.shift} double-booked")
            seen.add(entry.shift)
            if entry.shift not in self._slots:
                raise AllocationError(
                    f"shift {entry.shift} is reserved or out of range"
                )
        expected = self._spread_assignment()
        for device_id, entry in self._entries.items():
            if entry.shift != expected[device_id]:
                raise AllocationError(
                    "ring order does not match SNR order "
                    f"(device {device_id})"
                )

    def worst_case_exposure_db(self) -> Optional[float]:
        from repro.phy.spectrum import side_lobe_profile as make_profile

        if self.n_devices < 2:
            return None
        profile = make_profile(
            self._config.chirp_params, self._config.zero_pad_factor
        )
        entries = list(self._entries.values())
        snrs = np.array([e.snr_db for e in entries], dtype=float)
        shifts = np.array([e.shift for e in entries], dtype=float)
        delta_db = snrs[:, None] - snrs[None, :]
        raw = np.abs(shifts[:, None] - shifts[None, :]) % self._config.n_bins
        distance = np.minimum(raw, self._config.n_bins - raw)
        idx = (
            np.round(distance * profile.zero_pad_factor).astype(np.int64)
            % profile.n_bins
        )
        margin = np.where(
            delta_db > 0, delta_db + profile.power_db[idx], -np.inf
        )
        worst = float(np.max(margin))
        return worst if np.isfinite(worst) else None


class AssociationPhase(enum.Enum):
    """AP-side lifecycle of one joining device."""

    REQUESTED = "requested"
    GRANTED = "granted"
    CONFIRMED = "confirmed"


@dataclass
class PendingAssociation:
    """AP-side record of an in-flight association."""

    device_id: int
    snr_db: float
    phase: AssociationPhase = AssociationPhase.REQUESTED
    granted_shift: Optional[int] = None
    grant_repeats: int = 0


class ObjectAssociationController:
    """Per-device-object :class:`AssociationController`."""

    MAX_GRANT_REPEATS = AssociationController.MAX_GRANT_REPEATS

    def __init__(self, config: NetScatterConfig) -> None:
        self._config = config
        self._table = ObjectAllocationTable(config)
        self._pending: Dict[int, PendingAssociation] = {}

    def handle_request(self, device_id: int, measured_snr_db: float):
        if device_id in self._pending:
            pending = self._pending[device_id]
            if pending.phase == AssociationPhase.GRANTED:
                return self._grant_message(pending), False
            raise AssociationError(
                f"device {device_id} already mid-association"
            )
        shift, reassigned = self._table.add_device(device_id, measured_snr_db)
        pending = PendingAssociation(
            device_id=device_id,
            snr_db=measured_snr_db,
            phase=AssociationPhase.GRANTED,
            granted_shift=shift,
        )
        self._pending[device_id] = pending
        return self._grant_message(pending), reassigned

    def _grant_message(self, pending: PendingAssociation):
        pending.grant_repeats += 1
        if pending.grant_repeats > self.MAX_GRANT_REPEATS:
            self._table.remove_device(pending.device_id)
            del self._pending[pending.device_id]
            raise AssociationError(
                f"device {pending.device_id} never acknowledged its grant"
            )
        return AssociationResponse(
            network_id=pending.device_id % 256,
            cyclic_shift=pending.granted_shift // self._config.skip,
        )

    def handle_ack(self, device_id: int) -> int:
        pending = self._pending.get(device_id)
        if pending is None or pending.phase != AssociationPhase.GRANTED:
            raise AssociationError(
                f"unexpected ACK from device {device_id}"
            )
        pending.phase = AssociationPhase.CONFIRMED
        del self._pending[device_id]
        return pending.granted_shift

    def handle_reassociation(self, device_id: int, new_snr_db: float) -> bool:
        return self._table.update_snr(device_id, new_snr_db)

    def pending_grants(self) -> List[AssociationResponse]:
        return [
            AssociationResponse(
                network_id=p.device_id % 256,
                cyclic_shift=p.granted_shift // self._config.skip,
            )
            for p in self._pending.values()
            if p.phase == AssociationPhase.GRANTED
        ]

    def assignments(self) -> Dict[int, int]:
        return self._table.assignments()

    @property
    def n_members(self) -> int:
        return self._table.n_devices - len(self._pending)

    def ranked_members(self) -> List[int]:
        return [
            device_id
            for device_id in self._table._ranked_ids()
            if device_id not in self._pending
        ]


class ObjectAccessPoint(AccessPoint):
    """:class:`AccessPoint` driving the object controller."""

    def __init__(self, config: NetScatterConfig) -> None:
        super().__init__(config)
        self._association = ObjectAssociationController(config)


class TestAllocationBackendEquivalence:
    """Flat AllocationTable vs the object oracle: identical decisions."""

    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    @pytest.mark.parametrize("n", DEVICE_COUNTS)
    def test_serial_adds_bit_identical(self, sf, n):
        config = _config(sf)
        if n > len(_data_slots(config)):
            pytest.skip("count exceeds this SF's capacity")
        rng = np.random.default_rng(1000 + sf * 7 + n)
        snrs = rng.uniform(-45.0, 10.0, size=n)
        flat = AllocationTable(config)
        legacy = ObjectAllocationTable(config)
        for device_id, snr in enumerate(snrs):
            res_flat = flat.add_device(device_id, float(snr))
            res_obj = legacy.add_device(device_id, float(snr))
            assert res_flat == res_obj
            assert _table_state(flat) == _table_state(legacy)
        flat.validate()
        legacy.validate()
        # ... and the serial result equals the one-shot allocation map.
        assert flat.assignments() == power_aware_allocation(snrs, config)

    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_mixed_operation_sequence_bit_identical(self, sf):
        config = _config(sf)
        rng = np.random.default_rng(4242 + sf)
        flat = AllocationTable(config)
        legacy = ObjectAllocationTable(config)
        live = []
        next_id = 0
        for _ in range(300):
            op = rng.random()
            if (op < 0.55 or not live) and len(live) >= flat.capacity:
                op = 0.7  # table full: fall through to an SNR update
            if op < 0.55 or not live:
                snr = float(rng.uniform(-45.0, 10.0))
                assert flat.add_device(next_id, snr) == legacy.add_device(
                    next_id, snr
                )
                live.append(next_id)
                next_id += 1
            elif op < 0.8:
                victim = int(live[int(rng.integers(len(live)))])
                snr = float(rng.uniform(-45.0, 10.0))
                assert flat.update_snr(victim, snr) == legacy.update_snr(
                    victim, snr
                )
            else:
                victim = live.pop(int(rng.integers(len(live))))
                assert flat.remove_device(int(victim)) == (
                    legacy.remove_device(int(victim))
                )
            assert _table_state(flat) == _table_state(legacy)
        flat.validate()
        legacy.validate()
        exp_flat = flat.worst_case_exposure_db()
        exp_obj = legacy.worst_case_exposure_db()
        if exp_flat is None:
            assert exp_obj is None
        else:
            assert exp_flat == pytest.approx(exp_obj, abs=1e-9)

    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_removals_count_the_survivors_move(self, sf):
        """Draining a full table one device at a time: both backends
        report the same moves, and a removal counts a reassignment
        exactly when some survivor's shift changed."""
        config = _config(sf)
        rng = np.random.default_rng(90 + sf)
        n = min(64, len(_data_slots(config)))
        flat = AllocationTable(config)
        legacy = ObjectAllocationTable(config)
        for device_id, snr in enumerate(rng.uniform(-45.0, 10.0, size=n)):
            flat.add_device(device_id, float(snr))
            legacy.add_device(device_id, float(snr))
        for victim in rng.permutation(n).tolist():
            before = flat.assignments()
            count = flat.reassignments
            moved = flat.remove_device(victim)
            assert moved == legacy.remove_device(victim)
            after = flat.assignments()
            assert moved == any(after[d] != before[d] for d in after)
            assert flat.reassignments == count + int(moved)
            assert _table_state(flat) == _table_state(legacy)
            flat.validate()
        assert flat.n_devices == legacy.n_devices == 0

    def test_error_parity(self):
        config = _config(9)
        for table in (AllocationTable(config), ObjectAllocationTable(config)):
            table.add_device(1, -10.0)
            with pytest.raises(AllocationError, match="already allocated"):
                table.add_device(1, -12.0)
            with pytest.raises(AllocationError, match="not allocated"):
                table.shift_of(99)
            with pytest.raises(AllocationError, match="not allocated"):
                table.remove_device(99)


class TestAssociationBackendEquivalence:
    # SF 12 is excluded: its shift range exceeds the grant message's
    # 8-bit SKIP-grid field — a message-format constraint that hits
    # flat path and oracle identically and is tested in the messages
    # suite.
    @pytest.mark.parametrize("sf", (7, 9))
    def test_grant_ack_lifecycle_bit_identical(self, sf):
        config = _assoc_config(sf)
        rng = np.random.default_rng(500 + sf)
        flat = AssociationController(config)
        legacy = ObjectAssociationController(config)
        for device_id in range(48):
            snr = float(rng.uniform(-45.0, 5.0))
            g_flat, r_flat = flat.handle_request(device_id, snr)
            g_obj, r_obj = legacy.handle_request(device_id, snr)
            assert (g_flat, r_flat) == (g_obj, r_obj)
            if device_id % 3 == 0:
                # Lost grant: the duplicate request repeats it.
                again_flat, _ = flat.handle_request(device_id, snr)
                again_obj, _ = legacy.handle_request(device_id, snr)
                assert again_flat == again_obj
            assert flat.pending_grants() == legacy.pending_grants()
            assert flat.handle_ack(device_id) == legacy.handle_ack(device_id)
            assert flat.n_members == legacy.n_members
            assert flat.assignments() == legacy.assignments()

    def test_grant_abandoned_after_max_repeats_on_both(self):
        config = _assoc_config(9)
        for ctrl in (
            AssociationController(config),
            ObjectAssociationController(config),
        ):
            ctrl.handle_request(7, -20.0)
            for _ in range(AssociationController.MAX_GRANT_REPEATS - 1):
                ctrl.handle_request(7, -20.0)
            with pytest.raises(
                AssociationError, match="never acknowledged"
            ):
                ctrl.handle_request(7, -20.0)
            # The slot was freed: the device can start over.
            ctrl.handle_request(7, -20.0)
            ctrl.handle_ack(7)
            assert ctrl.n_members == 1

    def test_abandoned_grant_counts_the_survivors_move(self):
        """Abandoning a displacing newcomer's grant re-spreads the
        members it displaced; that move is a full reassignment too."""
        config = _assoc_config(9)
        for ctrl in (
            AssociationController(config),
            ObjectAssociationController(config),
        ):
            for device_id, snr in ((1, -20.0), (2, -25.0), (3, -30.0)):
                ctrl.handle_request(device_id, snr)
                ctrl.handle_ack(device_id)
            _, displaced = ctrl.handle_request(9, -10.0)
            assert displaced and ctrl._table.reassignments == 2
            before = ctrl.assignments()
            with pytest.raises(AssociationError, match="never acknowledged"):
                for _ in range(AssociationController.MAX_GRANT_REPEATS):
                    ctrl.handle_request(9, -10.0)
            after = ctrl.assignments()
            assert 9 not in after
            assert (before[2], after[2]) == (128, 342)
            assert (before[3], after[3]) == (260, 170)
            assert ctrl._table.reassignments == 3

    @pytest.mark.parametrize("sf", (7, 9))
    def test_churn_with_abandoned_grants_bit_identical(self, sf):
        """Joins, lost grants, abandons, ACKs and re-associations in a
        random order: the same grants, errors, members and moves."""
        config = _assoc_config(sf)
        rng = np.random.default_rng(700 + sf)
        flat = AssociationController(config)
        legacy = ObjectAssociationController(config)
        granted, members, next_id, abandoned = [], [], 0, 0

        def both(call):
            outcomes = []
            for ctrl in (flat, legacy):
                try:
                    outcomes.append(call(ctrl))
                except AssociationError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            return outcomes[0]

        for _ in range(240):
            op = rng.random()
            snr = float(rng.uniform(-45.0, 5.0))
            if op < 0.35 and flat.table.n_devices < flat.table.capacity:
                both(lambda c: c.handle_request(next_id, snr))
                granted.append(next_id)
                next_id += 1
            elif op < 0.55 and granted:
                # The oldest grant keeps getting lost, until abandoned.
                device_id = granted[0]
                outcome = both(lambda c: c.handle_request(device_id, snr))
                if isinstance(outcome, str):
                    assert "never acknowledged" in outcome
                    granted.remove(device_id)
                    abandoned += 1
            elif op < 0.8 and granted:
                device_id = granted.pop()
                both(lambda c: c.handle_ack(device_id))
                members.append(device_id)
            elif members:
                device_id = members[int(rng.integers(len(members)))]
                both(lambda c: c.handle_reassociation(device_id, snr))
            assert flat.assignments() == legacy.assignments()
            assert flat.pending_grants() == legacy.pending_grants()
            assert flat.n_members == legacy.n_members == len(members)
            assert flat.ranked_members().tolist() == legacy.ranked_members()
            assert flat.table.reassignments == legacy._table.reassignments
        flat.table.validate()
        assert abandoned > 0

    def test_granted_shift_frozen_across_repack(self):
        """A later admit may re-pack the ring, but the pending grant
        keeps repeating the originally granted shift, as in the oracle."""
        config = _assoc_config(9)
        grants = {}
        for backend, ctrl in (
            ("flat", AssociationController(config)),
            ("object", ObjectAssociationController(config)),
        ):
            first, _ = ctrl.handle_request(1, -30.0)
            # A stronger newcomer re-packs the ring under device 1.
            ctrl.handle_request(2, -5.0)
            ctrl.handle_ack(2)
            repeat, _ = ctrl.handle_request(1, -30.0)
            assert repeat.cyclic_shift == first.cyclic_shift
            grants[backend] = repeat.cyclic_shift
        assert grants["flat"] == grants["object"]

    def test_unexpected_ack_parity(self):
        config = _assoc_config(9)
        for ctrl in (
            AssociationController(config),
            ObjectAssociationController(config),
        ):
            with pytest.raises(AssociationError, match="unexpected ACK"):
                ctrl.handle_ack(3)
            ctrl.handle_request(3, -20.0)
            ctrl.handle_ack(3)
            with pytest.raises(AssociationError, match="unexpected ACK"):
                ctrl.handle_ack(3)

class TestSpanGroupingEquivalence:
    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_assign_cluster_matches_the_per_device_walk(self, sf):
        """Span groups from the greedy per-device walk, each split at
        the configuration's round size, in the same order."""
        config = _config(sf)
        rng = np.random.default_rng(31 + sf)
        snrs = rng.uniform(-60.0, 0.0, size=300)
        for span in (10.0, 35.0):
            expected = [
                group[start : start + config.max_devices]
                for group in snr_groups(snrs, span)
                for start in range(0, len(group), config.max_devices)
            ]
            groups = assign_cluster(snrs, config, span)
            assert [g.tolist() for g in groups] == expected


    def test_one_span_is_one_group(self):
        groups = assign_cluster(np.full(4, 10.0), _config(9))
        assert [sorted(g.tolist()) for g in groups] == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_oversize_span_splits_at_the_round_size(self, sf):
        config = _config(sf)
        size = config.max_devices
        groups = assign_cluster(np.zeros(2 * size + 3), config)
        assert [len(g) for g in groups] == [size, size, 3]

    def test_span_separates_distant_devices(self):
        groups = assign_cluster(np.array([0.0, 50.0]), _config(9), 20.0)
        assert [g.tolist() for g in groups] == [[1], [0]]

    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_groups_cover_every_device_once(self, sf):
        """Every row lands in exactly one group; each group stays within
        the span and the round size, strongest first."""
        config = _config(sf)
        rng = np.random.default_rng(60 + sf)
        snrs = rng.uniform(-70.0, 10.0, size=500)
        groups = assign_cluster(snrs, config, 20.0)
        rows = np.concatenate(groups)
        assert sorted(rows.tolist()) == list(range(snrs.size))
        for group in groups:
            members = snrs[group]
            assert len(group) <= config.max_devices
            assert members[0] - members[-1] <= 20.0
            assert np.all(np.diff(members) <= 0.0)

    def test_empty_population_has_no_groups(self):
        assert assign_cluster(np.array([]), _config(9)) == []


class TestAccessPointBackends:
    def test_association_flow_identical(self):
        config = NetScatterConfig()
        rng = np.random.default_rng(12)
        snrs = rng.uniform(-40.0, 0.0, size=64)
        flat = AccessPoint(config)
        legacy = ObjectAccessPoint(config)
        for device_id, snr in enumerate(snrs):
            assert flat.run_association(
                device_id, float(snr)
            ) == legacy.run_association(device_id, float(snr))
        assert flat.assignments() == legacy.assignments()
        assert flat.stats == legacy.stats
        assert flat.n_members == legacy.n_members == len(snrs)

    def test_reassignment_order_with_ties_matches_the_oracle(self):
        """Tied SNRs rank in join order on both backends, before and
        after an update that moves a device's rank."""
        config = NetScatterConfig()
        snrs = [-10.0, -20.0, -10.0, -20.0, -5.0, -10.0]
        orders = {}
        for backend, ap in (
            ("flat", AccessPoint(config)),
            ("object", ObjectAccessPoint(config)),
        ):
            for device_id, snr in enumerate(snrs):
                ap.run_association(device_id, snr)
            first = ap.build_query().reassignment_order
            assert ap.update_member_snr(3, -10.0)
            second = ap.build_query().reassignment_order
            orders[backend] = (first, second)
        assert orders["flat"] == orders["object"]
        assert orders["flat"] == (
            [1, 4, 2, 5, 0, 3],
            [1, 5, 2, 3, 0, 4],
        )

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_announced_order_matches_the_oracle_under_churn(self, seed):
        """Joins and SNR updates in a random order: after each, both
        backends send the same query, and an announced order ranks the
        members as the table does."""
        config = NetScatterConfig()
        rng = np.random.default_rng(seed)
        flat = AccessPoint(config)
        legacy = ObjectAccessPoint(config)
        announced = 0
        for step in range(120):
            snr = float(np.round(rng.uniform(-40.0, 0.0), 0))
            if step < 4 or rng.random() < 0.4:
                device_id = flat.n_members
                assert flat.run_association(device_id, snr) == (
                    legacy.run_association(device_id, snr)
                )
            else:
                device_id = int(rng.integers(flat.n_members))
                assert flat.update_member_snr(device_id, snr) == (
                    legacy.update_member_snr(device_id, snr)
                )
            query = flat.build_query()
            assert query == legacy.build_query()
            order = query.reassignment_order
            if order is not None:
                announced += 1
                table = flat.association.table
                ranks = {d: order[d] for d in range(flat.n_members)}
                by_rank = sorted(ranks, key=ranks.get)
                snrs = [table.snr_of(d) for d in by_rank]
                assert snrs == sorted(snrs, reverse=True)
        assert flat.stats == legacy.stats
        assert announced > 0


def _table_with_one_device() -> AllocationTable:
    table = AllocationTable(_config(9))
    table.add_device(1, -10.0)
    return table


def _controller_with_one_member() -> AssociationController:
    ctrl = AssociationController(_config(9))
    ctrl.handle_request(1, -10.0)
    ctrl.handle_ack(1)
    return ctrl


def _ap_with_one_member() -> AccessPoint:
    ap = AccessPoint(_config(9))
    ap.run_association(1, -10.0)
    ap.build_query()
    return ap


def _controller_join(ctrl, device_id, snr_db):
    ctrl.handle_request(device_id, snr_db)
    ctrl.handle_ack(device_id)


#: Entry point -> (build a one-member target, feed it a bad SNR, let a
#: device join it cleanly). Every one must raise before touching state.
NON_FINITE_ENTRY_POINTS = {
    "table.add_device": (
        _table_with_one_device,
        lambda table, bad: table.add_device(2, bad),
        AllocationTable.add_device,
    ),
    "table.update_snr": (
        _table_with_one_device,
        lambda table, bad: table.update_snr(1, bad),
        AllocationTable.add_device,
    ),
    "controller.handle_request": (
        _controller_with_one_member,
        lambda ctrl, bad: ctrl.handle_request(2, bad),
        _controller_join,
    ),
    "controller.handle_reassociation": (
        _controller_with_one_member,
        lambda ctrl, bad: ctrl.handle_reassociation(1, bad),
        _controller_join,
    ),
    "ap.run_association": (
        _ap_with_one_member,
        lambda ap, bad: ap.run_association(2, bad),
        AccessPoint.run_association,
    ),
    "ap.update_member_snr": (
        _ap_with_one_member,
        lambda ap, bad: ap.update_member_snr(1, bad),
        AccessPoint.run_association,
    ),
}


def _table_of(target) -> AllocationTable:
    if isinstance(target, AccessPoint):
        target = target.association
    if isinstance(target, AssociationController):
        target = target.table
    return target


def _protocol_state(target):
    table = _table_of(target)
    state = [
        table.assignments(),
        table.reassignments,
        table.population.snr_db.tolist(),
        table.population.phase.tolist(),
    ]
    if isinstance(target, AccessPoint):
        state.append(dataclasses.asdict(target.stats))
    return state


class TestProtocolStateInputValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
    @pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
    def test_non_finite_snr_rejected_before_mutation(self, entry, bad):
        build, feed, join = NON_FINITE_ENTRY_POINTS[entry]
        target = build()
        before = _protocol_state(target)
        with pytest.raises(AllocationError, match="finite"):
            feed(target, bad)
        assert _protocol_state(target) == before
        if isinstance(target, AccessPoint):
            # Nothing was queued: the next query announces no order.
            assert target.build_query().reassignment_order is None
        # The target still works: the rejected device can join cleanly.
        join(target, 2, -12.0)
        table = _table_of(target)
        table.validate()
        assert table.n_devices == 2


class TestSlotGeometryCaching:
    """Satellite fix: per-config geometry is computed once, not per call."""

    def test_data_slots_cached_per_config(self):
        from repro.core.allocation import _data_slots_cached

        config = NetScatterConfig(spreading_factor=10)
        _data_slots_cached.cache_clear()
        a = _data_slots(config)
        before = _data_slots_cached.cache_info()
        b = _data_slots(config)
        after = _data_slots_cached.cache_info()
        assert a == b
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        # Fresh list each call: caller mutation cannot poison the cache.
        a.append(-1)
        assert _data_slots(config) == b

    def test_association_shifts_cached_per_config(self):
        from repro.core.allocation import _association_shifts_cached

        config = NetScatterConfig(spreading_factor=10)
        _association_shifts_cached.cache_clear()
        a = association_shifts(config)
        b = association_shifts(config)
        info = _association_shifts_cached.cache_info()
        assert a == b
        assert info.misses == 1
        assert info.hits >= 1

    def test_spread_slot_indices_cached_and_read_only(self):
        spread_slot_indices.cache_clear()
        a = spread_slot_indices(37, 255)
        b = spread_slot_indices(37, 255)
        assert a is b  # identical cached object
        assert not a.flags.writeable
        info = spread_slot_indices.cache_info()
        assert info.hits >= 1


class TestOfficePopulationLinkLaw:
    def test_matches_scalar_link_budget_elementwise(self):
        """The vectorised law equals the scalar LinkBudget arithmetic.

        Positions are replayed from the same seeded generator the
        population drew from, then each device's SNR is recomputed with
        the per-device scalar path (the paper_deployment code path).
        """
        from repro.channel.deployment import _count_walls
        from repro.utils.rng import make_rng

        budget = LinkBudget(path_loss_exponent=2.0, wall_loss_db=2.0)
        pop = office_population(64, rng=3)
        xy = make_rng(3).uniform(
            [0.0, 0.0], [40.0, 20.0], size=(64, 2)
        )
        ap = (20.0, 10.0)
        for row in range(pop.n_devices):
            x, y = float(xy[row, 0]), float(xy[row, 1])
            distance = max(float(np.hypot(x - ap[0], y - ap[1])), 4.0)
            walls = _count_walls(ap, (x, y), 8.0)
            expected = budget.uplink_snr_db(distance, walls)
            assert pop.snr_db[row] == pytest.approx(expected, abs=1e-9)

    def test_snr_scale_shifts_uniformly(self):
        base = office_population(32, rng=5)
        scaled = office_population(32, rng=5, snr_scale_db=-20.0)
        np.testing.assert_allclose(
            scaled.snr_db, base.snr_db - 20.0, atol=1e-12
        )


def _error_within(call, timeout_s=30.0):
    """The exception ``call()`` raises, run on a daemon thread.

    Span grouping once looped forever on non-finite input; the join
    timeout turns such a hang into a test failure, not a stuck suite.
    """
    raised = []

    def target():
        try:
            call()
        except Exception as exc:
            raised.append(exc)
        else:
            raised.append(None)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout_s)
    assert not worker.is_alive(), f"no return within {timeout_s} s"
    return raised[0]


class TestSpanGroupingRejectsNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_snr_names_its_row(self, bad):
        snrs = np.array([1.0, bad, -3.0])
        error = _error_within(lambda: assign_cluster(snrs, _config(9), 35.0))
        assert isinstance(error, ConfigurationError)
        assert "row 1" in str(error)

    @pytest.mark.parametrize("span", [np.nan, 0.0, -1.0])
    def test_bad_span_is_named(self, span):
        snrs = np.linspace(-20.0, 10.0, 50)
        error = _error_within(lambda: assign_cluster(snrs, _config(9), span))
        assert isinstance(error, ConfigurationError)
        assert "group span" in str(error)

    def test_span_group_bounds_rejects_non_finite(self):
        error = _error_within(
            lambda: span_group_bounds(np.array([5.0, 1.0, np.nan]), 35.0)
        )
        assert isinstance(error, ConfigurationError)
        assert "sorted position 2" in str(error)

    def test_hybrid_round_rejects_non_finite_population(self):
        pop = Population(initial_capacity=4)
        pop.bulk_add(
            np.arange(4, dtype=np.int64), np.array([0.0, -5.0, np.nan, 2.0])
        )
        error = _error_within(lambda: hybrid_population_round(pop, seed=1))
        assert isinstance(error, ConfigurationError)
        assert "row 2" in str(error)


class TestFidelityRuleValidation:
    def test_defaults_and_boundaries_accepted(self):
        FidelityRule()
        FidelityRule(audit_fraction=0.0, monte_carlo_rounds=3)
        FidelityRule(audit_fraction=1.0, monte_carlo_rounds=np.int64(2))

    @pytest.mark.parametrize("span", [0.0, -5.0, np.nan, np.inf])
    def test_group_span_db(self, span):
        with pytest.raises(ConfigurationError, match="group_span_db"):
            FidelityRule(group_span_db=span)

    @pytest.mark.parametrize("span", [0.0, -5.0, np.nan, np.inf])
    def test_contention_span_db(self, span):
        with pytest.raises(ConfigurationError, match="contention_span_db"):
            FidelityRule(contention_span_db=span)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, -np.inf])
    def test_closed_form_min_snr_db(self, floor):
        with pytest.raises(ConfigurationError, match="closed_form_min_snr_db"):
            FidelityRule(closed_form_min_snr_db=floor)

    @pytest.mark.parametrize("fraction", [-0.01, 1.5, np.nan])
    def test_audit_fraction(self, fraction):
        with pytest.raises(ConfigurationError, match="audit_fraction"):
            FidelityRule(audit_fraction=fraction)

    @pytest.mark.parametrize("rounds", [0, -2, 1.5, 2.0])
    def test_monte_carlo_rounds(self, rounds):
        with pytest.raises(ConfigurationError, match="monte_carlo_rounds"):
            FidelityRule(monte_carlo_rounds=rounds)


class TestFidelitySplit:
    def test_split_is_seeded_and_deterministic(self):
        pop = office_population(2048, rng=7, snr_scale_db=-30.0)
        groups = assign_cluster(pop.snr_db, _config(9))
        rule = FidelityRule()
        a = split_fidelity(pop.snr_db, groups, rule, seed=99)
        b = split_fidelity(pop.snr_db, groups, rule, seed=99)
        assert a.monte_carlo.tolist() == b.monte_carlo.tolist()
        assert a.reasons == b.reasons
        assert a.group_seeds.tolist() == b.group_seeds.tolist()
        c = split_fidelity(pop.snr_db, groups, rule, seed=100)
        # A different seed may reroute audit groups but never the
        # validity-floor routing.
        floor = [
            i
            for i, r in enumerate(a.reasons)
            if r == "validity_floor"
        ]
        for i in floor:
            assert c.monte_carlo[i]

    def test_force_monte_carlo_routes_everything(self):
        pop = office_population(512, rng=7, snr_scale_db=-30.0)
        groups = assign_cluster(pop.snr_db, _config(9))
        split = split_fidelity(
            pop.snr_db, groups, FidelityRule(), seed=1,
            force_monte_carlo=True,
        )
        assert bool(np.all(split.monte_carlo))

    def test_hybrid_round_deterministic(self):
        pop = office_population(4096, rng=17, snr_scale_db=-30.0)
        a = hybrid_population_round(pop, seed=5)
        b = hybrid_population_round(pop, seed=5)
        assert a.delivery_ratio == b.delivery_ratio
        assert a.bit_error_rate == b.bit_error_rate
        assert a.reasons == b.reasons

    def test_hybrid_matches_monte_carlo_at_scale(self):
        """The statistical-equivalence gate at 10^4 devices.

        The hybrid and all-Monte-Carlo runs share group seeds, so the
        Monte-Carlo legs are common and the gate isolates the
        closed-form legs' aggregate error, which the calibration bounds
        at ~0.02 delivery (see docs/SCALING.md).
        """
        pop = office_population(10_000, rng=3, snr_scale_db=-30.0)
        hybrid = hybrid_population_round(pop, seed=11)
        reference = hybrid_population_round(
            pop, seed=11, force_monte_carlo=True
        )
        assert hybrid.n_closed_form_groups > 0
        assert (
            hybrid.n_closed_form_groups + hybrid.n_monte_carlo_groups
            == hybrid.n_groups
        )
        assert hybrid.delivery_ratio == pytest.approx(
            reference.delivery_ratio, abs=0.03
        )
        assert hybrid.bit_error_rate == pytest.approx(
            reference.bit_error_rate, abs=0.02
        )


#: Exact hybrid-round outputs, recorded before the closed-form leg was
#: batched: (population size, population rng, snr_scale_db, round seed,
#: force_monte_carlo) -> (repr of delivery_ratio, repr of
#: bit_error_rate, reprs of audit_gaps, reason counts).
HYBRID_ROUND_GOLDEN = {
    (10_000, 3, -30.0, 11, False): (
        "0.782963166164721",
        "0.01745081852701846",
        [],
        {"closed_form": 26, "validity_floor": 14},
    ),
    (10_000, 3, -30.0, 12, False): (
        "0.785963166164721",
        "0.01822581852701846",
        ["0.0"],
        {"audit": 1, "closed_form": 25, "validity_floor": 14},
    ),
    (10_000, 8, -26.0, 5, False): (
        "0.9162364923132144",
        "0.0038449703828689025",
        ["0.06110523237962551", "0.12540524555381616"],
        {"audit": 2, "closed_form": 30, "validity_floor": 8},
    ),
    # No closed-form group: nothing to batch.
    (2048, 3, -30.0, 11, True): (
        "0.7587890625",
        "0.026513671874999978",
        [],
        {"forced": 9},
    ),
    (2048, 3, -60.0, 11, False): (
        "0.06396484375",
        "0.7739990234374999",
        [],
        {"validity_floor": 9},
    ),
}


class TestHybridRoundGolden:
    @pytest.mark.parametrize("case", sorted(HYBRID_ROUND_GOLDEN))
    def test_bit_identical_to_recorded_round(self, case):
        n, rng, scale_db, seed, force = case
        pop = office_population(n, rng=rng, snr_scale_db=scale_db)
        result = hybrid_population_round(
            pop, seed=seed, force_monte_carlo=force
        )
        reasons = {}
        for reason in result.reasons:
            reasons[reason] = reasons.get(reason, 0) + 1
        assert (
            repr(result.delivery_ratio),
            repr(result.bit_error_rate),
            [repr(gap) for gap in result.audit_gaps],
            reasons,
        ) == HYBRID_ROUND_GOLDEN[case]

    def test_batched_scoring_matches_per_group_scoring(self, monkeypatch):
        """Chunk boundaries never change a group's closed-form value:
        small chunks, one group larger than a chunk, and an empty
        request all agree with scoring each group on its own."""
        from repro.core.capacity import (
            effective_bit_error_rate,
            packet_delivery_probability,
        )

        monkeypatch.setattr(population_module, "_CLOSED_FORM_CHUNK", 600)
        config = _config(9)
        pop = office_population(4096, rng=5, snr_scale_db=-26.0)
        groups = assign_cluster(pop.snr_db, config)
        wanted = list(range(0, len(groups), 2))
        assert max(groups[g].size for g in wanted) > 100
        batched = population_module._closed_form_group_metrics(
            pop.snr_db, groups, wanted, config
        )
        assert sorted(batched) == wanted
        for g in wanted:
            snrs = pop.snr_db[groups[g]]
            assert batched[g] == (
                float(np.sum(packet_delivery_probability(snrs, 9))),
                float(np.mean(effective_bit_error_rate(snrs, 9))),
            )
        monkeypatch.setattr(population_module, "_CLOSED_FORM_CHUNK", 100)
        assert population_module._closed_form_group_metrics(
            pop.snr_db, groups, wanted, config
        ) == batched
        assert population_module._closed_form_group_metrics(
            pop.snr_db, groups, [], config
        ) == {}


class TestPopulationEngineBridge:
    def test_simulator_accepts_population(self):
        from repro.protocol.network import NetworkSimulator

        pop = Population()
        pop.bulk_add(range(8), np.linspace(-14.0, -4.0, 8))
        sim = NetworkSimulator(pop, power_control=False, rng=3)
        metrics = sim.run_rounds(2)
        assert metrics.n_devices == 8

    def test_population_matches_from_snrs_deployment(self):
        from repro.protocol.network import NetworkSimulator

        snrs = np.linspace(-14.0, -4.0, 8)
        pop = Population()
        pop.bulk_add(range(8), snrs)
        via_pop = NetworkSimulator(
            pop, power_control=False, rng=3
        ).run_rounds(3)
        via_dep = NetworkSimulator(
            Deployment.from_snrs(snrs), power_control=False, rng=3
        ).run_rounds(3)
        assert via_pop.bit_error_rate == via_dep.bit_error_rate
        assert via_pop.delivery_ratio == via_dep.delivery_ratio


def _fork_shared(typecode, size=None):
    """A value (or array) forked leg workers share with the test."""
    context = multiprocessing.get_context("fork")
    if size is None:
        return context.Value(typecode, 0)
    return context.Array(typecode, size)


class TestMonteCarloPool:
    """The Monte-Carlo legs of a cycle run on forked worker processes
    and the caller, sized by the usable CPUs; a pooled cycle equals the
    serial one field for field, and no worker outlives it."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        import repro.utils.parallel as parallel_module

        def set_cpus(n):
            monkeypatch.setattr(parallel_module, "usable_cpus", lambda: n)

        return set_cpus

    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker processes forked by each leg pool the cycle opens."""
        sizes = []
        enter = population_module._MonteCarloLegs.__enter__

        def counting_enter(legs):
            entered = enter(legs)
            if legs.workers:
                sizes.append(len(legs.workers))
            return entered

        monkeypatch.setattr(
            population_module._MonteCarloLegs, "__enter__", counting_enter
        )
        return sizes

    @staticmethod
    def _job_of(pop):
        """Job index of each Monte-Carlo leg, keyed by its seed."""
        split = split_fidelity(
            pop.snr_db,
            assign_cluster(pop.snr_db, _config(9)),
            FidelityRule(),
            5,
            force_monte_carlo=True,
        )
        return {
            int(seed): job
            for job, seed in enumerate(split.group_seeds[split.monte_carlo])
        }

    @pytest.mark.parametrize(
        "pop_rng, scale_db, seed, force",
        [(8, -26.0, 5, False), (3, -30.0, 12, False), (3, -30.0, 11, True)],
    )
    def test_pool_and_serial_cycles_are_identical(
        self, cpus, pools, pop_rng, scale_db, seed, force
    ):
        pop = office_population(10_000, rng=pop_rng, snr_scale_db=scale_db)
        cpus(1)
        serial = hybrid_population_round(
            pop, seed=seed, force_monte_carlo=force
        )
        assert pools == []  # one usable CPU: no pool at all
        assert serial.n_monte_carlo_groups > 8
        for n_cpus in (4, 8):
            cpus(n_cpus)
            pooled = hybrid_population_round(
                pop, seed=seed, force_monte_carlo=force
            )
            # Every field, audit_gaps in group order included.
            assert dataclasses.asdict(pooled) == dataclasses.asdict(serial)
            assert multiprocessing.active_children() == []
            assert not parallel.in_parallel()
        assert pools == [3, 7]  # the caller is the last of the CPUs

    def test_pool_fft_route_cycle_matches_serial(
        self, cpus, pools, monkeypatch
    ):
        """Full groups read their preamble windows and probes through
        compose_readout's FFT route, above its crossover; pooled legs
        running that route in several processes give the serial cycle."""
        import repro.core.dcss as dcss

        routed = _fork_shared("i")
        narrowest = _fork_shared("i")
        kernel = dcss._fft_readout_values

        def counting(effective_bins, *args):
            with routed.get_lock():
                routed.value += 1
                width = effective_bins.shape[1]
                if narrowest.value == 0 or width < narrowest.value:
                    narrowest.value = width
            return kernel(effective_bins, *args)

        monkeypatch.setattr(dcss, "_fft_readout_values", counting)
        pop = office_population(10_000, rng=8, snr_scale_db=-26.0)
        cpus(1)
        serial = hybrid_population_round(pop, seed=5)
        n_routed = routed.value
        # Two calls (windows, probes) per leg of at least 64 tones.
        assert n_routed >= 2 * 4 and narrowest.value >= 64
        cpus(4)
        pooled = hybrid_population_round(pop, seed=5)
        assert pools == [3]
        assert routed.value == 2 * n_routed
        assert dataclasses.asdict(pooled) == dataclasses.asdict(serial)
        assert multiprocessing.active_children() == []

    def test_pool_stress_with_cold_shared_caches(self, cpus, pools):
        """More workers than cores, a 1 us switch interval, and the
        caches the legs read (probe readouts, noise factors, the FFT
        route's twiddles) emptied first, so every process fills its own
        copy: the cycle is unchanged."""
        import sys

        from repro.core import dcss, receiver
        from repro.phy import sparse_readout

        pop = office_population(4096, rng=17, snr_scale_db=-30.0)
        cpus(1)
        serial = hybrid_population_round(pop, seed=5, force_monte_carlo=True)
        for cache in (
            sparse_readout.natural_probe_readout,
            receiver._window_noise_factor,
            receiver._located_noise_factor,
            dcss._residue_twiddles,
        ):
            cache.cache_clear()
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcome = []
            error = _error_within(
                lambda: outcome.append(
                    hybrid_population_round(
                        pop, seed=5, force_monte_carlo=True
                    )
                )
            )
        finally:
            sys.setswitchinterval(interval)
        assert error is None and pools == [7]
        assert dataclasses.asdict(outcome[0]) == dataclasses.asdict(serial)
        assert multiprocessing.active_children() == []

    def test_pool_is_no_larger_than_the_legs(self, cpus, pools):
        pop = office_population(2048, rng=3, snr_scale_db=-60.0)
        cpus(64)
        result = hybrid_population_round(pop, seed=11)
        assert [pools[0] + 1] == [result.n_monte_carlo_groups] == [9]

    def test_pool_opens_for_two_legs_with_one_worker(self, cpus, pools):
        """On two CPUs one worker is forked; the caller runs the rest."""
        pop = office_population(4096, rng=17, snr_scale_db=-30.0)
        cpus(1)
        serial = hybrid_population_round(pop, seed=5, force_monte_carlo=True)
        cpus(2)
        pooled = hybrid_population_round(pop, seed=5, force_monte_carlo=True)
        assert pools == [1]
        assert dataclasses.asdict(pooled) == dataclasses.asdict(serial)

    def test_pool_legs_run_in_the_callers_context(self, cpus, monkeypatch):
        """Every leg sees the caller's context and runs marked as a pool
        worker; the caller runs at least one leg, and the mark does not
        leak into it."""
        parent = contextvars.ContextVar("span_parent")
        pop = office_population(4096, rng=17, snr_scale_db=-30.0)
        job_of = self._job_of(pop)
        ran_on = _fork_shared("i", len(job_of))

        def leg(snrs, device_ids, config, seed, n_rounds):
            ran_on[job_of[seed]] = os.getpid()
            time.sleep(0.02)  # long enough for the worker to take legs
            seen = parent.get(None) == "cycle" and parallel.in_parallel()
            # A leg that saw the context and the mark delivers all.
            return float(snrs.size) if seen else 0.0, 0.0

        monkeypatch.setattr(
            population_module, "_monte_carlo_group_metrics", leg
        )
        cpus(2)
        token = parent.set("cycle")
        try:
            result = hybrid_population_round(
                pop, seed=5, force_monte_carlo=True
            )
        finally:
            parent.reset(token)
        assert result.delivery_ratio == 1.0
        # Both the caller and the one worker ran legs.
        assert os.getpid() in ran_on[:] and len(set(ran_on)) == 2
        assert not parallel.in_parallel()
        assert multiprocessing.active_children() == []

    def test_pool_failure_surfaces_cancels_pending_and_joins(
        self, cpus, monkeypatch
    ):
        """The first failing leg in job order is raised, after the
        running legs finish; legs not yet started never start. Job 0 is
        the caller's, so jobs 1 and 2 fail on workers."""
        pop = office_population(4096, rng=17, snr_scale_db=-30.0)
        job_of = self._job_of(pop)
        assert len(job_of) >= 12
        started = _fork_shared("b", len(job_of))

        def leg(snrs, device_ids, config, seed, n_rounds):
            job = job_of[seed]
            started[job] = 1
            if job == 2:
                raise RuntimeError("leg 2 failed")
            time.sleep(0.1)
            if job == 1:
                raise RuntimeError("leg 1 failed")
            time.sleep(0.2)
            return float(snrs.size), 0.0

        monkeypatch.setattr(
            population_module, "_monte_carlo_group_metrics", leg
        )
        cpus(4)
        error = _error_within(
            lambda: hybrid_population_round(
                pop, seed=5, force_monte_carlo=True
            )
        )
        assert isinstance(error, RuntimeError)
        assert str(error) == "leg 1 failed"
        assert multiprocessing.active_children() == []
        assert sum(started) < len(job_of)
        assert started[0] == started[1] == started[2] == 1

    def test_pool_failure_on_the_caller_surfaces_first_in_job_order(
        self, cpus, monkeypatch
    ):
        """The caller's job 0 fails after a worker's later job did: job
        0's failure is raised, once every worker is joined."""
        pop = office_population(4096, rng=17, snr_scale_db=-30.0)
        job_of = self._job_of(pop)
        caller = os.getpid()
        ran_on = _fork_shared("i", len(job_of))

        def leg(snrs, device_ids, config, seed, n_rounds):
            job = job_of[seed]
            ran_on[job] = os.getpid()
            if job == 0:
                time.sleep(0.2)
                raise RuntimeError("leg 0 failed")
            if job == 1:
                raise RuntimeError("leg 1 failed")
            time.sleep(0.05)
            return float(snrs.size), 0.0

        monkeypatch.setattr(
            population_module, "_monte_carlo_group_metrics", leg
        )
        cpus(2)
        error = _error_within(
            lambda: hybrid_population_round(
                pop, seed=5, force_monte_carlo=True
            )
        )
        assert isinstance(error, RuntimeError)
        assert str(error) == "leg 0 failed"
        assert ran_on[0] == caller
        assert ran_on[1] not in (0, caller)
        assert multiprocessing.active_children() == []
        assert not parallel.in_parallel()

    def test_pool_worker_death_raises_and_joins(self, cpus, monkeypatch):
        """A worker that dies inside a leg fails the cycle with an error
        naming the leg it lost, instead of hanging it."""
        pop = office_population(4096, rng=17, snr_scale_db=-30.0)
        caller = os.getpid()

        def leg(snrs, device_ids, config, seed, n_rounds):
            if os.getpid() != caller:
                os._exit(3)
            time.sleep(0.05)
            return float(snrs.size), 0.0

        monkeypatch.setattr(
            population_module, "_monte_carlo_group_metrics", leg
        )
        cpus(2)
        error = _error_within(
            lambda: hybrid_population_round(
                pop, seed=5, force_monte_carlo=True
            )
        )
        assert isinstance(error, RuntimeError)
        assert "its worker process died" in str(error)
        assert "exit codes [3]" in str(error)
        assert multiprocessing.active_children() == []

    def test_pool_interrupted_caller_terminates_its_workers(
        self, cpus, monkeypatch
    ):
        """An interrupt while the workers run legs (here, during the
        closed form) terminates and joins them at once."""
        pop = office_population(4096, rng=17, snr_scale_db=-30.0)

        def leg(snrs, device_ids, config, seed, n_rounds):
            time.sleep(60.0)
            return float(snrs.size), 0.0

        def interrupted(*args):
            time.sleep(0.1)  # the workers are inside their legs
            raise KeyboardInterrupt

        monkeypatch.setattr(
            population_module, "_monte_carlo_group_metrics", leg
        )
        monkeypatch.setattr(
            population_module, "_closed_form_group_metrics", interrupted
        )
        cpus(4)
        begin = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            hybrid_population_round(pop, seed=5, force_monte_carlo=True)
        assert time.monotonic() - begin < 10.0
        assert multiprocessing.active_children() == []


class DictIndexedPopulation(Population):
    """Test oracle: the ``{id: row}`` dict index :class:`Population`
    kept before its sorted-id index, with its membership code verbatim."""

    def __init__(self, initial_capacity: int = 64) -> None:
        super().__init__(initial_capacity)
        self._rows: Dict[int, int] = {}

    def __contains__(self, device_id: int) -> bool:
        return int(device_id) in self._rows

    def row_of(self, device_id: int) -> int:
        try:
            return self._rows[int(device_id)]
        except KeyError:
            raise AllocationError(
                f"device {device_id} is not allocated"
            ) from None

    def bulk_add(self, device_ids, snrs_db) -> np.ndarray:
        ids = np.asarray(device_ids, dtype=np.int64)
        snrs = np.asarray(snrs_db, dtype=np.float64)
        if ids.shape != snrs.shape or ids.ndim != 1:
            raise AllocationError(
                "device ids and SNRs must be 1-D and aligned"
            )
        if np.unique(ids).size != ids.size:
            raise AllocationError("duplicate device ids in bulk add")
        for device_id in ids:
            if int(device_id) in self._rows:
                raise AllocationError(
                    f"device {int(device_id)} already allocated"
                )
        start = self._n
        self._grow_to(start + ids.size)
        self._n = start + ids.size
        rows = np.arange(start, self._n)
        self._data["device_id"][rows] = ids
        self._data["snr_db"][rows] = snrs
        for name, dtype, fill in self._COLUMNS[2:]:
            self._data[name][rows] = fill
        self._rows.update(
            (int(device_id), int(row)) for device_id, row in zip(ids, rows)
        )
        return rows

    def remove(self, device_id: int) -> None:
        row = self.row_of(device_id)
        for name, _, _ in self._COLUMNS:
            column = self._data[name]
            column[row : self._n - 1] = column[row + 1 : self._n]
        self._n -= 1
        del self._rows[int(device_id)]
        shifted = self._data["device_id"][row : self._n]
        self._rows.update(
            (int(moved), row + offset)
            for offset, moved in enumerate(shifted)
        )


def _outcome(call):
    """``call()``'s value, or its error's type and message."""
    try:
        value = call()
    except Exception as exc:
        return type(exc), str(exc)
    return value.tolist() if isinstance(value, np.ndarray) else value


class TestPopulationIndex:
    """The sorted-id index answers exactly as the dict index did."""

    def test_lookups_follow_removals(self):
        pop = Population(initial_capacity=2)
        ids = [40, 7, 19, -3, 2**62]
        assert pop.bulk_add(ids, np.zeros(5)).tolist() == [0, 1, 2, 3, 4]
        assert [pop.row_of(d) for d in ids] == [0, 1, 2, 3, 4]
        pop.remove(7)
        assert 7 not in pop and 19 in pop and np.int64(-3) in pop
        assert [pop.row_of(d) for d in (40, 19, -3, 2**62)] == [0, 1, 2, 3]
        assert pop.add(7, -5.0) == 4 and pop.row_of(7) == 4
        pop.remove(40)
        assert pop.device_id.tolist() == [19, -3, 2**62, 7]
        assert [pop.row_of(d) for d in pop.device_id] == [0, 1, 2, 3]

    @pytest.mark.parametrize("unknown", [5, -2**63 - 1, 2**64, 2**70])
    def test_unknown_ids_raise_as_before(self, unknown):
        new, old = Population(), DictIndexedPopulation()
        for pop in (new, old):
            pop.bulk_add([1, 2**63 - 1, -2**63], [0.0, 0.0, 0.0])
        assert (unknown in new) is (unknown in old) is False
        for method in ("row_of", "remove"):
            assert _outcome(lambda: getattr(new, method)(unknown)) == (
                _outcome(lambda: getattr(old, method)(unknown))
            ) == (AllocationError, f"device {unknown} is not allocated")
        assert new.row_of(2**63 - 1) == 1 and new.row_of(-2**63) == 2

    def test_duplicates_rejected_without_mutation(self):
        pop = Population()
        pop.bulk_add([5, 6, 7, 8], np.arange(4.0))
        before = pop.device_id.copy()
        assert _outcome(lambda: pop.bulk_add([9, 10, 9], np.zeros(3))) == (
            AllocationError, "duplicate device ids in bulk add",
        )
        # The first known id in batch order is named.
        assert _outcome(
            lambda: pop.bulk_add([11, 7, 12, 5], np.zeros(4))
        ) == (AllocationError, "device 7 already allocated")
        assert pop.device_id.tolist() == before.tolist()
        assert 9 not in pop and 11 not in pop
        # After removals shift rows, a removed id is free and the
        # shifted ones are still known.
        pop.remove(5)
        pop.remove(7)
        assert _outcome(lambda: pop.bulk_add([13, 8], np.zeros(2))) == (
            AllocationError, "device 8 already allocated",
        )
        assert pop.bulk_add([7, 5], np.zeros(2)).tolist() == [2, 3]
        assert [pop.row_of(d) for d in (6, 8, 7, 5)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences_match_the_dict_index(self, seed):
        rng = np.random.default_rng(seed)
        new, old = Population(initial_capacity=1), DictIndexedPopulation(1)
        for _ in range(300):
            op = rng.integers(0, 4)
            device = int(rng.integers(-20, 40))
            if op == 0:
                size = int(rng.integers(0, 6))
                batch = rng.integers(-20, 40, size)
                snrs = rng.normal(-10.0, 5.0, size)
                calls = [lambda p: p.bulk_add(batch, snrs)]
            elif op == 1:
                calls = [lambda p: p.add(device, -1.0)]
            elif op == 2:
                calls = [lambda p: p.remove(device)]
            else:
                calls = [lambda p: p.row_of(device), lambda p: device in p]
            for call in calls:
                assert _outcome(lambda: call(new)) == _outcome(
                    lambda: call(old)
                )
            for name, _, _ in Population._COLUMNS:
                assert np.array_equal(
                    getattr(new, name), getattr(old, name)
                )
        assert new.n_devices > 10

    def test_office_population_retains_columns_plus_16_bytes_a_device(self):
        """10^5 devices retain their 41 B-a-device columns, the
        16 B-a-device index (sorted ids plus their rows) and at most
        64 KiB besides; the dict index it replaced retained ~116 B a
        device more."""
        n = 100_000
        office_population(16, rng=1)  # first-call imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pop = office_population(n, rng=1)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        columns = sum(
            getattr(pop, name).nbytes for name, _, _ in Population._COLUMNS
        )
        assert pop.n_devices == n
        assert columns == 41 * n
        assert retained <= columns + 16 * n + 64 * 1024
