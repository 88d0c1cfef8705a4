"""Power-aware cyclic-shift allocation (Section 3.2.3).

The near-far problem: a zero-padded FFT peak carries sinc side lobes, so a
strong device buries weak devices in nearby bins. The paper's coarse-
grained fix is allocation: sort devices by SNR and assign shifts so that
similar-SNR devices sit in adjacent bins and the weakest devices sit at
the maximum cyclic distance from the strongest. Because the dechirped
spectrum wraps (Fig. 15b is symmetric), "far" means *cyclic* bin distance
— so a simple descending-SNR walk around the ring would put the weakest
device right back next to the strongest at the wrap point. The correct
layout is the *folded* one the paper's Fig. 8 annotates ("High Power |
Low Power | High Power"): strong devices at both edges of the spectrum,
SNR decreasing toward the middle from both sides, weakest devices
mid-ring — maximally (cyclically) distant from the strong edges.

Association reserves one shift in the high-SNR region (near bin 0) and one
in the low-SNR region (near the middle), each with SKIP-guards, so joining
devices of any strength can be heard (Section 3.3.2).

Population state is flat: :class:`AllocationTable` keeps its device
columns in a :class:`repro.protocol.population.Population`
(struct-of-arrays), the AP's only per-device protocol state, and
ranks/spreads with the vectorised kernels, so a re-spread is a few array
ops instead of a per-device dictionary walk. The equivalence suite
(``tests/test_population_scale.py``) pins it bit-identical to a
per-device-object oracle kept next to the tests.

The slot geometry is cached per configuration: ``_data_slots`` /
``association_shifts`` are pure functions of the frozen
:class:`NetScatterConfig`, computed once per config instead of on every
call (pinned by a regression test).

>>> from repro.core.config import NetScatterConfig
>>> config = NetScatterConfig(n_association_shifts=0)
>>> power_aware_allocation([-30.0, -10.0], config)
{1: 2, 0: 258}
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import NetScatterConfig
from repro.errors import AllocationError

def cyclic_bin_distance(a: float, b: float, n_bins: int) -> float:
    """Cyclic distance between two bins on the ``n_bins`` ring."""
    raw = abs(float(a) - float(b)) % n_bins
    return min(raw, n_bins - raw)


def power_aware_allocation(
    snrs_db: Sequence[float], config: NetScatterConfig
) -> Dict[int, int]:
    """Assign SKIP-spaced cyclic shifts by descending SNR.

    ``snrs_db[i]`` is device ``i``'s SNR at the AP (measured during
    association). Returns ``device_index -> shift``. The strongest device
    gets the first data shift after the high-SNR association slot; each
    subsequent (weaker) device gets the next SKIP-spaced shift, so SNR
    decreases monotonically with ring position and the weakest devices end
    up farthest (cyclically) from the strongest.

    The body is one argsort plus a cached folded-gather
    (:func:`repro.protocol.population.spread_slot_indices`); the result
    dict lists devices strongest-first, as the legacy per-rank loop did.
    """
    n_devices = len(snrs_db)
    if n_devices == 0:
        raise AllocationError("no devices to allocate")
    slots = _data_slot_array(config)
    if n_devices > slots.size:
        raise AllocationError(
            f"{n_devices} devices exceed the {slots.size}-slot capacity "
            f"of {config.describe()}"
        )
    from repro.protocol.population import spread_slot_indices

    order = np.argsort(np.asarray(snrs_db, dtype=float))[::-1]
    indices = spread_slot_indices(n_devices, slots.size)
    ranked_shifts = slots[indices]
    return {
        int(device_index): int(shift)
        for device_index, shift in zip(order, ranked_shifts)
    }


def random_allocation(
    n_devices: int, config: NetScatterConfig, rng=None
) -> Dict[int, int]:
    """SKIP-spaced but SNR-blind allocation (the ablation baseline)."""
    from repro.utils.rng import make_rng

    slots = _data_slots(config)
    if n_devices > len(slots):
        raise AllocationError(
            f"{n_devices} devices exceed the {len(slots)}-slot capacity"
        )
    generator = make_rng(rng)
    chosen = generator.permutation(len(slots))[:n_devices]
    return {i: slots[int(c)] for i, c in enumerate(chosen)}


@lru_cache(maxsize=64)
def _data_slots_cached(config: NetScatterConfig) -> Tuple[int, ...]:
    """The per-config slot walk, computed once (configs are frozen)."""
    n = config.n_bins
    skip = config.skip
    reserved = set()
    for assoc in association_shifts(config):
        for guard in range(-skip, skip + 1):
            reserved.add((assoc + guard) % n)
    slots = []
    for step in range(n // skip):
        shift = (config.skip + step * skip) % n
        if shift not in reserved:
            slots.append(shift)
    return tuple(slots)


@lru_cache(maxsize=64)
def _data_slot_array(config: NetScatterConfig) -> np.ndarray:
    """Read-only int64 slot array per config (the kernels' view)."""
    slots = np.array(_data_slots_cached(config), dtype=np.int64)
    slots.setflags(write=False)
    return slots


def _data_slots(config: NetScatterConfig) -> List[int]:
    """SKIP-spaced data shifts in ring order, skipping association slots.

    The slot list starts just after the high-SNR association shift and
    walks the ring once, excluding the guard neighbourhoods of both
    association shifts. Cached per configuration (the config dataclass
    is frozen/hashable); callers get a fresh list each time.
    """
    return list(_data_slots_cached(config))


@lru_cache(maxsize=64)
def _association_shifts_cached(
    config: NetScatterConfig,
) -> Tuple[int, ...]:
    n_bins, skip, count = config.n_bins, config.skip, config.n_association_shifts
    shifts = [0, (n_bins // 2) // skip * skip][:count]
    # Further slots bisect the ring's gaps on the SKIP grid: quarters,
    # then eighths, ... skipping positions already taken. The config
    # allows at most one slot per grid position, so this ends.
    denominator = 4
    while len(shifts) < count:
        for numerator in range(1, denominator, 2):
            shift = (n_bins * numerator // denominator) // skip * skip
            if shift not in shifts and len(shifts) < count:
                shifts.append(shift)
        denominator *= 2
    return tuple(shifts)


def association_shifts(config: NetScatterConfig) -> List[int]:
    """Reserved association shifts: high-SNR region (bin 0 area) and
    low-SNR region (mid-spectrum), per Section 3.3.2. Cached per
    configuration; callers get a fresh list each time."""
    return list(_association_shifts_cached(config))


def _check_finite(snrs_db) -> None:
    """Reject NaN/inf SNRs before they reach the ring."""
    if not np.all(np.isfinite(np.asarray(snrs_db, dtype=float))):
        raise AllocationError("SNRs must be finite")


class AllocationTable:
    """Incremental power-aware allocation at the AP.

    Maintains the SNR-sorted ring as devices join and leave. A joining
    device is placed at the rank its SNR deserves; if that requires moving
    existing devices, the table performs a *full reassignment* — the event
    the paper handles with the log2(256!)-bit reordering query message.
    The table reports whether each admit was incremental or required
    reassignment so the protocol layer can charge the right overhead.

    The population lives in struct-of-array columns
    (:class:`repro.protocol.population.Population`) and is ranked,
    spread and validated with vectorised kernels. Its decisions (shifts,
    reassignment counts, error behaviour) are pinned bit-identical to a
    per-device-object oracle by ``tests/test_population_scale.py``.
    """

    def __init__(self, config: NetScatterConfig) -> None:
        from repro.protocol.population import Population

        self._config = config
        self._slot_array = _data_slot_array(config)
        self.reassignments = 0
        self._pop = Population()

    @property
    def config(self) -> NetScatterConfig:
        return self._config

    @property
    def population(self):
        """The underlying flat :class:`Population`."""
        return self._pop

    @property
    def n_devices(self) -> int:
        return self._pop.n_devices

    @property
    def capacity(self) -> int:
        return int(self._slot_array.size)

    def assignments(self) -> Dict[int, int]:
        """Current ``device_id -> shift`` map."""
        return dict(
            zip(self._pop.device_id.tolist(), self._pop.shift.tolist())
        )

    def snr_of(self, device_id: int) -> float:
        return float(self._pop.snr_db[self._pop.row_of(device_id)])

    def shift_of(self, device_id: int) -> int:
        return int(self._pop.shift[self._pop.row_of(device_id)])

    def _apply_spread(self) -> bool:
        """Move every device to its spread slot; True if anyone moved.

        "Moved" counts only devices that already held a real shift
        (``-1`` marks a fresh admit) — the newcomer taking its first
        slot is not a reassignment event.
        """
        from repro.protocol.population import spread_shifts

        shifts = self._pop.shift
        target = spread_shifts(self._pop.snr_db, self._slot_array)
        changed = target != shifts
        moved = bool(np.any(changed & (shifts != -1)))
        shifts[changed] = target[changed]
        return moved

    def add_device(self, device_id: int, snr_db: float) -> Tuple[int, bool]:
        """Admit a device; returns ``(shift, reassigned_others)``.

        The newcomer lands at the ring position its SNR deserves. If that
        displaces existing devices, the admit counts as a full
        reassignment — the event the paper announces with the
        log2(256!)-bit reordering query message.
        """
        _check_finite(snr_db)
        if device_id in self._pop:
            raise AllocationError(f"device {device_id} already allocated")
        if self.n_devices >= self.capacity:
            raise AllocationError(
                f"network full: {self.capacity} slots in use"
            )
        row = self._pop.add(device_id, snr_db)
        moved_others = self._apply_spread()
        if moved_others:
            self.reassignments += 1
        return int(self._pop.shift[row]), moved_others

    def remove_device(self, device_id: int) -> bool:
        """Remove a device and re-spread the survivors; returns True if
        any survivor moved (counted as a full reassignment, as an admit
        that displaces devices is)."""
        self._pop.remove(device_id)  # raises if unknown
        moved = self._pop.n_devices > 0 and self._apply_spread()
        if moved:
            self.reassignments += 1
        return moved

    def update_snr(self, device_id: int, snr_db: float) -> bool:
        """Record a significantly changed SNR; returns True if the ring
        had to be re-packed (rank changed)."""
        _check_finite(snr_db)
        row = self._pop.row_of(device_id)
        ranked = self._pop.ranked_rows()
        old_rank = int(np.flatnonzero(ranked == row)[0])
        self._pop.snr_db[row] = float(snr_db)
        ranked = self._pop.ranked_rows()
        new_rank = int(np.flatnonzero(ranked == row)[0])
        if new_rank != old_rank:
            # Full re-pack, announced via the reordering query message.
            self._apply_spread()
            self.reassignments += 1
            return True
        return False

    def validate(self) -> None:
        """Check the allocation invariants; raises on violation.

        * every shift SKIP-aligned and unique,
        * no device inside an association guard region,
        * SNR ordering matches ring ordering over the assigned prefix.
        """
        from repro.protocol.population import spread_shifts

        shifts = self._pop.shift
        if shifts.size == 0:
            return
        misaligned = shifts % self._config.skip != 0
        if np.any(misaligned):
            bad = int(shifts[misaligned][0])
            raise AllocationError(f"shift {bad} breaks SKIP alignment")
        unique, counts = np.unique(shifts, return_counts=True)
        if np.any(counts > 1):
            bad = int(unique[counts > 1][0])
            raise AllocationError(f"shift {bad} double-booked")
        outside = ~np.isin(shifts, self._slot_array)
        if np.any(outside):
            bad = int(shifts[outside][0])
            raise AllocationError(f"shift {bad} is reserved or out of range")
        target = spread_shifts(self._pop.snr_db, self._slot_array)
        mismatched = shifts != target
        if np.any(mismatched):
            bad = int(self._pop.device_id[mismatched][0])
            raise AllocationError(
                f"ring order does not match SNR order (device {bad})"
            )

    def worst_case_exposure_db(
        self, side_lobe_profile=None
    ) -> Optional[float]:
        """Worst (power delta - tolerable delta) over all device pairs.

        For each ordered pair (strong, weak), the strong device's side
        lobe at their cyclic distance must stay below the weak device's
        signal. Returns the worst margin in dB (negative = safe), or
        ``None`` with fewer than two devices. Evaluated as one pairwise
        matrix pass (the profile lookup vectorises over the distance
        matrix).
        """
        from repro.phy.spectrum import side_lobe_profile as make_profile

        if self.n_devices < 2:
            return None
        if side_lobe_profile is None:
            side_lobe_profile = make_profile(
                self._config.chirp_params, self._config.zero_pad_factor
            )
        snrs, shifts = self._pop.snr_db, self._pop.shift
        delta_db = snrs[:, None] - snrs[None, :]
        raw = np.abs(
            shifts[:, None].astype(float) - shifts[None, :].astype(float)
        ) % self._config.n_bins
        distance = np.minimum(raw, self._config.n_bins - raw)
        zp = side_lobe_profile.zero_pad_factor
        idx = (
            np.round(distance * zp).astype(np.int64)
            % side_lobe_profile.n_bins
        )
        lobe_db = side_lobe_profile.power_db[idx]
        margin = np.where(delta_db > 0, delta_db + lobe_db, -np.inf)
        worst = float(np.max(margin))
        return worst if np.isfinite(worst) else None
