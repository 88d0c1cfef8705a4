"""Flat-array population state: the million-device protocol backbone.

One Python object per device is invisible at the paper's 256 devices;
at population scale it *is* the cost, because every admit, re-rank and
round walks Python dictionaries. This module applies the batched-fading
treatment (the ``step_tracks`` idiom) to protocol state: one
:class:`Population` holds the whole AP-cluster as parallel NumPy columns
(SNR, assigned shift, association phase, grant counter, granted shift),
and the protocol classes (allocation table, association controller, and
the AP over them) are thin views that update masked slices of it. It is
the only per-device protocol state. The per-device-object
implementation they replaced is kept as a test oracle in
``tests/test_population_scale.py``.

Two layers live here:

* **State + kernels** — :class:`Population` (struct-of-arrays with
  amortised growth and a sorted-id index) and the vectorised allocation
  kernels (:func:`spread_slot_indices`, :func:`spread_shifts`,
  :func:`span_group_bounds`, :func:`assign_cluster`) that replace the
  per-device ranking and grouping loops. The kernels are pinned
  bit-identical to the per-device-object oracle by
  ``tests/test_population_scale.py``.
* **Hybrid fidelity** — :func:`split_fidelity` routes each similar-SNR
  group either to the closed-form link law (``core/capacity.py``,
  calibrated against the decode engine) or to an engine-level
  Monte-Carlo round, by the seeded rule documented in
  ``docs/SCALING.md``; :func:`hybrid_population_round` executes one
  population-wide round that way, which is how
  ``examples/living_network.py`` reaches 10^5+ devices.

Basic population bookkeeping:

>>> import numpy as np
>>> pop = Population()
>>> pop.bulk_add([7, 3, 9], [-12.0, -10.0, -14.0])
array([0, 1, 2])
>>> pop.n_devices
3
>>> pop.snr_db
array([-12., -10., -14.])
>>> pop.row_of(9)
2
>>> pop.ranked_rows()          # descending SNR, ties by insertion order
array([1, 0, 2])
>>> pop.remove(7)
>>> pop.device_id
array([3, 9])

The folded spread kernel (rank 0 strongest at one spectrum edge, rank 1
at the other, weakest mid-ring — Fig. 8's "High Power | Low Power |
High Power" layout), vectorised and cached per ``(devices, slots)``:

>>> spread_slot_indices(5, 10).tolist()
[0, 8, 2, 6, 4]
>>> spread_slot_indices(5, 10) is spread_slot_indices(5, 10)
True

The seeded fidelity split is deterministic in ``(snrs, rule, seed)``:

>>> snrs = np.array([-8.0, -9.0, -30.0, -31.0])
>>> groups = [np.array([0, 1]), np.array([2, 3])]
>>> split = split_fidelity(snrs, groups, FidelityRule(), seed=1)
>>> split.monte_carlo.tolist()    # group below the -10 dB validity floor
[False, True]
>>> split.reasons
['closed_form', 'validity_floor']
"""

from __future__ import annotations

import contextvars
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import NetScatterConfig
from repro.errors import AllocationError, ConfigurationError
from repro.utils import parallel
from repro.utils.rng import RngLike, make_rng

#: Association lifecycle encoded in :attr:`Population.phase`: a
#: joining device is requested, then granted a shift, then confirmed
#: by its ACK.
PHASE_REQUESTED = 0
PHASE_GRANTED = 1
PHASE_CONFIRMED = 2

#: The golden-ratio increment :func:`repro.utils.rng.child_seed` mixes
#: into per-index seeds; :func:`split_fidelity`'s per-group seeds reuse it.
_SEED_GOLDEN = 0x9E3779B97F4A7C15
_SEED_MASK = 2**63 - 1


class Population:
    """Struct-of-arrays over an AP-cluster's devices.

    Parallel columns indexed by *row* (insertion order, the same order a
    Python dict of per-device objects would iterate in):

    ``device_id``
        int64 identifier (unique; :meth:`row_of` finds its row by
        binary search over a sorted id index).
    ``snr_db``
        float64 effective uplink SNR at the AP (post power-control).
    ``shift``
        int64 assigned cyclic shift; ``-1`` while unassigned.
    ``phase``
        int8 association phase (``PHASE_REQUESTED`` /
        ``PHASE_GRANTED`` / ``PHASE_CONFIRMED``).
    ``grant_repeats``
        int64 grant retransmission counter (association backoff).
    ``granted_shift``
        int64 shift frozen into the grant message (stays stale if a
        later admit re-packs the ring — protocol-visible behaviour).

    41 B a device, plus the 16 B-a-device id index.

    Columns are exposed as live views of the first ``n_devices`` rows so
    the protocol layer can apply masked bulk updates in place; storage
    grows by doubling, so ``bulk_add`` is amortised O(rows added).
    """

    _COLUMNS = (
        ("device_id", np.int64, -1),
        ("snr_db", np.float64, 0.0),
        ("shift", np.int64, -1),
        ("phase", np.int8, PHASE_CONFIRMED),
        ("grant_repeats", np.int64, 0),
        ("granted_shift", np.int64, -1),
    )

    def __init__(self, initial_capacity: int = 64) -> None:
        self._capacity = max(int(initial_capacity), 1)
        self._n = 0
        self._data: Dict[str, np.ndarray] = {
            name: np.full(self._capacity, fill, dtype=dtype)
            for name, dtype, fill in self._COLUMNS
        }
        # The id index: device ids in ascending order and the row of
        # each, 16 B per device (an ``{id: row}`` dict of Python ints
        # holds ~116 B per device).
        self._index_ids = np.empty(0, dtype=np.int64)
        self._index_rows = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #

    @property
    def n_devices(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    def _column(self, name: str) -> np.ndarray:
        return self._data[name][: self._n]

    @property
    def device_id(self) -> np.ndarray:
        return self._column("device_id")

    @property
    def snr_db(self) -> np.ndarray:
        return self._column("snr_db")

    @property
    def shift(self) -> np.ndarray:
        return self._column("shift")

    @property
    def phase(self) -> np.ndarray:
        return self._column("phase")

    @property
    def grant_repeats(self) -> np.ndarray:
        return self._column("grant_repeats")

    @property
    def granted_shift(self) -> np.ndarray:
        return self._column("granted_shift")

    def _grow_to(self, capacity: int) -> None:
        if capacity <= self._capacity:
            return
        new_capacity = self._capacity
        while new_capacity < capacity:
            new_capacity *= 2
        for name, dtype, fill in self._COLUMNS:
            grown = np.full(new_capacity, fill, dtype=dtype)
            grown[: self._n] = self._data[name][: self._n]
            self._data[name] = grown
        self._capacity = new_capacity

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def _index_position(self, device_id: int) -> int:
        """Position of ``device_id`` in the id index, or -1."""
        ids = self._index_ids
        position = int(ids.searchsorted(device_id))
        if position < ids.size and ids[position] == device_id:
            return position
        return -1

    def __contains__(self, device_id: int) -> bool:
        return self._index_position(int(device_id)) >= 0

    def row_of(self, device_id: int) -> int:
        """Row index of ``device_id``; raises on unknown devices."""
        position = self._index_position(int(device_id))
        if position < 0:
            raise AllocationError(f"device {device_id} is not allocated")
        return int(self._index_rows[position])

    def add(self, device_id: int, snr_db: float) -> int:
        """Append one device; returns its row index."""
        return int(self.bulk_add([device_id], [snr_db])[0])

    def bulk_add(
        self,
        device_ids: Sequence[int],
        snrs_db: Sequence[float],
    ) -> np.ndarray:
        """Append many devices at once; returns their row indices.

        One capacity check, one copy per column — the O(rows-added) bulk
        admit the scale path depends on — and one merge into the id
        index. Duplicate ids (within the batch, or against the existing
        population, where the first known id in batch order is named)
        are rejected by one vectorised check before anything changes.
        """
        ids = np.asarray(device_ids, dtype=np.int64)
        snrs = np.asarray(snrs_db, dtype=np.float64)
        if ids.shape != snrs.shape or ids.ndim != 1:
            raise AllocationError(
                "device ids and SNRs must be 1-D and aligned"
            )
        order = np.argsort(ids, kind="stable")
        new_ids = ids[order]
        if np.any(new_ids[1:] == new_ids[:-1]):
            raise AllocationError("duplicate device ids in bulk add")
        positions = np.searchsorted(self._index_ids, new_ids)
        known = np.zeros(ids.size, dtype=bool)
        if self._index_ids.size:
            known[order] = (
                self._index_ids[np.minimum(positions, self._n - 1)]
                == new_ids
            )
        if known.any():
            raise AllocationError(
                f"device {int(ids[np.argmax(known)])} already allocated"
            )
        start = self._n
        self._grow_to(start + ids.size)
        self._n = start + ids.size
        rows = np.arange(start, self._n)
        self._data["device_id"][rows] = ids
        self._data["snr_db"][rows] = snrs
        for name, dtype, fill in self._COLUMNS[2:]:
            self._data[name][rows] = fill
        self._index_ids = np.insert(self._index_ids, positions, new_ids)
        self._index_rows = np.insert(
            self._index_rows, positions, rows[order]
        )
        return rows

    def remove(self, device_id: int) -> None:
        """Remove one device, compacting rows (insertion order kept)."""
        row = self.row_of(device_id)
        for name, _, _ in self._COLUMNS:
            column = self._data[name]
            column[row : self._n - 1] = column[row + 1 : self._n]
        self._n -= 1
        position = self._index_position(int(device_id))
        self._index_ids = np.delete(self._index_ids, position)
        self._index_rows = np.delete(self._index_rows, position)
        self._index_rows[self._index_rows > row] -= 1

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #

    def ranked_rows(self) -> np.ndarray:
        """Rows in descending-SNR order, ties by insertion order.

        The stable counterpart of Python's ``sorted(..., reverse=True)``
        over a per-device dict — the canonical ring order the allocation
        table ranks by.
        """
        return np.argsort(-self.snr_db, kind="stable")


# ---------------------------------------------------------------------- #
# vectorised allocation kernels
# ---------------------------------------------------------------------- #


@lru_cache(maxsize=512)
def spread_slot_indices(n_devices: int, n_slots: int) -> np.ndarray:
    """Folded slot indices for descending-SNR ranks, cached per shape.

    Two requirements combine here:

    * *spread*: below capacity, occupied slots spread evenly over the
      ring, which is why the paper observes an effective SKIP >= 3
      separation when fewer than half the slots are in use (Section
      4.4's variance discussion);
    * *fold*: even ranks walk the spread positions forward from the
      first spectrum edge, odd ranks walk them backward from the other
      edge, so strong devices occupy both edges and the weakest land
      mid-ring at maximum cyclic distance from them (Fig. 8's "High
      Power | Low Power | High Power" layout).

    Returns a read-only int64 array (cached; do not mutate).

    >>> spread_slot_indices(4, 8).tolist()
    [0, 6, 2, 4]
    >>> spread_slot_indices(1, 8).tolist()
    [0]
    """
    if n_devices > n_slots:
        raise AllocationError("more devices than slots")
    ranks = np.arange(n_devices, dtype=np.int64)
    positions = (ranks * n_slots) // n_devices
    indices = np.empty(n_devices, dtype=np.int64)
    indices[0::2] = positions[: (n_devices + 1) // 2]
    indices[1::2] = positions[::-1][: n_devices // 2]
    indices.setflags(write=False)
    return indices


def spread_shifts(
    snrs_db: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """Per-row spread shifts for a population (stable ranking).

    ``slots`` is the ring-ordered data-slot array; row ``i`` of the
    result is device ``i``'s shift under the canonical folded spread —
    the per-rank folded placement as one argsort plus two gathers.

    >>> import numpy as np
    >>> spread_shifts(np.array([-10.0, -30.0, -20.0]),
    ...               np.array([2, 4, 6, 8, 10, 12])).tolist()
    [2, 6, 10]
    """
    snrs = np.asarray(snrs_db, dtype=np.float64)
    n = snrs.size
    order = np.argsort(-snrs, kind="stable")
    indices = spread_slot_indices(n, int(np.asarray(slots).size))
    shifts = np.empty(n, dtype=np.int64)
    shifts[order] = np.asarray(slots, dtype=np.int64)[indices]
    return shifts


def span_group_bounds(
    sorted_snrs_desc: np.ndarray, group_span_db: float
) -> List[int]:
    """Greedy span-group boundaries over descending-sorted SNRs.

    Returns the start index of each group of Section 3.3.3's greedy
    walk over the sorted SNRs: a group extends while ``top - snr <=
    group_span_db``. The loop runs once per *group*, not per device. A
    NaN span or a non-finite SNR would stall the walk, so both are
    rejected.
    """
    if not group_span_db > 0:
        raise ConfigurationError(
            f"group span must be positive, got {group_span_db}"
        )
    s = np.asarray(sorted_snrs_desc, dtype=np.float64)
    _require_finite_snrs(s, "sorted position")
    bounds: List[int] = []
    start = 0
    n = s.size
    while start < n:
        bounds.append(start)
        inside = s[start] - s[start:] <= group_span_db
        if inside.all():
            break
        start += int(np.argmin(inside))
    return bounds


def _require_finite_snrs(snrs: np.ndarray, where: str) -> None:
    """Raise :class:`ConfigurationError` naming the first NaN or
    infinite SNR (span grouping cannot place it)."""
    bad = np.flatnonzero(~np.isfinite(snrs))
    if bad.size:
        raise ConfigurationError(
            f"SNR at {where} {bad[0]} is not finite: {snrs[bad[0]]}"
        )


def assign_cluster(
    snrs_db: np.ndarray,
    config: NetScatterConfig,
    group_span_db: float = 35.0,
) -> List[np.ndarray]:
    """Partition a population into schedulable similar-SNR groups.

    Section 3.3.3: greedy span grouping over the descending-SNR order
    (:func:`span_group_bounds`), so each concurrent round stays inside
    the tolerable dynamic range, then a max-size split capping each
    group at ``config.max_devices``. Returns one row-index array per
    group, members in descending-SNR order.
    """
    snrs = np.asarray(snrs_db, dtype=np.float64)
    if snrs.size == 0:
        return []
    _require_finite_snrs(snrs, "row")
    order = np.argsort(snrs)[::-1]
    s = snrs[order]
    max_size = config.max_devices
    groups: List[np.ndarray] = []
    bounds = span_group_bounds(s, group_span_db)
    bounds.append(snrs.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for start in range(lo, hi, max_size):
            groups.append(order[start : min(start + max_size, hi)])
    return groups


# ---------------------------------------------------------------------- #
# hybrid fidelity
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FidelityRule:
    """The documented, seeded fidelity-split rule (docs/SCALING.md).

    A similar-SNR group is simulated with the engine (Monte-Carlo) when
    any of these hold, in priority order; otherwise it is aggregated in
    closed form:

    * ``validity_floor`` — a member sits below
      ``closed_form_min_snr_db``, the floor under which the calibrated
      closed-form law drifts from the engine. The default (-10 dB at
      SF 9) keeps closed-form groups out of the marginal-delivery
      transition zone, where the law's residual bias (up to ~+0.04
      delivery per device around -16 dB) would otherwise accumulate
      into a visible population-level skew; above the floor the
      per-device delivery gap is under ~0.015 (docs/SCALING.md
      tabulates the measured curve);
    * ``contended`` — the group's internal SNR span exceeds
      ``contention_span_db``, so near-far side-lobe interference
      (which the closed form does not model) matters;
    * ``audit`` — a seeded random sample of otherwise closed-form
      groups (``audit_fraction``) also runs Monte-Carlo so every hybrid
      round cross-checks the law in production.

    The audit draw is made for *every* group from
    ``numpy.random.default_rng(seed)`` before any routing decision, so
    one group's mode never perturbs another's draw and the whole split
    is a pure function of ``(snrs, rule, seed)``.

    Construction raises :class:`~repro.errors.ConfigurationError` on an
    impossible rule: spans must be finite and positive, the floor
    finite, ``audit_fraction`` within [0, 1] and ``monte_carlo_rounds``
    an integer of at least 1.
    """

    group_span_db: float = 35.0
    closed_form_min_snr_db: float = -10.0
    contention_span_db: float = 30.0
    audit_fraction: float = 0.02
    monte_carlo_rounds: int = 1

    def __post_init__(self) -> None:
        for name in ("group_span_db", "contention_span_db"):
            span = getattr(self, name)
            if not 0.0 < span < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {span}"
                )
        if not math.isfinite(self.closed_form_min_snr_db):
            raise ConfigurationError(
                "closed_form_min_snr_db must be finite, got "
                f"{self.closed_form_min_snr_db}"
            )
        if not 0.0 <= self.audit_fraction <= 1.0:
            raise ConfigurationError(
                f"audit_fraction must lie in [0, 1], got {self.audit_fraction}"
            )
        rounds = self.monte_carlo_rounds
        if not (isinstance(rounds, (int, np.integer)) and rounds >= 1):
            raise ConfigurationError(
                f"monte_carlo_rounds must be an integer >= 1, got {rounds}"
            )


@dataclass
class FidelitySplit:
    """Routing decision of one hybrid round."""

    monte_carlo: np.ndarray
    reasons: List[str]
    group_seeds: np.ndarray
    seed: int

    @property
    def n_monte_carlo(self) -> int:
        return int(np.sum(self.monte_carlo))


def split_fidelity(
    snrs_db: np.ndarray,
    groups: Sequence[np.ndarray],
    rule: FidelityRule,
    seed: int,
    force_monte_carlo: bool = False,
) -> FidelitySplit:
    """Route each group to closed form or Monte-Carlo (seeded, pure).

    Also derives one child seed per group (same golden-ratio mix as
    :func:`repro.utils.rng.child_seed`) — drawn after the audit draws,
    independent of the routing outcome, so a Monte-Carlo leg's draws
    never depend on how *other* groups were routed.
    """
    snrs = np.asarray(snrs_db, dtype=np.float64)
    n_groups = len(groups)
    rng = np.random.default_rng(seed)
    audit_draws = rng.random(n_groups)
    base = rng.integers(0, 2**63 - 1, size=max(n_groups, 1))
    indices = np.arange(n_groups, dtype=np.uint64)
    group_seeds = (
        base[:n_groups].astype(np.uint64)
        ^ ((indices * np.uint64(_SEED_GOLDEN)) & np.uint64(_SEED_MASK))
    ).astype(np.int64)

    monte_carlo = np.zeros(n_groups, dtype=bool)
    reasons: List[str] = []
    for g, rows in enumerate(groups):
        member_snrs = snrs[rows]
        if force_monte_carlo:
            monte_carlo[g] = True
            reasons.append("forced")
        elif float(member_snrs.min()) < rule.closed_form_min_snr_db:
            monte_carlo[g] = True
            reasons.append("validity_floor")
        elif (
            float(member_snrs.max() - member_snrs.min())
            > rule.contention_span_db
        ):
            monte_carlo[g] = True
            reasons.append("contended")
        elif audit_draws[g] < rule.audit_fraction:
            monte_carlo[g] = True
            reasons.append("audit")
        else:
            reasons.append("closed_form")
    return FidelitySplit(
        monte_carlo=monte_carlo,
        reasons=reasons,
        group_seeds=group_seeds,
        seed=int(seed),
    )


@dataclass
class PopulationRoundResult:
    """Aggregate outcome of one hybrid population round.

    ``delivery_ratio`` / ``bit_error_rate`` mix the closed-form groups'
    *expected* values with the Monte-Carlo groups' *realised* ones,
    weighted by group size — the population-level metrics the scaling
    curves in ``docs/SCALING.md`` report.
    """

    n_devices: int
    n_groups: int
    n_closed_form_groups: int
    n_monte_carlo_groups: int
    n_closed_form_devices: int
    n_monte_carlo_devices: int
    delivery_ratio: float
    bit_error_rate: float
    seed: int
    reasons: List[str] = field(default_factory=list)
    #: Delivery-ratio gaps |closed form - engine| of the audited groups.
    audit_gaps: List[float] = field(default_factory=list)

    @property
    def audit_max_gap(self) -> float:
        return max(self.audit_gaps) if self.audit_gaps else 0.0


def office_population(
    n_devices: int,
    rng: RngLike = None,
    snr_scale_db: float = 0.0,
    floor_size_m=(40.0, 20.0),
    room_size_m: float = 8.0,
    min_distance_m: float = 4.0,
    budget=None,
) -> Population:
    """Vectorised office-floor population (the scale-path deployment).

    Applies the same link-budget law as
    :func:`repro.channel.deployment.paper_deployment` — log-distance
    path loss plus per-wall penalties through the room grid — but draws
    every position in one batch and computes every SNR as array maths,
    so building 10^6 devices allocates columns, not objects. The
    per-position SNR law is pinned against ``LinkBudget.uplink_snr_db``
    by the equivalence suite. ``snr_scale_db`` shifts the whole
    population (the experiments' ``reference_snr_scale_db`` knob).
    """
    from repro.channel.awgn import noise_power_dbm
    from repro.channel.link import LinkBudget
    from repro.channel.pathloss import free_space_path_loss_db

    if n_devices < 1:
        raise ConfigurationError("need at least one device")
    if budget is None:
        budget = LinkBudget(path_loss_exponent=2.0, wall_loss_db=2.0)
    generator = make_rng(rng)
    fx, fy = float(floor_size_m[0]), float(floor_size_m[1])
    ap = np.array([fx / 2.0, fy / 2.0])
    xy = generator.uniform([0.0, 0.0], [fx, fy], size=(n_devices, 2))
    distance = np.hypot(xy[:, 0] - ap[0], xy[:, 1] - ap[1])
    distance = np.maximum(distance, min_distance_m)

    walls = np.zeros(n_devices, dtype=np.int64)
    for axis in range(2):
        lo = np.minimum(ap[axis], xy[:, axis]) / room_size_m
        hi = np.maximum(ap[axis], xy[:, axis]) / room_size_m
        walls += np.maximum(
            0, np.floor(hi).astype(np.int64) - np.ceil(lo).astype(np.int64) + 1
        )

    reference = free_space_path_loss_db(1.0, budget.carrier_freq_hz)
    one_way = (
        reference
        + 10.0
        * budget.path_loss_exponent
        * np.log10(np.maximum(distance, 1.0))
        + walls * budget.wall_loss_db
    )
    uplink_rssi = (
        budget.ap_tx_power_dbm
        + 2.0 * budget.tag_antenna_gain_dbi
        - 2.0 * one_way
        - budget.backscatter_insertion_loss_db
    )
    snrs = (
        uplink_rssi
        - noise_power_dbm(budget.bandwidth_hz, budget.noise_figure_db)
        + snr_scale_db
    )
    pop = Population(initial_capacity=n_devices)
    pop.bulk_add(np.arange(n_devices, dtype=np.int64), snrs)
    return pop


#: Devices per batched closed-form pass. Batching amortises the χ²
#: series' per-call dispatch over many groups (it dominated when each
#: ~255-device group was scored alone); the bound caps the series'
#: working set, about nine 8-byte values per device until its lanes
#: retire (~1.2 MB per chunk; one unchunked 10^5-device pass of the
#: full-length series raised peak RSS by ~6 MB).
_CLOSED_FORM_CHUNK = 16384


def _closed_form_group_metrics(
    snrs: np.ndarray,
    groups: Sequence[np.ndarray],
    wanted: Sequence[int],
    config: NetScatterConfig,
) -> Dict[int, Tuple[float, float]]:
    """Expected (delivered, mean BER) of each wanted group, by group.

    The wanted groups' members are concatenated into chunks of at most
    :data:`_CLOSED_FORM_CHUNK` devices (a larger group is a chunk of
    its own), each scored by one pass of each public link-law function
    (the names the repository benchmark's trace observes as
    ``core.closed_form``); every group then reads its sums off its
    contiguous slice. The law is elementwise, so each group's values
    are those of scoring it alone.
    """
    from repro.core import capacity

    metrics: Dict[int, Tuple[float, float]] = {}

    def score(chunk: List[int]) -> None:
        members = np.concatenate([snrs[groups[g]] for g in chunk])
        delivery = capacity.packet_delivery_probability(
            members, config.spreading_factor
        )
        ber = capacity.effective_bit_error_rate(
            members, config.spreading_factor
        )
        start = 0
        for g in chunk:
            stop = start + groups[g].size
            metrics[g] = (
                float(np.sum(delivery[start:stop])),
                float(np.mean(ber[start:stop])),
            )
            start = stop

    chunk: List[int] = []
    size = 0
    for g in wanted:
        if chunk and size + groups[g].size > _CLOSED_FORM_CHUNK:
            score(chunk)
            chunk, size = [], 0
        chunk.append(g)
        size += groups[g].size
    if chunk:
        score(chunk)
    return metrics


def _monte_carlo_group_metrics(
    snrs: np.ndarray,
    device_ids: np.ndarray,
    config: NetScatterConfig,
    seed: int,
    n_rounds: int,
):
    """Engine-level realised (delivered, BER) for one contended group."""
    from repro.channel.deployment import Deployment
    from repro.protocol.network import NetworkSimulator

    deployment = Deployment.from_snrs(snrs, device_ids=device_ids)
    simulator = NetworkSimulator(
        deployment,
        config=config,
        power_control=False,
        rng=int(seed) & _SEED_MASK,
    )
    metrics = simulator.run_rounds(n_rounds)
    return (
        metrics.delivery_ratio * snrs.size,
        metrics.bit_error_rate,
    )


def _pooled_leg(*job) -> Tuple[float, float]:
    """One Monte-Carlo leg on the caller, marked as a pool worker."""
    parallel.mark_parallel()
    return _monte_carlo_group_metrics(*job)


class _MonteCarloLegs:
    """The Monte-Carlo legs of one cycle, run by forked workers and the caller.

    ``jobs`` are :func:`_monte_carlo_group_metrics` argument tuples.
    Entering the block forks ``min(usable CPUs, legs) - 1`` worker
    processes, which start on the legs at once; :meth:`run` then runs
    the caller's share and returns every leg's result in job order. The
    caller can do other work in between, such as scoring the closed
    form. Every leg owns its pre-derived child seed, so which process
    runs it changes nothing.

    * **Sharing.** The workers inherit the jobs by the fork, so no
      population column is copied or pickled. Each sends back only its
      legs' results, over a pipe of its own. Forking needs no other
      thread of the caller to hold a lock the legs take; the cycle
      starts no thread before it forks.
    * **Claiming.** Job 0 is the caller's, so the caller always runs at
      least one leg. Every other leg is claimed from one shared counter,
      in job order, by the workers and, once it is done with job 0, by
      the caller.
    * **Marking.** Each leg runs marked as a pool worker
      (:func:`repro.utils.parallel.mark_parallel`), so its decode opens
      no stage thread of its own. The caller's legs run in a copy of its
      context, so the mark ends with the leg, and context-carried state
      such as trace spans keeps its parent.
    * **Failures.** Once a leg fails no new leg starts, the running ones
      finish, and :meth:`run` raises the first failure in job order. A
      leg whose worker died without sending its result is a failure too.
    * **Lifetime.** No worker outlives the block: :meth:`run` joins them
      all, and leaving the block early (a failure of the caller's other
      work, ``KeyboardInterrupt``) terminates and joins them.

    On one usable CPU, for at most one leg, or inside a pool worker
    (:func:`repro.utils.parallel.in_parallel`), nothing is forked and
    :meth:`run` runs the legs serially on the caller.
    """

    def __init__(self, jobs: Sequence[tuple]) -> None:
        self.jobs = list(jobs)
        self.n_workers = min(parallel.usable_cpus(), len(self.jobs)) - 1
        if parallel.in_parallel():
            self.n_workers = 0
        self.workers: List[tuple] = []  # (process, reader), until joined
        self.outcomes: Dict[int, Tuple[bool, object]] = {}
        self.exitcodes: List[int] = []

    def __enter__(self) -> "_MonteCarloLegs":
        if self.n_workers < 1:
            return self
        # Imported here so that importing the program and a serial
        # cycle never pay for multiprocessing.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._lock = context.Lock()
        self._next = context.RawValue("q", 1)
        self._stopped = context.RawValue("b", 0)
        try:
            for index in range(self.n_workers):
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=self._work,
                    args=(writer,),
                    name=f"monte-carlo-leg-{index}",
                    daemon=True,
                )
                self.workers.append((process, reader))
                process.start()
                # Only the worker may hold the write end, so its exit
                # reads as end of file.
                writer.close()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, kind, error, trace) -> None:
        for process, reader in self.workers:
            if process.pid is not None:
                process.terminate()
                process.join()
            reader.close()
        self.workers = []

    def run(self) -> List[Tuple[float, float]]:
        """Every leg's result in job order; the caller runs its share."""
        if self.n_workers < 1:
            return [_monte_carlo_group_metrics(*job) for job in self.jobs]
        for job in itertools.chain([0], iter(self._claim, None)):
            try:
                result = contextvars.copy_context().run(
                    _pooled_leg, *self.jobs[job]
                )
            except Exception as failure:
                self._stop()
                self.outcomes[job] = (False, failure)
                break
            self.outcomes[job] = (True, result)
            self._gather(block=False)
        self._gather(block=True)
        results = []
        for job in range(len(self.jobs)):
            # A leg that never started comes after a failed one.
            if job not in self.outcomes:
                raise RuntimeError(
                    f"Monte-Carlo leg {job} returned no result: its worker "
                    f"process died (worker exit codes {self.exitcodes})"
                )
            ok, value = self.outcomes[job]
            if not ok:
                raise value
            results.append(value)
        return results

    def _claim(self) -> Optional[int]:
        """The next unstarted leg, or ``None`` once none is left."""
        with self._lock:
            job = self._next.value
            if self._stopped.value or job >= len(self.jobs):
                return None
            self._next.value = job + 1
            return job

    def _stop(self) -> None:
        with self._lock:
            self._stopped.value = 1

    def _work(self, writer) -> None:
        """A worker process: claim legs and send their outcomes.

        It ignores ``SIGINT``: an interrupted caller terminates it.
        """
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        parallel.mark_parallel()
        for job in iter(self._claim, None):
            try:
                writer.send(
                    (job, True, _monte_carlo_group_metrics(*self.jobs[job]))
                )
            except Exception as failure:
                self._stop()
                writer.send((job, False, failure))
                return

    def _gather(self, block: bool) -> None:
        """Read the outcomes the workers sent; join the ones that ended.

        With ``block``, wait until every worker has ended.
        """
        from multiprocessing import connection

        while self.workers:
            if block:
                connection.wait(
                    [reader for _, reader in self.workers]
                    + [process.sentinel for process, _ in self.workers]
                )
            for process, reader in list(self.workers):
                ended = not process.is_alive()
                while reader.poll():
                    try:
                        job, ok, value = reader.recv()
                    except EOFError:
                        break
                    self.outcomes[job] = (ok, value)
                if ended:
                    process.join()
                    reader.close()
                    self.exitcodes.append(process.exitcode)
                    self.workers.remove((process, reader))
            if not block:
                return


def hybrid_population_round(
    population: Population,
    config: Optional[NetScatterConfig] = None,
    rule: Optional[FidelityRule] = None,
    seed: int = 0,
    force_monte_carlo: bool = False,
) -> PopulationRoundResult:
    """One population-wide round under the hybrid-fidelity split.

    Partitions the population into similar-SNR groups
    (:func:`assign_cluster`), routes each group by the seeded
    :class:`FidelityRule`, aggregates the uncontended bulk through the
    calibrated closed-form link law and simulates the contended tail
    with the analytic decode engine — ``rule.monte_carlo_rounds``
    concurrent rounds per Monte-Carlo group, each group seeded by its
    pre-derived child seed. Audited groups contribute their engine
    result and record the |closed form - engine| delivery gap.

    The Monte-Carlo groups decode concurrently on the usable CPUs
    (:class:`_MonteCarloLegs`): forked workers start on the legs while
    the caller scores the closed form, then the caller joins them. The
    results are gathered by group index and accumulated in group order,
    so every sum, every ``audit_gaps`` entry and the result as a whole
    are those of a serial run.

    The population's ``snr_db`` column is taken as the *effective*
    (post power-control) uplink SNR; both fidelity modes consume the
    same convention, which is what makes them statistically
    interchangeable (gated at 10^4 devices by
    ``tests/test_population_scale.py``).
    """
    if config is None:
        config = NetScatterConfig(n_association_shifts=0)
    if rule is None:
        rule = FidelityRule()
    snrs = population.snr_db
    if snrs.size == 0:
        raise ConfigurationError("population is empty")
    groups = assign_cluster(snrs, config, rule.group_span_db)
    split = split_fidelity(
        snrs, groups, rule, seed, force_monte_carlo=force_monte_carlo
    )

    legged = np.flatnonzero(split.monte_carlo).tolist()
    jobs = [
        (
            snrs[groups[g]],
            population.device_id[groups[g]],
            config,
            int(split.group_seeds[g]),
            rule.monte_carlo_rounds,
        )
        for g in legged
    ]
    # The leg workers start before the closed form is scored, so the
    # caller scores it while they run legs, then joins them.
    with _MonteCarloLegs(jobs) as monte_carlo:
        closed_form = _closed_form_group_metrics(
            snrs,
            groups,
            [
                g
                for g, reason in enumerate(split.reasons)
                if reason in ("closed_form", "audit")
            ],
            config,
        )
        legs = dict(zip(legged, monte_carlo.run()))
    delivered = 0.0
    ber_weighted = 0.0
    cf_groups = mc_groups = cf_devices = mc_devices = 0
    audit_gaps: List[float] = []
    for g, rows in enumerate(groups):
        if split.monte_carlo[g]:
            group_delivered, group_ber = legs[g]
            mc_groups += 1
            mc_devices += rows.size
            if split.reasons[g] == "audit":
                expected, _ = closed_form[g]
                audit_gaps.append(
                    abs(expected - group_delivered) / rows.size
                )
        else:
            group_delivered, group_ber = closed_form[g]
            cf_groups += 1
            cf_devices += rows.size
        delivered += group_delivered
        ber_weighted += group_ber * rows.size

    n = int(snrs.size)
    return PopulationRoundResult(
        n_devices=n,
        n_groups=len(groups),
        n_closed_form_groups=cf_groups,
        n_monte_carlo_groups=mc_groups,
        n_closed_form_devices=cf_devices,
        n_monte_carlo_devices=mc_devices,
        delivery_ratio=delivered / n,
        bit_error_rate=ber_weighted / n,
        seed=int(seed),
        reasons=split.reasons,
        audit_gaps=audit_gaps,
    )
