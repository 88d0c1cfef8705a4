"""Group scheduling of concurrent rounds (Section 3.3.3).

A network can hold more devices than one concurrent round supports. The
AP assigns devices to groups — by similar signal strength, which also
bounds each group's dynamic range — and schedules groups round-robin,
honouring each device's duty cycle learned at association.

The roster lives in flat NumPy columns (SNR, duty cycle,
rounds-since-transmit), so a rebuild is one stable argsort plus the
vectorised span grouping (:func:`repro.protocol.population.
span_group_bounds`) and a round tick is a handful of masked array
updates. ``tests/test_population_scale.py`` pins every grouping and
round bit-identical to a per-device-object oracle.
:meth:`GroupScheduler.bulk_add` enrols many devices under a single
rebuild.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.protocol.population import span_group_bounds


class GroupScheduler:
    """Round-robin scheduler over SNR-grouped devices."""

    def __init__(
        self, max_group_size: int, group_span_db: float = 35.0
    ) -> None:
        if max_group_size < 1:
            raise ProtocolError("max_group_size must be >= 1")
        self._max_group_size = int(max_group_size)
        self._group_span_db = float(group_span_db)
        self._next_group = 0
        self._ids = np.empty(0, dtype=np.int64)
        self._rows: Dict[int, int] = {}
        self._snr = np.empty(0, dtype=np.float64)
        self._duty = np.empty(0, dtype=np.int64)
        self._rst = np.empty(0, dtype=np.int64)
        self._group_rows: List[np.ndarray] = []
        self._groups: List[List[int]] = []

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    @property
    def groups(self) -> List[List[int]]:
        return [list(g) for g in self._groups]

    def add_device(
        self, device_id: int, snr_db: float, duty_cycle_rounds: int = 1
    ) -> None:
        if device_id in self._rows:
            raise ProtocolError(f"device {device_id} already scheduled")
        if duty_cycle_rounds < 1:
            raise ProtocolError("duty cycle must be >= 1 round")
        if not np.isfinite(snr_db):
            raise ProtocolError(f"SNR of device {device_id} is not finite")
        self._append_rows([device_id], [snr_db], [duty_cycle_rounds])
        self._rebuild_groups()

    def bulk_add(
        self,
        device_ids: Sequence[int],
        snrs_db: Sequence[float],
        duty_cycle_rounds: int = 1,
    ) -> None:
        """Enrol many devices under a *single* group rebuild.

        The population-scale fast path: N per-device admits cost N
        rebuilds (O(N² log N) total); one bulk admit costs one. Same
        final grouping as the serial sequence. Every check runs before
        any state changes.
        """
        if duty_cycle_rounds < 1:
            raise ProtocolError("duty cycle must be >= 1 round")
        ids = np.asarray(device_ids, dtype=np.int64)
        snrs = np.asarray(snrs_db, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != snrs.shape:
            raise ProtocolError(
                "device ids and SNRs must be 1-D and aligned"
            )
        if not np.all(np.isfinite(snrs)):
            raise ProtocolError("SNRs must be finite")
        if np.unique(ids).size != ids.size:
            raise ProtocolError("duplicate device ids in bulk add")
        for device_id in ids.tolist():
            if device_id in self._rows:
                raise ProtocolError(f"device {device_id} already scheduled")
        self._append_rows(ids, snrs, [duty_cycle_rounds] * ids.size)
        self._rebuild_groups()

    def _append_rows(self, ids, snrs, duties) -> None:
        start = self._ids.size
        self._ids = np.concatenate(
            [self._ids, np.asarray(ids, dtype=np.int64)]
        )
        self._snr = np.concatenate(
            [self._snr, np.asarray(snrs, dtype=np.float64)]
        )
        self._duty = np.concatenate(
            [self._duty, np.asarray(duties, dtype=np.int64)]
        )
        self._rst = np.concatenate(
            [self._rst, np.zeros(len(ids), dtype=np.int64)]
        )
        for offset, device_id in enumerate(ids):
            self._rows[int(device_id)] = start + offset

    def remove_device(self, device_id: int) -> None:
        if device_id not in self._rows:
            raise ProtocolError(f"device {device_id} is not scheduled")
        row = self._rows.pop(device_id)
        keep = np.ones(self._ids.size, dtype=bool)
        keep[row] = False
        self._ids = self._ids[keep]
        self._snr = self._snr[keep]
        self._duty = self._duty[keep]
        self._rst = self._rst[keep]
        for moved in self._rows:
            if self._rows[moved] > row:
                self._rows[moved] -= 1
        self._rebuild_groups()

    def _rebuild_groups(self) -> None:
        """Group by SNR span, then split oversized groups."""
        n = self._ids.size
        if n == 0:
            self._groups = []
            self._group_rows = []
            return
        order = np.argsort(-self._snr, kind="stable")
        starts = span_group_bounds(self._snr[order], self._group_span_db)
        stops = list(starts[1:]) + [n]
        group_rows: List[np.ndarray] = []
        for start, stop in zip(starts, stops):
            members = order[start:stop]
            for cut in range(0, members.size, self._max_group_size):
                group_rows.append(members[cut : cut + self._max_group_size])
        self._group_rows = group_rows
        self._groups = [self._ids[rows].tolist() for rows in group_rows]
        self._next_group %= max(1, len(self._groups))

    def next_round(self) -> List[int]:
        """Devices transmitting in the next concurrent round.

        Picks the next group round-robin and filters by duty cycle;
        devices not due simply skip the round (their shifts stay idle —
        OOK '0's all round, which the receiver handles naturally).
        """
        if not self._groups:
            return []
        rows = self._group_rows[self._next_group]
        self._next_group = (self._next_group + 1) % len(self._groups)
        due = self._rst[rows] + 1 >= self._duty[rows]
        transmitting = self._ids[rows[due]].tolist()
        self._rst[rows[due]] = 0
        self._rst[rows[~due]] += 1
        # Devices outside the scheduled group also age their duty cycle.
        outside = np.ones(self._ids.size, dtype=bool)
        outside[rows] = False
        self._rst[outside] += 1
        return transmitting

    def group_of(self, device_id: int) -> int:
        """Group index of a device (the query's group ID)."""
        for index, group in enumerate(self._groups):
            if device_id in group:
                return index
        raise ProtocolError(f"device {device_id} is not scheduled")
