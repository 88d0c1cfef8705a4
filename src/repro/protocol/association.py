"""Network association (Section 3.3.2, Fig. 10).

Association runs *concurrently* with data traffic: two cyclic shifts are
reserved — one in the high-SNR region, one in the low-SNR region — and a
joining device picks its region from the query RSSI. The AP measures the
newcomer's signal strength, allocates a shift through the power-aware
table, piggybacks the grant on the next query, and confirms on receiving
the Association ACK in the granted shift.

The per-device association lifecycle (phase, grant repeats, the frozen
granted shift) lives in the allocation table's population columns
(:class:`repro.protocol.population.Population`), next to each device's
SNR and shift: the one roster the AP reads its members, their ranking
and their shifts from. ``tests/test_population_scale.py`` pins every
decision bit-identical to a per-device-object oracle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.allocation import AllocationTable, association_shifts
from repro.core.config import NetScatterConfig
from repro.errors import AssociationError
from repro.protocol.messages import AssociationResponse
from repro.protocol.population import (
    PHASE_CONFIRMED,
    PHASE_GRANTED,
)


class AssociationController:
    """AP-side association state machine over an allocation table.

    The grant a device receives is *frozen at grant time*: later
    re-packs may move the device's data shift, but the pending grant
    keeps repeating the originally granted value until acknowledged
    (the device cannot learn a newer shift before it is a confirmed
    member): the population's ``granted_shift`` column keeps it.
    """

    MAX_GRANT_REPEATS = 5

    def __init__(self, config: NetScatterConfig) -> None:
        self._config = config
        self._table = AllocationTable(config)
        self._pop = self._table.population
        self._assoc_shifts = association_shifts(config)

    @property
    def table(self) -> AllocationTable:
        return self._table

    @property
    def association_shifts(self) -> List[int]:
        """The reserved request shifts (high-SNR first)."""
        return list(self._assoc_shifts)

    def request_shift_for_rssi(
        self, query_rssi_dbm: float, low_threshold_dbm: float = -40.0
    ) -> int:
        """Which reserved shift a joining device should request on.

        Strong downlink -> the tag is near -> high-SNR region shift;
        weak -> low-SNR region shift. Mirrors the device-side choice.
        """
        if not self._assoc_shifts:
            raise AssociationError("configuration reserves no association shifts")
        if len(self._assoc_shifts) == 1:
            return self._assoc_shifts[0]
        if query_rssi_dbm >= low_threshold_dbm:
            return self._assoc_shifts[0]
        return self._assoc_shifts[1]

    def handle_request(
        self, device_id: int, measured_snr_db: float
    ) -> Tuple[AssociationResponse, bool]:
        """Process an association request heard on a reserved shift.

        Allocates a shift and returns the grant to piggyback on the next
        query, plus whether the admit displaced existing devices (needs a
        full-reassignment query).
        """
        pop = self._pop
        if device_id in pop:
            row = pop.row_of(device_id)
            if pop.phase[row] == PHASE_GRANTED:
                # Duplicate request: the grant was lost; repeat it.
                return self._repeat_grant(device_id), False
            if pop.phase[row] != PHASE_CONFIRMED:
                raise AssociationError(
                    f"device {device_id} already mid-association"
                )
        shift, reassigned = self._table.add_device(device_id, measured_snr_db)
        row = pop.row_of(device_id)
        pop.phase[row] = PHASE_GRANTED
        pop.granted_shift[row] = shift
        pop.grant_repeats[row] = 0
        return self._repeat_grant(device_id), reassigned

    def _repeat_grant(self, device_id: int) -> AssociationResponse:
        pop = self._pop
        row = pop.row_of(device_id)
        pop.grant_repeats[row] += 1
        if pop.grant_repeats[row] > self.MAX_GRANT_REPEATS:
            # Abandon the join attempt; free the slot.
            self._table.remove_device(device_id)
            raise AssociationError(
                f"device {device_id} never acknowledged its grant"
            )
        return AssociationResponse(
            network_id=device_id % 256,
            cyclic_shift=int(pop.granted_shift[row]) // self._config.skip,
        )

    def handle_ack(self, device_id: int) -> int:
        """Process the Association ACK; the device is now a member."""
        pop = self._pop
        if (
            device_id not in pop
            or pop.phase[pop.row_of(device_id)] != PHASE_GRANTED
        ):
            raise AssociationError(f"unexpected ACK from device {device_id}")
        row = pop.row_of(device_id)
        pop.phase[row] = PHASE_CONFIRMED
        return int(pop.granted_shift[row])

    def handle_reassociation(
        self, device_id: int, new_snr_db: float
    ) -> bool:
        """A member re-initiates association after repeated power-control
        failures; the AP updates its SNR and re-packs if the rank moved."""
        return self._table.update_snr(device_id, new_snr_db)

    def pending_grants(self) -> List[AssociationResponse]:
        """Grants that still need repeating on upcoming queries."""
        pop = self._pop
        rows = np.flatnonzero(pop.phase == PHASE_GRANTED)
        return [
            AssociationResponse(
                network_id=int(pop.device_id[row]) % 256,
                cyclic_shift=int(pop.granted_shift[row]) // self._config.skip,
            )
            for row in rows
        ]

    def assignments(self) -> Dict[int, int]:
        """Confirmed + granted shift map (granted devices already hold
        their slots so data devices cannot collide with them)."""
        return self._table.assignments()

    @property
    def n_members(self) -> int:
        n_pending = int(np.count_nonzero(self._pop.phase != PHASE_CONFIRMED))
        return self._table.n_devices - n_pending

    def ranked_members(self) -> np.ndarray:
        """Confirmed members' ids, strongest first (ties in join order):
        the ring order a full-reassignment query announces."""
        pop = self._pop
        ranked = pop.ranked_rows()
        return pop.device_id[ranked[pop.phase[ranked] == PHASE_CONFIRMED]]
