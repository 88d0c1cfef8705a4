"""Access-point orchestration: queries, association and round control.

The AP ties together the allocation table (via the association
controller), the group scheduler and the concurrent receiver. One call to
:meth:`AccessPoint.run_association` walks a device through Fig. 10's
handshake; :meth:`AccessPoint.build_query` emits the next query message
with any pending grants or reassignments piggybacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import NetScatterConfig
from repro.core.receiver import NetScatterReceiver
from repro.errors import AssociationError, ProtocolError
from repro.protocol.association import AssociationController
from repro.protocol.messages import AssociationResponse, QueryMessage
from repro.protocol.scheduler import GroupScheduler


@dataclass
class ApStats:
    """Counters the AP keeps for reporting."""

    queries_sent: int = 0
    reassignment_queries: int = 0
    associations_completed: int = 0
    rounds_run: int = 0
    downlink_bits_sent: int = 0


class AccessPoint:
    """The NetScatter AP."""

    def __init__(
        self,
        config: NetScatterConfig,
        group_span_db: float = 35.0,
    ) -> None:
        self._config = config
        self._association = AssociationController(config)
        self._scheduler = GroupScheduler(
            max_group_size=config.max_devices,
            group_span_db=group_span_db,
        )
        self._needs_reassignment_query = False
        self._device_snrs: Dict[int, float] = {}
        self.stats = ApStats()

    @property
    def config(self) -> NetScatterConfig:
        return self._config

    @property
    def association(self) -> AssociationController:
        return self._association

    @property
    def scheduler(self) -> GroupScheduler:
        return self._scheduler

    @property
    def n_members(self) -> int:
        return len(self._device_snrs)

    def assignments(self) -> Dict[int, int]:
        return self._association.assignments()

    # ------------------------------------------------------------------ #
    # association flow
    # ------------------------------------------------------------------ #

    def run_association(
        self, device_id: int, measured_snr_db: float, duty_cycle_rounds: int = 1
    ) -> int:
        """Full Fig. 10 handshake for one device; returns its shift.

        Models the request -> grant-on-query -> ACK exchange with the
        radio legs assumed delivered (the waveform-level association is
        exercised separately in the integration tests).
        """
        grant, reassigned = self._association.handle_request(
            device_id, measured_snr_db
        )
        self.stats.queries_sent += 1
        query = QueryMessage(association=grant)
        self.stats.downlink_bits_sent += query.n_bits
        if reassigned:
            self._needs_reassignment_query = True
        shift = self._association.handle_ack(device_id)
        self._device_snrs[device_id] = measured_snr_db
        self._scheduler.add_device(
            device_id, measured_snr_db, duty_cycle_rounds
        )
        self.stats.associations_completed += 1
        return shift

    def bulk_associate(
        self,
        device_ids,
        snrs_db,
        duty_cycle_rounds: int = 1,
    ):
        """Mass-admit many devices; returns their shifts.

        The population-scale fast path: every handshake completes under
        one allocation re-spread and one scheduler rebuild instead of N
        of each. Stats are charged exactly as N single associations —
        one grant query per device at the (constant) grant-query size —
        so protocol-overhead accounting matches the serial path.
        """
        ids = [int(d) for d in device_ids]
        shifts, reassigned = self._association.bulk_associate(ids, snrs_db)
        n = len(ids)
        self.stats.queries_sent += n
        if n:
            # All grant queries share one size: the association payload
            # is fixed-width, so compute a single exemplar and multiply.
            exemplar = QueryMessage(
                association=AssociationResponse(
                    network_id=ids[0] % 256,
                    cyclic_shift=int(shifts[0]) // self._config.skip,
                )
            )
            self.stats.downlink_bits_sent += n * exemplar.n_bits
        if reassigned:
            self._needs_reassignment_query = True
        for device_id, snr in zip(ids, snrs_db):
            self._device_snrs[device_id] = float(snr)
        self._scheduler.bulk_add(ids, snrs_db, duty_cycle_rounds)
        self.stats.associations_completed += n
        return shifts

    # ------------------------------------------------------------------ #
    # query / round flow
    # ------------------------------------------------------------------ #

    def build_query(self, group_id: int = 0) -> QueryMessage:
        """Next query message, carrying any pending protocol payloads."""
        reassignment = None
        if self._needs_reassignment_query and self.n_members > 1:
            # Announce the current ranking as a permutation of ranks.
            ranked = sorted(
                self._device_snrs,
                key=lambda d: self._device_snrs[d],
                reverse=True,
            )
            id_order = sorted(range(len(ranked)), key=lambda i: ranked[i])
            reassignment = id_order
            self._needs_reassignment_query = False
            self.stats.reassignment_queries += 1
        grants = self._association.pending_grants()
        query = QueryMessage(
            group_id=group_id,
            association=grants[0] if grants else None,
            reassignment_order=reassignment,
        )
        self.stats.queries_sent += 1
        self.stats.downlink_bits_sent += query.n_bits
        return query

    def next_round_devices(self) -> List[int]:
        """Devices scheduled for the next concurrent round."""
        self.stats.rounds_run += 1
        return self._scheduler.next_round()

    def receiver(self) -> NetScatterReceiver:
        """A receiver bound to the current assignments."""
        assignments = self.assignments()
        if not assignments:
            raise ProtocolError("no devices associated yet")
        return NetScatterReceiver(self._config, assignments)

    def update_member_snr(self, device_id: int, snr_db: float) -> bool:
        """Handle a re-association with a significantly changed SNR."""
        if device_id not in self._device_snrs:
            raise AssociationError(f"device {device_id} is not a member")
        self._device_snrs[device_id] = snr_db
        changed = self._association.handle_reassociation(device_id, snr_db)
        if changed:
            self._needs_reassignment_query = True
        return changed
