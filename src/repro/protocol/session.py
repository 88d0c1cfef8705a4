"""Long-running network session: the protocol dynamics over time.

Ties every moving part together across many rounds of a fading channel:
the AP broadcasts queries, each tag measures the query RSSI through its
envelope detector, runs the reciprocity power-control step, possibly sits
rounds out, and — after repeated failures — re-initiates association,
whereupon the AP re-ranks it and (if its rank moved) issues a full
reassignment query. This is the Section 3.2.3/3.3.2 closed loop that the
single-round simulator cannot show. The AP's protocol state (allocation,
association, scheduling) is the flat struct-of-arrays population of
:mod:`repro.protocol.population`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.channel.awgn import awgn_rounds
from repro.channel.deployment import Deployment, paper_deployment
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.receiver import NetScatterReceiver
from repro.errors import ConfigurationError
from repro.hardware.device import BackscatterDevice, DeviceState
from repro.hardware.mcu import McuTimingModel
from repro.utils.rng import RngLike, child_rng, make_rng


@dataclass
class SessionStats:
    """Aggregates over a session's rounds."""

    rounds: int = 0
    delivery_by_round: List[float] = field(default_factory=list)
    participation_by_round: List[float] = field(default_factory=list)
    reassociations: int = 0
    reassignment_queries: int = 0
    power_steps: int = 0

    @property
    def mean_delivery(self) -> float:
        if not self.delivery_by_round:
            return 0.0
        return float(np.mean(self.delivery_by_round))

    @property
    def mean_participation(self) -> float:
        if not self.participation_by_round:
            return 0.0
        return float(np.mean(self.participation_by_round))


class NetworkSession:
    """A NetScatter network living through channel dynamics.

    Parameters
    ----------
    deployment:
        The device population (positions fix mean SNRs; each device's
        fading process drives the round-to-round channel).
    round_interval_s:
        Wall-clock spacing between concurrent rounds (the fading steps
        by this amount each round).
    """

    def __init__(
        self,
        deployment: Optional[Deployment] = None,
        config: Optional[NetScatterConfig] = None,
        payload_bits: int = 20,
        round_interval_s: float = 0.06,
        fading_std_db: float = 3.0,
        rng: RngLike = None,
    ) -> None:
        self._rng = make_rng(rng)
        if deployment is None:
            deployment = paper_deployment(
                n_devices=64, rng=child_rng(self._rng, 0)
            )
        if config is None:
            config = NetScatterConfig(n_association_shifts=0)
        if deployment.n_devices > config.max_devices:
            raise ConfigurationError("deployment exceeds configuration")
        self._deployment = deployment
        self._config = config
        self._params = config.chirp_params
        self._payload_bits = int(payload_bits)
        self._interval = float(round_interval_s)
        self._timing = McuTimingModel()
        self.stats = SessionStats()

        # Build tags and associate everyone (one at a time, as deployed).
        from repro.protocol.ap import AccessPoint

        self._ap = AccessPoint(config)
        self._devices: Dict[int, BackscatterDevice] = {}
        for dep_device in deployment.devices:
            # Re-scale the fading to the session's regime, redrawing the
            # state so it is stationary under the new std from round 0.
            dep_device.fading.std_db = fading_std_db
            dep_device.fading.reset(child_rng(self._rng, dep_device.device_id))
            tag = BackscatterDevice(
                dep_device.device_id,
                self._params,
                rng=child_rng(self._rng, 100 + dep_device.device_id),
            )
            rssi = dep_device.downlink_rssi_dbm
            tag.begin_association(rssi)
            shift = self._ap.run_association(
                dep_device.device_id, dep_device.uplink_snr_db
            )
            tag.complete_association(shift, rssi)
            self._devices[dep_device.device_id] = tag
        self._receiver = NetScatterReceiver(config, self._ap.assignments())

    @property
    def ap(self):
        return self._ap

    @property
    def n_devices(self) -> int:
        return len(self._devices)

    def _rebuild_receiver(self) -> None:
        self._receiver = NetScatterReceiver(
            self._config, self._ap.assignments()
        )

    def run_round(self) -> float:
        """One full query/response round; returns the delivery ratio."""
        self.stats.rounds += 1
        participants: List[int] = []
        gains: Dict[int, float] = {}
        reassignment_needed = False

        for dep_device in self._deployment.devices:
            device_id = dep_device.device_id
            tag = self._devices[device_id]
            channel_delta = (
                dep_device.step_channel(self._interval, self._rng)
                - dep_device.uplink_snr_db
            )
            rssi = dep_device.downlink_rssi_dbm + channel_delta
            before_level = tag.switch.gain_db
            gain, participate = tag.adjust_power(rssi)
            if gain != before_level:
                self.stats.power_steps += 1
            if tag.state is not DeviceState.ASSOCIATED:
                # The tag gave up and re-initiates association with its
                # new channel; the AP re-ranks it.
                self.stats.reassociations += 1
                new_snr = dep_device.current_uplink_snr_db()
                changed = self._ap.update_member_snr(device_id, new_snr)
                if changed:
                    reassignment_needed = True
                tag.begin_association(rssi)
                tag.complete_association(
                    self._ap.assignments()[device_id], rssi
                )
                continue  # sits this round out while re-joining
            if participate:
                participants.append(device_id)
                gains[device_id] = gain

        if reassignment_needed:
            query = self._ap.build_query()
            if query.reassignment_order is not None:
                self.stats.reassignment_queries += 1
            self._rebuild_receiver()

        if not participants:
            self.stats.delivery_by_round.append(0.0)
            self.stats.participation_by_round.append(0.0)
            return 0.0

        delivery = self._transmit_round(participants, gains)
        self.stats.delivery_by_round.append(delivery)
        self.stats.participation_by_round.append(
            len(participants) / self.n_devices
        )
        return delivery

    def _transmit_round(
        self, participants: List[int], gains: Dict[int, float]
    ) -> float:
        """Compose, decode and score one concurrent transmission.

        Runs as a one-round batch through the receiver's cached
        sparse-readout engine; the participant set (and hence the plan)
        only changes when the AP reassigns, which rebuilds the receiver.
        """
        assignments = self._ap.assignments()
        by_dep = {d.device_id: d for d in self._deployment.devices}
        effective = [
            by_dep[i].current_uplink_snr_db() + gains[i]
            for i in participants
        ]
        floor = min(effective)
        n = len(participants)
        delays = self._timing.sample_latencies_s(n, self._rng)
        delays -= delays.mean()
        bins = (
            np.array([assignments[i] for i in participants], dtype=float)
            - delays * self._params.bandwidth_hz
        )
        amplitudes = 10.0 ** ((np.asarray(effective) - floor) / 20.0)
        phases = self._rng.uniform(0, 2 * np.pi, size=n)
        payload = self._rng.integers(
            0, 2, size=(self._payload_bits, n)
        )
        bit_tensor = np.vstack([np.ones((6, n)), payload])[None, :, :]
        symbols = compose_rounds(
            self._params,
            bins[None, :],
            amplitudes[None, :],
            phases[None, :],
            bit_tensor,
        )
        decode = self._receiver.decode_rounds(
            awgn_rounds(symbols, floor, self._rng)
        )
        columns = np.array(
            [decode.column_of(i) for i in participants], dtype=int
        )
        match = (
            decode.bits[0][:, columns] == payload.astype(np.uint8)
        ).all(axis=0)
        delivered = int(np.sum(decode.detected[0, columns] & match))
        return delivered / n

    def run(self, n_rounds: int) -> SessionStats:
        """Run a session of ``n_rounds`` and return the statistics."""
        if n_rounds < 1:
            raise ConfigurationError("need at least one round")
        for _ in range(n_rounds):
            self.run_round()
        return self.stats
