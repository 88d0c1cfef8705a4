"""Synthetic office deployment generator.

The paper deploys 256 tags across one office floor spanning 10+ rooms
(Fig. 1). We generate an equivalent floorplan: a rectangular floor divided
into a grid of rooms, the AP near the centre, devices placed uniformly;
each device's wall count is the number of room boundaries crossed by the
straight line to the AP. The output of this module is the per-device
uplink SNR / downlink RSSI distribution that every network experiment
consumes — the quantity the real deployment would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.channel.fading import FadingProcess
from repro.channel.link import LinkBudget
from repro.errors import ReproError
from repro.utils.rng import RngLike, child_rng, make_rng


@dataclass
class DeployedDevice:
    """One tag in the synthetic deployment."""

    device_id: int
    position_m: Tuple[float, float]
    distance_m: float
    n_walls: int
    uplink_snr_db: float
    downlink_rssi_dbm: float
    fading: FadingProcess = field(repr=False, default=None)

    def current_uplink_snr_db(self) -> float:
        """Instantaneous uplink SNR including the fading state."""
        if self.fading is None:
            return self.uplink_snr_db
        return self.fading.current_snr_db

    def step_channel(self, dt_s: float, rng: RngLike = None) -> float:
        """Advance the fading track; returns the new uplink SNR."""
        if self.fading is None:
            return self.uplink_snr_db
        return self.fading.step(dt_s, rng)


@dataclass
class Deployment:
    """A generated floorplan with its devices and link budget."""

    devices: List[DeployedDevice]
    ap_position_m: Tuple[float, float]
    floor_size_m: Tuple[float, float]
    budget: LinkBudget

    def __post_init__(self) -> None:
        if not self.devices:
            raise ReproError("deployment has no devices")

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def snrs_db(self) -> np.ndarray:
        """Static per-device uplink SNRs (dB), in device-id order."""
        return np.array([d.uplink_snr_db for d in self.devices])

    def snr_spread_db(self) -> float:
        """Dynamic range of the deployment: max - min uplink SNR."""
        snrs = self.snrs_db()
        return float(snrs.max() - snrs.min())

    @classmethod
    def from_snrs(
        cls,
        snrs_db,
        device_ids=None,
        downlink_rssi_dbm: float = -30.0,
        budget: LinkBudget = None,
    ) -> "Deployment":
        """Wrap bare uplink SNRs in a static (no-fading) deployment.

        The bridge from the flat population layer to the sample-level
        engine: a Monte-Carlo leg of the hybrid fidelity split hands the
        group's effective SNR column straight to
        :class:`repro.protocol.network.NetworkSimulator` without
        synthesising a floorplan. Positions/distances are placeholders
        (the engine only reads ``uplink_snr_db`` and, with power control
        off, never the geometry) and fading is disabled so the SNRs are
        taken as the authoritative post-power-control values.
        """
        snrs = np.asarray(snrs_db, dtype=float)
        if snrs.ndim != 1:
            raise ReproError("snrs_db must be one-dimensional")
        if device_ids is None:
            device_ids = range(snrs.size)
        ids = [int(d) for d in device_ids]
        if len(ids) != snrs.size:
            raise ReproError("device_ids must align with snrs_db")
        if budget is None:
            budget = LinkBudget()
        devices = [
            DeployedDevice(
                device_id=device_id,
                position_m=(1.0, 0.0),
                distance_m=1.0,
                n_walls=0,
                uplink_snr_db=float(snr),
                downlink_rssi_dbm=float(downlink_rssi_dbm),
                fading=None,
            )
            for device_id, snr in zip(ids, snrs)
        ]
        return cls(
            devices=devices,
            ap_position_m=(0.0, 0.0),
            floor_size_m=(2.0, 2.0),
            budget=budget,
        )

    def subset(self, n: int) -> "Deployment":
        """First ``n`` devices (used for the device-count sweeps)."""
        if not 1 <= n <= self.n_devices:
            raise ReproError(
                f"subset size must be in [1, {self.n_devices}], got {n}"
            )
        return Deployment(
            devices=self.devices[:n],
            ap_position_m=self.ap_position_m,
            floor_size_m=self.floor_size_m,
            budget=self.budget,
        )


def _count_walls(
    ap: Tuple[float, float],
    device: Tuple[float, float],
    room_size_m: float,
) -> int:
    """Room-grid boundaries crossed by the AP-to-device line.

    Interior walls lie on the room grid; each integer grid line crossed in
    x or y is one wall.
    """
    walls = 0
    for axis in (0, 1):
        lo = min(ap[axis], device[axis]) / room_size_m
        hi = max(ap[axis], device[axis]) / room_size_m
        walls += max(0, int(np.floor(hi)) - int(np.ceil(lo)) + 1)
    return walls


def generate_office_deployment(
    n_devices: int = 256,
    floor_size_m: Tuple[float, float] = (50.0, 25.0),
    room_size_m: float = 8.0,
    rng: RngLike = None,
    budget: LinkBudget = None,
    fading_std_db: float = 1.5,
    min_distance_m: float = 1.0,
) -> Deployment:
    """Generate a floorplan deployment matching the paper's setting.

    A 50 x 25 m floor with 8 m rooms yields ~18 rooms ("more than ten");
    the AP sits at the floor centre. Device SNRs then span roughly 35-40 dB
    between the nearest and farthest tags, the regime the power-aware
    allocation is designed for.

    Prefix contract: device *i* depends only on the generator's first
    draws, up to and including device *i*'s own (uniform x, uniform y,
    one child seed for its fading track). So the first ``n`` devices of
    an ``N``-device build are bit-identical to an ``n``-device build
    from the same seed — the campaign runner builds only the prefix a
    point simulates (pinned by ``tests/test_channel_deployment.py``).
    """
    if n_devices < 1:
        raise ReproError("need at least one device")
    if room_size_m <= 0:
        raise ReproError("room size must be positive")
    generator = make_rng(rng)
    if budget is None:
        budget = LinkBudget()
    ap = (floor_size_m[0] / 2.0, floor_size_m[1] / 2.0)
    devices: List[DeployedDevice] = []
    for device_id in range(n_devices):
        x = float(generator.uniform(0.0, floor_size_m[0]))
        y = float(generator.uniform(0.0, floor_size_m[1]))
        distance = float(np.hypot(x - ap[0], y - ap[1]))
        distance = max(distance, min_distance_m)
        n_walls = _count_walls(ap, (x, y), room_size_m)
        snr = budget.uplink_snr_db(distance, n_walls)
        rssi = budget.downlink_rssi_dbm(distance, n_walls)
        fading = FadingProcess(mean_snr_db=snr, std_db=fading_std_db)
        fading.reset(child_rng(generator, device_id))
        devices.append(
            DeployedDevice(
                device_id=device_id,
                position_m=(x, y),
                distance_m=distance,
                n_walls=n_walls,
                uplink_snr_db=snr,
                downlink_rssi_dbm=rssi,
                fading=fading,
            )
        )
    return Deployment(
        devices=devices,
        ap_position_m=ap,
        floor_size_m=floor_size_m,
        budget=budget,
    )


#: Devices in the paper's office deployment, the Figs. 17-19 default.
PAPER_DEPLOYMENT_DEVICES = 256


def paper_deployment(
    n_devices: int = PAPER_DEPLOYMENT_DEVICES, rng: RngLike = None
) -> Deployment:
    """The calibrated deployment used by the Fig. 17-19 experiments.

    Parameters are tuned so the synthetic floor reproduces the paper's
    observed operating envelope: a 40 x 20 m office floor (about fifteen
    8 m rooms), devices no closer than 4 m to the AP, a mild indoor
    path-loss exponent (2.0 plus explicit 2 dB wall losses at 900 MHz),
    giving a pre-power-control uplink SNR spread of roughly 40 dB that
    the three-level power adjustment trims to the ~35 dB dynamic range
    the receiver tolerates (Fig. 15b).
    """
    budget = LinkBudget(path_loss_exponent=2.0, wall_loss_db=2.0)
    return generate_office_deployment(
        n_devices=n_devices,
        floor_size_m=(40.0, 20.0),
        room_size_m=8.0,
        rng=rng,
        budget=budget,
        min_distance_m=4.0,
    )
