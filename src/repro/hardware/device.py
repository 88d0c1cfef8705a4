"""The composed backscatter device (tag).

Wires the hardware blocks together into a behavioural tag model:
crystal oscillator (CFO), MCU/FPGA chain (turnaround jitter) and switch
network (discrete TX power). The device also hosts the tag-side half of
the protocol state: association status, assigned cyclic shift, baseline
RSSI and the fine-grained power-adjustment rule of Section 3.2.3.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.errors import HardwareModelError, ProtocolError
from repro.hardware.mcu import McuTimingModel
from repro.hardware.oscillator import CrystalOscillator, tag_oscillator
from repro.hardware.switch_network import SwitchNetwork
from repro.phy.chirp import ChirpParams
from repro.utils.rng import RngLike, make_rng


class DeviceState(enum.Enum):
    """Tag protocol state."""

    UNASSOCIATED = "unassociated"
    ASSOCIATING = "associating"
    ASSOCIATED = "associated"


class BackscatterDevice:
    """A behavioural NetScatter tag.

    Parameters
    ----------
    device_id:
        Stable identifier (the 8-bit network ID once associated).
    params:
        Network-wide chirp configuration.
    rssi_low_threshold_dbm:
        Below this query RSSI the tag associates at maximum power;
        above it, at the middle level (leaving adjustment headroom both
        ways, per Section 3.2.3).
    """

    MAX_SKIPPED_BEFORE_REASSOCIATION = 2

    def __init__(
        self,
        device_id: int,
        params: ChirpParams,
        oscillator: Optional[CrystalOscillator] = None,
        timing: Optional[McuTimingModel] = None,
        switch: Optional[SwitchNetwork] = None,
        rssi_low_threshold_dbm: float = -40.0,
        rng: RngLike = None,
    ) -> None:
        if device_id < 0:
            raise HardwareModelError("device_id must be non-negative")
        self._rng = make_rng(rng)
        self.device_id = int(device_id)
        self.params = params
        self.oscillator = oscillator or tag_oscillator()
        if self.oscillator._cut_error_ppm is None:
            self.oscillator.calibrate(self._rng)
        self.timing = timing or McuTimingModel()
        self.switch = switch or SwitchNetwork()
        self.rssi_low_threshold_dbm = float(rssi_low_threshold_dbm)

        self.state = DeviceState.UNASSOCIATED
        self.assigned_shift: Optional[int] = None
        self.baseline_rssi_dbm: Optional[float] = None
        self.skipped_rounds = 0

    # ------------------------------------------------------------------ #
    # association-side behaviour
    # ------------------------------------------------------------------ #

    def choose_association_power(self, query_rssi_dbm: float) -> float:
        """Initial power level for the association request.

        Low RSSI (far tag) -> maximum power; otherwise the middle level so
        the tag can later adjust both up and down.
        """
        if query_rssi_dbm < self.rssi_low_threshold_dbm:
            self.switch.select(0)
        else:
            self.switch.select(self.switch.middle_index())
        return self.switch.gain_db

    def begin_association(self, query_rssi_dbm: float) -> float:
        """Enter the associating state and pick the request power."""
        if self.state == DeviceState.ASSOCIATED:
            raise ProtocolError("device is already associated")
        self.state = DeviceState.ASSOCIATING
        return self.choose_association_power(query_rssi_dbm)

    def complete_association(
        self, assigned_shift: int, query_rssi_dbm: float
    ) -> None:
        """Accept the AP's shift assignment; record the RSSI baseline."""
        if not 0 <= assigned_shift < self.params.n_shifts:
            raise ProtocolError(
                f"assigned shift {assigned_shift} out of range"
            )
        self.assigned_shift = int(assigned_shift)
        self.baseline_rssi_dbm = float(query_rssi_dbm)
        self.state = DeviceState.ASSOCIATED
        self.skipped_rounds = 0

    def reset_association(self) -> None:
        """Drop back to the unassociated state (triggers re-association)."""
        self.state = DeviceState.UNASSOCIATED
        self.assigned_shift = None
        self.baseline_rssi_dbm = None
        self.skipped_rounds = 0

    # ------------------------------------------------------------------ #
    # fine-grained power adjustment (Section 3.2.3)
    # ------------------------------------------------------------------ #

    def adjust_power(
        self, query_rssi_dbm: float, hysteresis_db: float = 1.5
    ) -> Tuple[float, bool]:
        """Zero-overhead power adjustment before a concurrent round.

        Compares the current query RSSI against the association baseline:
        a stronger channel means the tag's backscatter would arrive hotter
        than its allocated slot tolerates, so it steps its gain *down*;
        a weaker channel steps it *up*. Returns ``(gain_db, participate)``.
        ``participate`` is False when the tag cannot compensate with its
        remaining levels and sits this round out; after two skipped rounds
        it re-initiates association.
        """
        if self.state != DeviceState.ASSOCIATED:
            raise ProtocolError("power adjustment requires association")
        delta_db = query_rssi_dbm - self.baseline_rssi_dbm
        participate = True
        if delta_db > hysteresis_db:
            if self.switch.can_step_down():
                self.switch.step_down()
            elif delta_db > 2.0 * hysteresis_db:
                participate = False
        elif delta_db < -hysteresis_db:
            if self.switch.can_step_up():
                self.switch.step_up()
            elif delta_db < -2.0 * hysteresis_db:
                participate = False

        if participate:
            self.skipped_rounds = 0
        else:
            self.skipped_rounds += 1
            if self.skipped_rounds > self.MAX_SKIPPED_BEFORE_REASSOCIATION:
                self.reset_association()
        return self.switch.gain_db, participate
