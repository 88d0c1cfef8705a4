"""Multi-level impedance switch network (Fig. 7b).

The paper's tag cascades ADG904 RF switches so the baseband can pick,
per packet, which ``Z0`` the antenna toggles against — realising the three
transmit power gains 0 / -4 / -10 dB used by the fine-grained power
adjustment. This module models that network: a set of discrete power
levels, each backed by a concrete load impedance, with selection logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.constants import POWER_GAIN_LEVELS_DB
from repro.errors import HardwareModelError
from repro.hardware.impedance import (
    backscatter_power_gain_db,
    solve_z0_for_gain_db,
)


@dataclass(frozen=True)
class PowerLevel:
    """One selectable transmit power level of the switch network."""

    index: int
    gain_db: float
    z0_ohm: float

    def __str__(self) -> str:
        return f"level {self.index}: {self.gain_db:+.1f} dB (Z0={self.z0_ohm:.1f} ohm)"


class SwitchNetwork:
    """Discrete-power backscatter switch network.

    Parameters
    ----------
    gains_db:
        The power gains the network must realise, in descending order.
        Defaults to the paper's (0, -4, -10) dB.

    The constructor solves for the ``Z0`` resistor realising each gain
    (against an open ``Z1``), mirroring how the paper's three-resistor
    NMOS network is designed.
    """

    def __init__(self, gains_db: Sequence[float] = POWER_GAIN_LEVELS_DB) -> None:
        if not gains_db:
            raise HardwareModelError("need at least one power level")
        ordered = sorted((float(g) for g in gains_db), reverse=True)
        if ordered[0] > 0.0:
            raise HardwareModelError("power gains cannot exceed 0 dB")
        if len(set(ordered)) != len(ordered):
            raise HardwareModelError("power levels must be distinct")
        self._levels: List[PowerLevel] = []
        for index, gain in enumerate(ordered):
            z0 = solve_z0_for_gain_db(gain)
            self._levels.append(
                PowerLevel(index=index, gain_db=gain, z0_ohm=z0)
            )
        self._selected = 0

    @property
    def levels(self) -> List[PowerLevel]:
        """All levels, strongest first."""
        return list(self._levels)

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    @property
    def selected(self) -> PowerLevel:
        """The currently selected level."""
        return self._levels[self._selected]

    @property
    def gain_db(self) -> float:
        """Gain of the currently selected level."""
        return self.selected.gain_db

    def select(self, index: int) -> PowerLevel:
        """Select a level by index (0 = strongest)."""
        if not 0 <= index < self.n_levels:
            raise HardwareModelError(
                f"level index must be in [0, {self.n_levels}), got {index}"
            )
        self._selected = index
        return self.selected

    def step_down(self) -> PowerLevel:
        """Move one level weaker, clamping at the weakest."""
        self._selected = min(self._selected + 1, self.n_levels - 1)
        return self.selected

    def step_up(self) -> PowerLevel:
        """Move one level stronger, clamping at the strongest."""
        self._selected = max(self._selected - 1, 0)
        return self.selected

    def can_step_down(self) -> bool:
        return self._selected < self.n_levels - 1

    def can_step_up(self) -> bool:
        return self._selected > 0

    def middle_index(self) -> int:
        """Index of the middle level (association default for strong tags)."""
        return self.n_levels // 2

    def verify_realisation(self, tol_db: float = 0.05) -> bool:
        """Check each solved ``Z0`` actually realises its nominal gain."""
        for level in self._levels:
            realised = backscatter_power_gain_db(level.z0_ohm, None)
            if abs(realised - level.gain_db) > tol_db:
                return False
        return True
