"""Path-loss models: free space and log-distance indoor with wall losses.

The deployment covers 10+ office rooms within 100 m of the AP. We use the
standard log-distance model with a path-loss exponent typical of
through-wall office propagation, plus an explicit per-wall penalty so the
floorplan generator can produce the realistic 30-40 dB SNR spread between
near and far devices that drives the paper's near-far machinery.
"""

from __future__ import annotations

import math

from repro.constants import SPEED_OF_LIGHT_M_S
from repro.errors import LinkBudgetError

DEFAULT_PATH_LOSS_EXPONENT = 3.0
"""Typical indoor office through-wall exponent."""

DEFAULT_WALL_LOSS_DB = 5.0
"""Attenuation per interior wall (drywall at 900 MHz)."""

DEFAULT_REFERENCE_DISTANCE_M = 1.0


def free_space_path_loss_db(distance_m: float, freq_hz: float) -> float:
    """Friis free-space path loss (dB)."""
    if distance_m <= 0:
        raise LinkBudgetError("distance must be positive")
    if freq_hz <= 0:
        raise LinkBudgetError("frequency must be positive")
    wavelength = SPEED_OF_LIGHT_M_S / freq_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


def indoor_path_loss_db(
    distance_m: float,
    freq_hz: float,
    n_walls: int = 0,
    exponent: float = DEFAULT_PATH_LOSS_EXPONENT,
    wall_loss_db: float = DEFAULT_WALL_LOSS_DB,
    reference_distance_m: float = DEFAULT_REFERENCE_DISTANCE_M,
) -> float:
    """Log-distance indoor path loss with per-wall penalties (dB).

    Free-space loss up to ``reference_distance_m``, then a log-distance
    roll-off at ``exponent``, plus ``wall_loss_db`` for each interior wall
    on the path.
    """
    if distance_m <= 0:
        raise LinkBudgetError("distance must be positive")
    if n_walls < 0:
        raise LinkBudgetError("wall count must be non-negative")
    if exponent <= 0:
        raise LinkBudgetError("path-loss exponent must be positive")
    reference_loss = free_space_path_loss_db(reference_distance_m, freq_hz)
    if distance_m <= reference_distance_m:
        return reference_loss + n_walls * wall_loss_db
    rolloff = 10.0 * exponent * math.log10(distance_m / reference_distance_m)
    return reference_loss + rolloff + n_walls * wall_loss_db
