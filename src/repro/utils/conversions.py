"""Decibel, power and bin-offset conversions.

These helpers are deliberately strict: power quantities must be positive,
and NaN inputs raise instead of propagating silently, because a silent NaN
in a link budget produces wrong BER curves that are hard to trace.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LinkBudgetError


def db_to_linear(value_db: float) -> float:
    """Convert a decibel power ratio to a linear power ratio.

    >>> db_to_linear(10.0)
    10.0
    >>> db_to_linear(-3.0)  # doctest: +ELLIPSIS
    0.501...
    """
    return float(10.0 ** (np.asarray(value_db, dtype=float) / 10.0))


def amplitude_from_db(gain_db: float) -> float:
    """Amplitude scale factor realising a power gain given in dB.

    >>> amplitude_from_db(0.0)
    1.0
    >>> round(amplitude_from_db(-20.0), 6)
    0.1
    """
    return float(10.0 ** (float(gain_db) / 20.0))


def timing_offset_to_bins(delta_t_s: float, bandwidth_hz: float) -> float:
    """FFT-bin shift caused by a timing offset: ``delta_bin = dt * BW``.

    This is Section 3.2.1's relation for dechirped CSS symbols.
    """
    if bandwidth_hz <= 0:
        raise LinkBudgetError("bandwidth must be positive")
    return float(delta_t_s) * float(bandwidth_hz)


def freq_offset_to_bins(
    delta_f_hz: float, bandwidth_hz: float, spreading_factor: int
) -> float:
    """FFT-bin shift caused by a carrier frequency offset.

    Section 3.2.2: ``delta_bin = 2^SF * df / BW`` (the bin spacing of a
    dechirped symbol is ``BW / 2^SF`` hertz).
    """
    if bandwidth_hz <= 0:
        raise LinkBudgetError("bandwidth must be positive")
    if spreading_factor < 1:
        raise LinkBudgetError("spreading factor must be >= 1")
    return float(delta_f_hz) * (2 ** int(spreading_factor)) / float(bandwidth_hz)


def doppler_shift_hz(speed_m_s: float, carrier_freq_hz: float) -> float:
    """Doppler frequency shift for a mover at ``speed_m_s``.

    Backscatter reflects the carrier, so the paper's Section 4.2 uses the
    one-way shift ``f_c * v / c`` for its estimate (30 Hz at 10 m/s and
    900 MHz); we follow that convention.
    """
    from repro.constants import SPEED_OF_LIGHT_M_S

    if speed_m_s < 0:
        raise LinkBudgetError("speed must be non-negative")
    return float(carrier_freq_hz) * float(speed_m_s) / SPEED_OF_LIGHT_M_S
