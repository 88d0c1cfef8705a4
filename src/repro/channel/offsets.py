"""Motion-induced Doppler as the FFT-bin shift the decoder sees.

The other imperfection sources of Sections 3.2.1-3.2.2 and the Fig. 14
measurements, per-packet delay jitter and per-device crystal offsets,
are the hardware models :mod:`repro.hardware.mcu` and
:mod:`repro.hardware.oscillator`.
"""

from __future__ import annotations

from repro.constants import CARRIER_FREQ_HZ
from repro.phy.chirp import ChirpParams
from repro.utils.conversions import doppler_shift_hz, freq_offset_to_bins


def doppler_bin_shift(
    speed_m_s: float,
    params: ChirpParams,
    carrier_freq_hz: float = CARRIER_FREQ_HZ,
) -> float:
    """FFT-bin shift caused by motion at ``speed_m_s`` (Section 4.2).

    10 m/s at 900 MHz gives 30 Hz — far below the ~1 kHz bin spacing of
    the deployed configuration, which is why Fig. 15a is flat.
    """
    shift_hz = doppler_shift_hz(speed_m_s, carrier_freq_hz)
    return freq_offset_to_bins(
        shift_hz, params.bandwidth_hz, params.spreading_factor
    )
