"""Backscatter tag hardware models.

These models replace the paper's PCB prototype: the impedance switch
network that realises multi-level transmit power (Fig. 7), the crystal
oscillator (frequency offsets), the MCU/FPGA chain (timing jitter), the
IC power budget, and the composed :class:`BackscatterDevice`.
"""

from repro.hardware.device import BackscatterDevice, DeviceState
from repro.hardware.impedance import (
    reflection_coefficient,
    backscatter_power_gain_db,
    gain_sweep,
)
from repro.hardware.mcu import McuTimingModel
from repro.hardware.oscillator import CrystalOscillator
from repro.hardware.power_model import IcPowerBudget
from repro.hardware.switch_network import SwitchNetwork, PowerLevel

__all__ = [
    "BackscatterDevice",
    "DeviceState",
    "reflection_coefficient",
    "backscatter_power_gain_db",
    "gain_sweep",
    "McuTimingModel",
    "CrystalOscillator",
    "IcPowerBudget",
    "SwitchNetwork",
    "PowerLevel",
]
