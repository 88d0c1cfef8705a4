"""NetScatter modulation/network configuration (Table 1).

A configuration fixes the chirp bandwidth, spreading factor, guard spacing
(SKIP) and FFT zero-padding, and derives everything the rest of the system
needs: tolerable timing/frequency mismatch, per-device bitrate, receive
sensitivity and the maximum number of concurrent devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.channel.awgn import noise_power_dbm
from repro.constants import (
    DEFAULT_BANDWIDTH_HZ,
    DEFAULT_SKIP,
    DEFAULT_SPREADING_FACTOR,
    DEFAULT_ZERO_PAD_FACTOR,
    N_ASSOCIATION_SHIFTS,
)
from repro.errors import ConfigurationError
from repro.phy.chirp import ChirpParams

# Required post-despreading SNR per SF, from the SX1276 datasheet's
# demodulator SNR limits (used to reproduce Table 1's sensitivity column).
SX1276_SNR_LIMIT_DB = {
    6: -5.0,
    7: -7.5,
    8: -10.0,
    9: -12.5,
    10: -15.0,
    11: -17.5,
    12: -20.0,
}


@dataclass(frozen=True)
class NetScatterConfig:
    """A full NetScatter operating point.

    Attributes
    ----------
    bandwidth_hz, spreading_factor:
        The chirp parameters (also the sample rate at the critical rate).
    skip:
        Guard spacing: devices occupy every ``skip``-th cyclic shift, so
        ``skip - 1`` bins between neighbours absorb per-packet timing
        jitter (Section 3.2.1).
    zero_pad_factor:
        Receiver FFT interpolation for sub-bin peak resolution.
    n_association_shifts:
        Cyclic shifts reserved for association (Section 3.3.2).
    """

    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ
    spreading_factor: int = DEFAULT_SPREADING_FACTOR
    skip: int = DEFAULT_SKIP
    zero_pad_factor: int = DEFAULT_ZERO_PAD_FACTOR
    n_association_shifts: int = N_ASSOCIATION_SHIFTS

    def __post_init__(self) -> None:
        if self.skip < 1:
            raise ConfigurationError("skip must be >= 1")
        if self.zero_pad_factor < 1:
            raise ConfigurationError("zero_pad_factor must be >= 1")
        if self.n_association_shifts < 0:
            raise ConfigurationError(
                "n_association_shifts must be non-negative"
            )
        # Validate BW/SF via ChirpParams' own checks.
        _ = self.chirp_params

    @property
    def chirp_params(self) -> ChirpParams:
        """The underlying chirp symbol parameters."""
        return ChirpParams(
            bandwidth_hz=self.bandwidth_hz,
            spreading_factor=self.spreading_factor,
        )

    @property
    def n_bins(self) -> int:
        """Number of FFT bins / cyclic shifts, ``2^SF``."""
        return self.chirp_params.n_shifts

    @property
    def max_devices(self) -> int:
        """Concurrent device capacity.

        ``2^SF / skip`` slots on the SKIP grid, minus three per reserved
        association shift (the shift itself plus one guard slot on each
        side, so association packets never collide with data shifts).
        """
        return self.n_bins // self.skip - 3 * self.n_association_shifts

    @property
    def device_bitrate_bps(self) -> float:
        """Per-device OOK bitrate, ``BW / 2^SF`` (Table 1's bitrate column)."""
        return self.chirp_params.symbol_rate_hz

    @property
    def tolerable_timing_mismatch_s(self) -> float:
        """Largest timing error that stays within one FFT bin: ``1/BW``."""
        return 1.0 / self.bandwidth_hz

    @property
    def tolerable_frequency_mismatch_hz(self) -> float:
        """Largest CFO that stays within one FFT bin: ``BW / 2^SF``."""
        return self.chirp_params.bin_spacing_hz

    @property
    def min_snr_db(self) -> float:
        """Minimum pre-despreading in-band SNR (SX1276 demodulator limit)."""
        limit = SX1276_SNR_LIMIT_DB.get(self.spreading_factor)
        if limit is None:
            raise ConfigurationError(
                f"no SNR limit known for SF {self.spreading_factor}"
            )
        return limit

    @property
    def sensitivity_dbm(self) -> float:
        """Receive sensitivity: noise floor over BW plus the SNR limit."""
        return noise_power_dbm(self.bandwidth_hz) + self.min_snr_db

    @property
    def lora_bitrate_bps(self) -> float:
        """Classic single-user CSS bitrate at the same (BW, SF)."""
        return self.chirp_params.lora_bitrate_bps

    @property
    def throughput_gain_over_lora(self) -> float:
        """The headline ``2^SF / SF`` gain of distributed CSS coding."""
        return self.n_bins / self.spreading_factor

    def describe(self) -> str:
        """One-line summary used by the benchmark harness."""
        return (
            f"BW={self.bandwidth_hz / 1e3:.0f}kHz SF={self.spreading_factor} "
            f"SKIP={self.skip} -> {self.max_devices} devices @ "
            f"{self.device_bitrate_bps:.0f} bps"
        )


# The six operating points of Table 1 (SKIP spans are derived from the
# tolerable mismatch columns; the deployment uses the first row).
TABLE1_CONFIGS: List[NetScatterConfig] = [
    NetScatterConfig(bandwidth_hz=500e3, spreading_factor=9),
    NetScatterConfig(bandwidth_hz=500e3, spreading_factor=8),
    NetScatterConfig(bandwidth_hz=250e3, spreading_factor=8),
    NetScatterConfig(bandwidth_hz=250e3, spreading_factor=7),
    NetScatterConfig(bandwidth_hz=125e3, spreading_factor=7),
    NetScatterConfig(bandwidth_hz=125e3, spreading_factor=6),
]
