"""Composite link budget: AP -> tag (downlink) and AP -> tag -> AP (uplink).

NetScatter is monostatic backscatter: the AP transmits a single tone plus
ASK queries; the tag reflects the tone with its own modulation. The
downlink pays the one-way path loss (the paper's footnote: query
sensitivity need only be -44 dBm); the uplink pays it twice plus the tag's
modulation insertion loss, which is why uplink sensitivities of -120 dBm
and below are needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.channel.awgn import snr_from_rssi_db
from repro.channel.pathloss import indoor_path_loss_db
from repro.constants import (
    AP_TX_POWER_DBM,
    CARRIER_FREQ_HZ,
    DEFAULT_BANDWIDTH_HZ,
    TAG_ANTENNA_GAIN_DBI,
)
from repro.errors import LinkBudgetError


@dataclass(frozen=True)
class LinkBudget:
    """Link-budget parameters of one AP/tag pair.

    Defaults reproduce the paper's hardware: 30 dBm AP output (USRP +
    RF5110 PA), 2 dBi tag whip antenna, 900 MHz carrier, 500 kHz receive
    bandwidth, ~6 dB tag insertion loss for square-wave OOK backscatter.
    """

    ap_tx_power_dbm: float = AP_TX_POWER_DBM
    tag_antenna_gain_dbi: float = TAG_ANTENNA_GAIN_DBI
    carrier_freq_hz: float = CARRIER_FREQ_HZ
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ
    backscatter_insertion_loss_db: float = 6.0
    noise_figure_db: float = 6.0
    path_loss_exponent: float = 3.0
    wall_loss_db: float = 5.0

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise LinkBudgetError("bandwidth must be positive")
        if self.carrier_freq_hz <= 0:
            raise LinkBudgetError("carrier frequency must be positive")

    def one_way_loss_db(self, distance_m: float, n_walls: int = 0) -> float:
        """Path loss of the AP -> tag downlink leg."""
        return indoor_path_loss_db(
            distance_m,
            self.carrier_freq_hz,
            n_walls=n_walls,
            exponent=self.path_loss_exponent,
            wall_loss_db=self.wall_loss_db,
        )

    def downlink_rssi_dbm(self, distance_m: float, n_walls: int = 0) -> float:
        """Query-message RSSI at the tag's envelope detector."""
        return (
            self.ap_tx_power_dbm
            + self.tag_antenna_gain_dbi
            - self.one_way_loss_db(distance_m, n_walls)
        )

    def uplink_rssi_dbm(
        self,
        distance_m: float,
        n_walls: int = 0,
        tag_power_gain_db: float = 0.0,
    ) -> float:
        """Backscattered signal power back at the AP.

        ``tag_power_gain_db`` is the tag's power-control setting (0, -4 or
        -10 dB on the paper's hardware).
        """
        one_way = self.one_way_loss_db(distance_m, n_walls)
        return (
            self.ap_tx_power_dbm
            + 2.0 * self.tag_antenna_gain_dbi
            - 2.0 * one_way
            - self.backscatter_insertion_loss_db
            + tag_power_gain_db
        )

    def uplink_snr_db(
        self,
        distance_m: float,
        n_walls: int = 0,
        tag_power_gain_db: float = 0.0,
    ) -> float:
        """Pre-despreading in-band uplink SNR at the AP."""
        rssi = self.uplink_rssi_dbm(distance_m, n_walls, tag_power_gain_db)
        return snr_from_rssi_db(rssi, self.bandwidth_hz, self.noise_figure_db)
