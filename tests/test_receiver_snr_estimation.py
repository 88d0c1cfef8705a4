"""Tests for the receiver's per-device SNR estimation."""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.core.dcss import (
    DeviceTransmission,
    compose_preamble_and_payload_symbols,
)
from repro.core.receiver import NetScatterReceiver


def _decode(config, txs, assignments, snr_db, rng):
    symbols = compose_preamble_and_payload_symbols(
        config.chirp_params, txs, rng=rng
    )
    noisy = [awgn(s, snr_db, rng) for s in symbols]
    receiver = NetScatterReceiver(config, assignments)
    return receiver.decode_fast_symbols(noisy)


class TestSnrEstimation:
    def test_undetected_device_has_no_estimate(self, config, rng):
        txs = [DeviceTransmission(shift=10, bits=[1, 1])]
        decode = _decode(config, txs, {0: 10, 1: 300}, 0.0, rng)
        assert decode.devices[1].estimated_snr_db is None

    def test_estimate_tracks_true_snr_ordering(self, config, rng):
        """A 20 dB stronger device must estimate ~20 dB higher."""
        txs = [
            DeviceTransmission(shift=10, bits=[1, 1], power_gain_db=0.0),
            DeviceTransmission(shift=300, bits=[1, 1], power_gain_db=20.0),
        ]
        decode = _decode(config, txs, {0: 10, 1: 300}, 5.0, rng)
        weak = decode.devices[0].estimated_snr_db
        strong = decode.devices[1].estimated_snr_db
        assert weak is not None and strong is not None
        assert strong - weak == pytest.approx(20.0, abs=3.0)

    def test_estimate_increases_with_channel_snr(self, config, rng):
        estimates = []
        for snr in (-10.0, 0.0, 10.0):
            txs = [DeviceTransmission(shift=50, bits=[1, 0])]
            decode = _decode(config, txs, {0: 50}, snr, rng)
            estimates.append(decode.devices[0].estimated_snr_db)
        assert estimates[0] < estimates[1] < estimates[2]

    def test_estimate_usable_for_association(self, config, rng):
        """The estimate plugs directly into the allocation table: admit
        two devices by their *measured* SNRs and verify the stronger one
        ranks first."""
        from repro.core.allocation import AllocationTable

        txs = [
            DeviceTransmission(shift=10, bits=[1], power_gain_db=0.0),
            DeviceTransmission(shift=300, bits=[1], power_gain_db=15.0),
        ]
        decode = _decode(config, txs, {0: 10, 1: 300}, 5.0, rng)
        table = AllocationTable(config)
        for device_id in (0, 1):
            table.add_device(
                device_id, decode.devices[device_id].estimated_snr_db
            )
        assert table.snr_of(1) > table.snr_of(0)
        table.validate()

    def test_vectorised_path_estimates_too(self, config, rng):
        from repro.core.dcss import compose_rounds

        bins = np.array([20.0, 260.0])
        amps = np.array([1.0, 10.0])  # +20 dB
        bit_matrix = np.vstack([np.ones((6, 2)), np.ones((4, 2))])
        symbols = compose_rounds(
            config.chirp_params,
            bins[None],
            amps[None],
            np.array([[0.1, 1.0]]),
            bit_matrix[None],
        )
        receiver = NetScatterReceiver(config, {0: 20, 1: 260})
        decode = receiver.decode_rounds(awgn(symbols, 0.0, rng)).frame(0)
        weak = decode.devices[0].estimated_snr_db
        strong = decode.devices[1].estimated_snr_db
        assert strong - weak == pytest.approx(20.0, abs=3.0)
