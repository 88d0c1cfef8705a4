"""Unit tests for repro.phy.onoff — per-device OOK over a cyclic shift."""

import numpy as np
import pytest

from per_symbol_oracle import classic_decode
from repro.errors import ConfigurationError
from repro.phy.chirp import cyclic_shifted_upchirp
from repro.phy.demodulation import Demodulator
from waveform_oracle import OnOffKeyedTransmitter


class TestSymbols:
    def test_one_is_shifted_chirp(self, params):
        tx = OnOffKeyedTransmitter(params, cyclic_shift=33)
        assert np.allclose(
            tx.symbol(1), cyclic_shifted_upchirp(params, 33)
        )

    def test_zero_is_silence(self, params):
        tx = OnOffKeyedTransmitter(params, cyclic_shift=33)
        assert np.all(tx.symbol(0) == 0)

    def test_invalid_bit(self, params):
        tx = OnOffKeyedTransmitter(params, cyclic_shift=0)
        with pytest.raises(ConfigurationError):
            tx.symbol(2)

    def test_invalid_shift(self, params):
        with pytest.raises(ConfigurationError):
            OnOffKeyedTransmitter(params, cyclic_shift=params.n_shifts)

    def test_power_gain_scales_amplitude(self, params):
        tx = OnOffKeyedTransmitter(params, 5, power_gain_db=-10.0)
        power = np.mean(np.abs(tx.symbol(1)) ** 2)
        assert power == pytest.approx(0.1, rel=1e-6)

    def test_bitrate(self, params):
        tx = OnOffKeyedTransmitter(params, 5)
        assert tx.bitrate_bps == pytest.approx(976.5625)


class TestPreamble:
    def test_length(self, params):
        tx = OnOffKeyedTransmitter(params, 9)
        assert tx.preamble().size == 8 * params.n_samples

    def test_upchirps_carry_device_shift(self, params):
        tx = OnOffKeyedTransmitter(params, 41)
        demod = Demodulator(params)
        preamble = tx.preamble()
        for m in range(6):
            symbol = preamble[m * params.n_samples : (m + 1) * params.n_samples]
            assert classic_decode(demod, symbol) == 41

    def test_downchirps_are_conjugates(self, params):
        tx = OnOffKeyedTransmitter(params, 41)
        preamble = tx.preamble()
        n = params.n_samples
        up = preamble[:n]
        down = preamble[6 * n : 7 * n]
        assert np.allclose(down, np.conjugate(up))

    def test_custom_counts(self, params):
        tx = OnOffKeyedTransmitter(params, 0)
        assert tx.preamble(4, 1).size == 5 * params.n_samples


class TestPacket:
    def test_total_length(self, params):
        tx = OnOffKeyedTransmitter(params, 7)
        packet = tx.packet([1, 0, 1])
        assert packet.size == (8 + 3) * params.n_samples

    def test_payload_ook_pattern(self, params):
        tx = OnOffKeyedTransmitter(params, 7)
        payload = tx.payload([1, 0, 1])
        n = params.n_samples
        assert np.any(payload[:n] != 0)
        assert np.all(payload[n : 2 * n] == 0)
        assert np.any(payload[2 * n :] != 0)

    def test_empty_payload(self, params):
        tx = OnOffKeyedTransmitter(params, 7)
        assert tx.payload([]).size == 0

    def test_power_setter(self, params):
        tx = OnOffKeyedTransmitter(params, 7)
        tx.power_gain_db = -4.0
        assert tx.power_gain_db == -4.0
        power = np.mean(np.abs(tx.symbol(1)) ** 2)
        assert power == pytest.approx(10 ** (-0.4), rel=1e-6)
