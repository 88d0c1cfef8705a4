"""Unit tests for the waveform-fidelity channel simulator."""

import pytest

from repro.core.dcss import DeviceTransmission
from repro.core.receiver import NetScatterReceiver
from per_symbol_oracle import peak_bin
from repro.errors import ConfigurationError
from waveform_oracle import (
    WaveformScenario,
    WaveformSimulator,
    cross_validate_paths,
    decode_frame,
)


@pytest.fixture
def sim(small_config):
    return WaveformSimulator(small_config, oversampling=4, rng=7)


class TestRendering:
    def test_stream_length(self, sim, small_config):
        txs = [DeviceTransmission(shift=4, bits=[1, 0, 1])]
        scenario = sim.render(txs, leading_silence_symbols=1,
                              trailing_silence_symbols=1)
        n = small_config.chirp_params.n_samples
        assert scenario.stream.size == (1 + 8 + 3 + 1) * n

    def test_true_start(self, sim, small_config):
        txs = [DeviceTransmission(shift=4, bits=[1])]
        scenario = sim.render(txs, leading_silence_symbols=3)
        assert scenario.true_start == 3 * small_config.chirp_params.n_samples

    def test_noiseless_decodes(self, sim, small_config):
        txs = [
            DeviceTransmission(shift=4, bits=[1, 0, 1, 1]),
            DeviceTransmission(shift=32, bits=[0, 1, 0, 1]),
        ]
        scenario = sim.render(txs)
        receiver = NetScatterReceiver(small_config, {0: 4, 1: 32})
        decode = decode_frame(receiver, scenario.stream, n_payload_bits=4)
        assert decode.bits_of(0) == [1, 0, 1, 1]
        assert decode.bits_of(1) == [0, 1, 0, 1]

    def test_noisy_decodes(self, sim, small_config):
        txs = [DeviceTransmission(shift=10, bits=[1, 1, 0, 0])]
        scenario = sim.render(txs, snr_db=5.0)
        receiver = NetScatterReceiver(small_config, {0: 10})
        decode = decode_frame(receiver, scenario.stream, n_payload_bits=4)
        assert decode.bits_of(0) == [1, 1, 0, 0]

    def test_subsample_delay_applied(self, small_config):
        """A half-critical-sample delay is representable at 4x OS and
        moves the dechirped peak downward by about half a bin.

        At fractional offsets the chirp's frequency-wrap point lands
        mid-window with a 2*pi*delta phase jump, splitting some energy
        between adjacent interpolated bins (real CSS behaves the same),
        so the tolerance is loose around the nominal -0.5-bin move.
        """
        from repro.phy.demodulation import Demodulator

        sim = WaveformSimulator(small_config, oversampling=4, rng=3)
        params = small_config.chirp_params
        delay_s = 0.5 / params.bandwidth_hz  # half a critical sample
        txs = [DeviceTransmission(shift=20, bits=[1], delay_s=delay_s)]
        scenario = sim.render(txs, leading_silence_symbols=0,
                              trailing_silence_symbols=0)
        demod = Demodulator(params)
        result = demod.dechirp(scenario.stream[: params.n_samples])
        peak = peak_bin(result)
        assert 18.5 <= peak <= 19.9  # moved down, near 19.5

    def test_integer_delay_exact(self, small_config):
        """Integer critical-sample delays shift the peak exactly."""
        from repro.phy.demodulation import Demodulator

        sim = WaveformSimulator(small_config, oversampling=4, rng=3)
        params = small_config.chirp_params
        delay_s = 1.0 / params.bandwidth_hz
        txs = [DeviceTransmission(shift=20, bits=[1], delay_s=delay_s)]
        scenario = sim.render(txs, leading_silence_symbols=0,
                              trailing_silence_symbols=0)
        demod = Demodulator(params)
        result = demod.dechirp(scenario.stream[: params.n_samples])
        assert peak_bin(result) == pytest.approx(19.0, abs=0.1)

    def test_multipath_still_decodes(self, small_config):
        sim = WaveformSimulator(
            small_config, oversampling=4, multipath=True, rng=9
        )
        txs = [DeviceTransmission(shift=8, bits=[1, 0, 1, 0])]
        scenario = sim.render(txs, snr_db=10.0)
        receiver = NetScatterReceiver(small_config, {0: 8})
        decode = decode_frame(receiver, scenario.stream, n_payload_bits=4)
        assert decode.bits_of(0) == [1, 0, 1, 0]

    def test_validation(self, sim):
        with pytest.raises(ConfigurationError):
            sim.render([])
        with pytest.raises(ConfigurationError):
            sim.render(
                [
                    DeviceTransmission(shift=4, bits=[1]),
                    DeviceTransmission(shift=8, bits=[1, 0]),
                ]
            )
        with pytest.raises(ConfigurationError):
            sim.render([DeviceTransmission(shift=4, bits=[2])])

    def test_invalid_oversampling(self, small_config):
        with pytest.raises(ConfigurationError):
            WaveformSimulator(small_config, oversampling=0)

    def test_scenario_carries_oversampled(self, sim):
        txs = [DeviceTransmission(shift=4, bits=[1])]
        scenario = sim.render(txs)
        assert isinstance(scenario, WaveformScenario)
        assert scenario.oversampled.size == 4 * scenario.stream.size


class TestCrossValidation:
    def test_paths_agree_at_moderate_snr(self, config):
        txs = [
            DeviceTransmission(shift=10, bits=[1, 0, 1, 1]),
            DeviceTransmission(shift=250, bits=[0, 1, 1, 0]),
        ]
        out = cross_validate_paths(config, txs, snr_db=0.0, rng=5)
        assert out["waveform"] == out["fast"]

    def test_paths_agree_below_noise(self, config):
        txs = [DeviceTransmission(shift=100, bits=[1, 1, 0, 1, 0, 0])]
        out = cross_validate_paths(config, txs, snr_db=-8.0, rng=6)
        assert out["waveform"] == out["fast"] == {0: [1, 1, 0, 1, 0, 0]}

    def test_paths_agree_across_the_band(self, config):
        txs = [
            DeviceTransmission(shift=10, bits=[1, 0, 1, 1, 0, 1]),
            DeviceTransmission(shift=130, bits=[0, 1, 1, 0, 0, 1]),
            DeviceTransmission(shift=250, bits=[1, 1, 0, 0, 1, 0]),
        ]
        out = cross_validate_paths(config, txs, snr_db=0.0, rng=33)
        assert out["waveform"] == out["fast"]
        assert out["waveform"][0] == [1, 0, 1, 1, 0, 1]
