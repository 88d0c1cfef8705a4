"""Unit tests for repro.core.dcss — distributed CSS frame composition."""

import numpy as np
import pytest

from per_symbol_oracle import peak_bin
from repro.core.config import NetScatterConfig
from repro.core.dcss import (
    DeviceTransmission,
    compose_preamble_and_payload_symbols,
    compose_rounds,
    compose_symbol,
)
from repro.errors import ConfigurationError
from repro.phy.chirp import cyclic_shifted_upchirp, downchirp
from waveform_oracle import compose_frame


class TestDeviceTransmission:
    def test_delay_moves_peak_down(self, params):
        tx = DeviceTransmission(shift=0, bits=[1], delay_s=2e-6)
        # 2 us at 500 kHz: one bin, downward (the window sees an earlier
        # slice of a late chirp).
        assert tx.bin_offset(params) == pytest.approx(-1.0)

    def test_cfo_moves_peak_up(self, params):
        tx = DeviceTransmission(shift=0, bits=[1], cfo_hz=976.5625)
        assert tx.bin_offset(params) == pytest.approx(1.0)

    def test_no_impairments_zero_offset(self, params):
        tx = DeviceTransmission(shift=5, bits=[1])
        assert tx.bin_offset(params) == 0.0


class TestComposeSymbol:
    def test_single_device_matches_shifted_chirp(self, params):
        tx = DeviceTransmission(shift=33, bits=[1], phase_rad=0.0)
        symbol = compose_symbol(params, [tx], 0, random_phases=False)
        expected = cyclic_shifted_upchirp(params, 33)
        # Equal up to the quadratic phase constant of the cyclic shift.
        despread_a = symbol * downchirp(params)
        despread_b = np.asarray(expected) * downchirp(params)
        spec_a = np.abs(np.fft.fft(despread_a))
        spec_b = np.abs(np.fft.fft(despread_b))
        assert np.argmax(spec_a) == np.argmax(spec_b) == 33
        assert np.allclose(spec_a, spec_b, atol=1e-6)

    def test_zero_bit_is_silent(self, params):
        tx = DeviceTransmission(shift=33, bits=[0])
        symbol = compose_symbol(params, [tx], 0)
        assert np.allclose(symbol, 0.0)

    def test_superposition(self, params, rng):
        txs = [
            DeviceTransmission(shift=10, bits=[1], phase_rad=0.0),
            DeviceTransmission(shift=40, bits=[1], phase_rad=0.0),
        ]
        symbol = compose_symbol(params, txs, 0, random_phases=False)
        spectrum = np.abs(
            np.fft.fft(symbol * downchirp(params))
        )
        peaks = set(np.argsort(spectrum)[-2:].tolist())
        assert peaks == {10, 40}

    def test_symbol_index_bounds(self, params):
        tx = DeviceTransmission(shift=0, bits=[1])
        with pytest.raises(ConfigurationError):
            compose_symbol(params, [tx], 1)

    def test_gain_scales_peak(self, params):
        strong = compose_symbol(
            params,
            [DeviceTransmission(shift=5, bits=[1], power_gain_db=0.0)],
            0,
            random_phases=False,
        )
        weak = compose_symbol(
            params,
            [DeviceTransmission(shift=5, bits=[1], power_gain_db=-20.0)],
            0,
            random_phases=False,
        )
        ratio = np.max(np.abs(np.fft.fft(strong * downchirp(params)))) / np.max(
            np.abs(np.fft.fft(weak * downchirp(params)))
        )
        assert ratio == pytest.approx(10.0, rel=1e-6)


class TestComposeFastFrame:
    def test_symbol_count(self, params, rng):
        txs = [DeviceTransmission(shift=10, bits=[1, 0, 1])]
        symbols = compose_preamble_and_payload_symbols(params, txs, rng=rng)
        assert len(symbols) == 6 + 3

    def test_unequal_payloads_rejected(self, params, rng):
        txs = [
            DeviceTransmission(shift=10, bits=[1, 0]),
            DeviceTransmission(shift=20, bits=[1]),
        ]
        with pytest.raises(ConfigurationError):
            compose_preamble_and_payload_symbols(params, txs, rng=rng)


class TestComposeWaveformFrame:
    def test_frame_length_with_padding(self, params, rng):
        txs = [DeviceTransmission(shift=10, bits=[1, 0])]
        frame = compose_frame(
            params,
            txs,
            leading_silence_samples=100,
            trailing_silence_samples=50,
            rng=rng,
        )
        assert frame.size == 100 + (8 + 2) * params.n_samples + 50

    def test_silence_regions_empty(self, params, rng):
        txs = [DeviceTransmission(shift=10, bits=[1])]
        frame = compose_frame(
            params, txs, leading_silence_samples=64, rng=rng
        )
        assert np.allclose(frame[:64], 0.0)

    def test_delay_moves_energy(self, params, rng):
        """A delayed device's dechirped peak shifts by delay * BW bins
        (downward: the fixed window sees an earlier slice of the chirp)."""
        from repro.phy.demodulation import Demodulator

        delay_s = 4e-6  # 2 bins at 500 kHz
        txs = [DeviceTransmission(shift=100, bits=[1], delay_s=delay_s)]
        frame = compose_frame(params, txs, rng=rng)
        demod = Demodulator(params)
        # First preamble symbol window (no sync; fixed position).
        result = demod.dechirp(frame[: params.n_samples])
        assert peak_bin(result) == pytest.approx(98.0, abs=0.3)


class TestComposeRoundMatrix:
    """One round of ``compose_rounds``: its ``(n_symbols, 2^SF)`` matrix."""

    def test_matches_per_symbol_composition(self, params):
        bins = np.array([10.0, 40.25])
        amps = np.array([1.0, 0.5])
        phases = np.array([0.3, 1.1])
        bit_matrix = np.array([[1, 1], [1, 0], [0, 1]])
        fast = compose_rounds(
            params, bins[None], amps[None], phases[None], bit_matrix[None]
        )[0]
        cfo_per_bin = params.bandwidth_hz / params.n_samples
        for s in range(3):
            txs = [
                DeviceTransmission(
                    shift=0,
                    bits=[int(bit_matrix[s, d])],
                    power_gain_db=20 * np.log10(amps[d]),
                    cfo_hz=bins[d] * cfo_per_bin,
                    phase_rad=phases[d],
                )
                for d in range(2)
            ]
            slow = compose_symbol(params, txs, 0, random_phases=False)
            assert np.allclose(fast[s], slow, atol=1e-9)

    def test_shape(self, params):
        out = compose_rounds(
            params,
            np.array([[1.0]]),
            np.array([[1.0]]),
            np.array([[0.0]]),
            np.ones((1, 5, 1)),
        )[0]
        assert out.shape == (5, params.n_samples)

    def test_misaligned_arrays_rejected(self, params):
        with pytest.raises(ConfigurationError):
            compose_rounds(
                params,
                np.array([[1.0, 2.0]]),
                np.array([[1.0]]),
                np.array([[0.0, 0.0]]),
                np.ones((1, 2, 2)),
            )

    def test_bad_bit_matrix_rejected(self, params):
        with pytest.raises(ConfigurationError):
            compose_rounds(
                params,
                np.array([[1.0]]),
                np.array([[1.0]]),
                np.array([[0.0]]),
                np.ones((1, 4, 2)),
            )


class TestRealWeightProduct:
    """``compose_rounds`` keys its tones with one real GEMM over their
    (re, im) pairs; the complex product it replaced is the reference."""

    @staticmethod
    def _tones(params, bins, phases):
        """Each device's dechirped tone: a unit weight per row reads it
        back exactly. Tones are synthesised per device, so the unit rows
        are built 256 devices at a time."""
        parts = []
        for start in range(0, bins.shape[1], 256):
            part = slice(start, start + 256)
            n_rounds, width = bins[:, part].shape
            unit = np.broadcast_to(np.eye(width), (n_rounds, width, width))
            parts.append(
                compose_rounds(
                    params, bins[:, part], np.ones((n_rounds, width)),
                    phases[:, part], unit, respread=False,
                )
            )
        return np.concatenate(parts, axis=1)

    @classmethod
    def _complex_product(cls, n_devices, n_rounds=2, n_symbols=46):
        params = NetScatterConfig(spreading_factor=9).chirp_params
        rng = np.random.default_rng(n_devices)
        bins = rng.uniform(0, params.n_samples, (n_rounds, n_devices))
        amps = rng.uniform(0.3, 3.0, (n_rounds, n_devices))
        phases = rng.uniform(0, 2 * np.pi, (n_rounds, n_devices))
        bits = rng.integers(0, 2, (n_rounds, n_symbols, n_devices)) * 1.0
        tones = cls._tones(params, bins, phases)
        reference = (bits * amps[:, None, :]).astype(complex) @ tones
        composed = compose_rounds(
            params, bins, amps, phases, bits, respread=False
        )
        return composed, reference

    @pytest.mark.parametrize("n_devices", [1, 6, 16, 64])
    def test_bit_identical_up_to_64_devices(self, n_devices):
        composed, reference = self._complex_product(n_devices)
        assert np.array_equal(composed, reference)

    @pytest.mark.parametrize("n_devices", [256, 2048])
    def test_within_round_off_of_the_batch_maximum(self, n_devices):
        composed, reference = self._complex_product(
            n_devices, n_rounds=1 if n_devices > 256 else 2
        )
        scale = np.abs(reference).max()
        assert np.abs(composed - reference).max() <= 1e-13 * scale
