"""Unit tests for the NetScatter single-FFT concurrent receiver."""

import threading
import weakref

import numpy as np
import pytest

import per_symbol_oracle as oracle
import repro.core.receiver as receiver_module
import repro.utils.parallel as parallel_module
from repro.channel.awgn import awgn
from repro.core.config import NetScatterConfig
from repro.core.dcss import (
    DeviceTransmission,
    compose_preamble_and_payload_symbols,
    compose_rounds,
)
from repro.core.receiver import NetScatterReceiver, RoundsDecode
from repro.errors import DecodingError
from repro.phy.noise import NoiseStream
from repro.utils.parallel import STAGE_THREAD_PREFIX
from waveform_oracle import compose_frame, decode_frame


def _decode_fast(config, assignments, txs, rng, snr_db=None):
    symbols = compose_preamble_and_payload_symbols(
        config.chirp_params, txs, rng=rng
    )
    if snr_db is not None:
        symbols = [awgn(s, snr_db, rng) for s in symbols]
    receiver = NetScatterReceiver(config, assignments)
    return receiver.decode_fast_symbols(symbols)


class TestConstruction:
    def test_duplicate_shifts_rejected(self, config):
        with pytest.raises(DecodingError):
            NetScatterReceiver(config, {0: 10, 1: 10})

    def test_out_of_range_shift_rejected(self, config):
        with pytest.raises(DecodingError):
            NetScatterReceiver(config, {0: 512})

    def test_negative_shift_rejected_naming_first_offender(self, config):
        with pytest.raises(DecodingError, match="shift -2 out of range"):
            NetScatterReceiver(config, {0: 10, 1: -2, 2: 600})
        with pytest.raises(DecodingError, match="shift 512.0 out of range"):
            NetScatterReceiver(config, {0: 10, 1: 512.0})

    def test_empty_assignments_rejected(self, config):
        with pytest.raises(DecodingError):
            NetScatterReceiver(config, {})

    def test_assignments_copied(self, config):
        assignments = {0: 10}
        receiver = NetScatterReceiver(config, assignments)
        assignments[0] = 20
        assert receiver.assignments == {0: 10}


class TestConcurrentDecode:
    def test_two_devices_noiseless(self, config, rng):
        txs = [
            DeviceTransmission(shift=10, bits=[1, 0, 1, 1]),
            DeviceTransmission(shift=200, bits=[0, 1, 1, 0]),
        ]
        decode = _decode_fast(config, {0: 10, 1: 200}, txs, rng)
        assert [i for i, d in decode.devices.items() if d.detected] == [0, 1]
        assert decode.bits_of(0) == [1, 0, 1, 1]
        assert decode.bits_of(1) == [0, 1, 1, 0]

    def test_sixteen_devices_below_noise(self, config, rng):
        """16 concurrent devices at -10 dB each must all decode — the
        distributed-coding headline behaviour."""
        shifts = list(range(0, 512, 32))
        txs = [
            DeviceTransmission(shift=s, bits=[1, 0, 1, 0, 1])
            for s in shifts
        ]
        assignments = {i: s for i, s in enumerate(shifts)}
        decode = _decode_fast(config, assignments, txs, rng, snr_db=-10.0)
        assert [i for i, d in decode.devices.items() if d.detected] == list(range(16))
        for i in range(16):
            assert decode.bits_of(i) == [1, 0, 1, 0, 1]

    def test_silent_device_not_detected(self, config, rng):
        txs = [DeviceTransmission(shift=10, bits=[1, 1, 1])]
        decode = _decode_fast(
            config, {0: 10, 1: 300}, txs, rng, snr_db=0.0
        )
        assert decode.devices[1].detected is False
        assert decode.bits_of(1) == []

    def test_residual_offset_tolerated(self, config, rng):
        """A device late by half the SKIP guard still decodes."""
        txs = [
            DeviceTransmission(
                shift=100, bits=[1, 0, 1], delay_s=0.9e-6  # 0.45 bins
            )
        ]
        decode = _decode_fast(config, {0: 100}, txs, rng, snr_db=0.0)
        assert decode.bits_of(0) == [1, 0, 1]

    def test_all_zero_payload(self, config, rng):
        """An all-zeros payload after a detected preamble must decode as
        zeros, not as noise-driven ones."""
        txs = [DeviceTransmission(shift=40, bits=[0, 0, 0, 0])]
        decode = _decode_fast(config, {0: 40}, txs, rng, snr_db=0.0)
        assert decode.devices[0].detected
        assert decode.bits_of(0) == [0, 0, 0, 0]

    def test_bits_of_unknown_device(self, config, rng):
        txs = [DeviceTransmission(shift=10, bits=[1])]
        decode = _decode_fast(config, {0: 10}, txs, rng)
        with pytest.raises(DecodingError):
            decode.bits_of(99)


class TestRoundMatrixDecode:
    """One round through ``decode_rounds`` and ``decode_fast_symbols``."""

    def test_matches_per_symbol_decode(self, config, rng):
        """The vectorised path must agree with the reference decoder."""
        shifts = {0: 20, 1: 260}
        bins = np.array([20.2, 260.1])
        amps = np.array([1.0, 1.0])
        phases = np.array([0.5, 2.0])
        bits = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        bit_matrix = np.vstack([np.ones((6, 2)), bits])
        symbols = compose_rounds(
            config.chirp_params,
            bins[None], amps[None], phases[None], bit_matrix[None],
        )[0]
        noisy = awgn(symbols, 5.0, rng)
        receiver = NetScatterReceiver(config, shifts)
        fast = receiver.decode_rounds(noisy[None]).frame(0)
        slow = oracle.decode_fast_symbols(receiver, list(noisy))
        for device_id in shifts:
            assert fast.devices[device_id].detected == slow.devices[
                device_id
            ].detected
            assert fast.bits_of(device_id) == slow.bits_of(device_id)
        assert fast.bits_of(0) == bits[:, 0].tolist()
        assert fast.bits_of(1) == bits[:, 1].tolist()

    def test_shape_validation(self, config):
        receiver = NetScatterReceiver(config, {0: 10})
        with pytest.raises(DecodingError):
            receiver.decode_fast_symbols(np.ones((4, 100), dtype=complex))

    def test_preamble_length_validation(self, config):
        receiver = NetScatterReceiver(config, {0: 10})
        with pytest.raises(DecodingError):
            receiver.decode_fast_symbols(
                np.ones((3, 512), dtype=complex), n_preamble_upchirps=6
            )


class TestStreamDecode:
    def test_synchronized_stream_decode(self, small_config, rng):
        """Full waveform path: silence + concurrent frame, receiver must
        find the start and decode everyone."""
        params = small_config.chirp_params
        txs = [
            DeviceTransmission(shift=4, bits=[1, 0, 1, 1]),
            DeviceTransmission(shift=32, bits=[0, 1, 0, 1]),
        ]
        stream = compose_frame(
            params,
            txs,
            leading_silence_samples=150,
            trailing_silence_samples=60,
            rng=rng,
        )
        stream = awgn(stream, 10.0, rng)
        receiver = NetScatterReceiver(small_config, {0: 4, 1: 32})
        decode = decode_frame(receiver, stream, n_payload_bits=4)
        assert abs(decode.start_sample - 150) <= 1
        assert decode.bits_of(0) == [1, 0, 1, 1]
        assert decode.bits_of(1) == [0, 1, 0, 1]

    def test_short_stream_rejected(self, small_config):
        receiver = NetScatterReceiver(small_config, {0: 4})
        with pytest.raises(DecodingError):
            decode_frame(receiver, np.zeros(100, dtype=complex),
                n_payload_bits=4,
                synchronize=False,
            )


class TestRoundsDecodeColumns:
    def _decode(self, device_ids):
        n = len(device_ids)
        return RoundsDecode(
            device_ids=list(device_ids),
            shifts=np.arange(n),
            detected=np.ones((1, n), dtype=bool),
            preamble_power=np.ones((1, n)),
            noise_power=np.ones(1),
            bits=np.zeros((1, 2, n), dtype=np.uint8),
            bit_powers=np.zeros((1, 2, n)),
        )

    def test_column_of_follows_device_order(self):
        decode = self._decode([7, 3, 11, 0])
        assert [decode.column_of(d) for d in (7, 3, 11, 0)] == [0, 1, 2, 3]
        assert decode.column_of(np.int64(11)) == 2

    def test_unknown_device_raises(self):
        decode = self._decode([7, 3])
        with pytest.raises(DecodingError, match="device 5"):
            decode.column_of(5)
        # The index built by the first lookup is not stale after a miss.
        assert decode.column_of(3) == 1


class TestNonFiniteNoiseInputs:
    """A NaN or infinite SNR or signal power raises before any draw.

    Before the check, ``noise_snr_db=nan`` decoded to NaN noise floors
    and nothing detected, ``-inf`` to infinite floors, ``+inf`` to a
    floor near zero, and ``signal_power=nan`` passed the ``<= 0`` test.
    """

    N_ROUNDS = 2

    @staticmethod
    def _decode(entry, rng, **noise):
        from repro.core.config import NetScatterConfig
        from repro.core.dcss import compose_rounds

        config = NetScatterConfig(n_association_shifts=0)
        receiver = NetScatterReceiver(config, {0: 10, 1: 200})
        rounds = TestNonFiniteNoiseInputs.N_ROUNDS
        bins = np.tile([10.0, 200.0], (rounds, 1))
        amps, phases = np.ones((rounds, 2)), np.zeros((rounds, 2))
        bit_tensor = np.ones((rounds, 8, 2))
        if entry == "decode_readout":
            return receiver.decode_readout(
                bins, amps, phases, bit_tensor, rng=rng, **noise
            )
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bit_tensor,
            respread=False,
        )
        return receiver.decode_rounds(
            symbols, dechirped=True, rng=rng, **noise
        )

    def _assert_rejected(self, entry, **noise):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(DecodingError):
            self._decode(entry, rng, **noise)
        assert rng.bit_generator.state == state  # nothing was drawn

    ENTRIES = ("decode_rounds", "decode_readout")

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_non_finite_snr_rejected(self, entry, snr):
        self._assert_rejected(entry, noise_snr_db=snr)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_one_nan_round_rejected(self, entry):
        self._assert_rejected(entry, noise_snr_db=np.array([-10.0, np.nan]))

    @pytest.mark.parametrize("power", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_non_finite_signal_power_rejected(self, entry, power):
        self._assert_rejected(
            entry, noise_snr_db=-10.0, signal_power=power
        )

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_finite_inputs_still_decode(self, entry):
        decode = self._decode(
            entry, np.random.default_rng(5),
            noise_snr_db=np.array([-10.0, 0.0]), signal_power=2.0,
        )
        assert np.all(np.isfinite(decode.noise_power))
        assert decode.detected.all()


def _tone_batch(n_rounds=2, n_symbols=8):
    """Two devices' tone-sum inputs and their dechirped symbol tensor."""
    config = NetScatterConfig(n_association_shifts=0)
    receiver = NetScatterReceiver(config, {0: 10, 1: 200})
    bins = np.tile([10.0, 200.0], (n_rounds, 1))
    amps, phases = np.ones((n_rounds, 2)), np.zeros((n_rounds, 2))
    bit_tensor = np.ones((n_rounds, n_symbols, 2))
    symbols = compose_rounds(
        config.chirp_params, bins, amps, phases, bit_tensor, respread=False
    )
    return receiver, (bins, amps, phases, bit_tensor), symbols


def _assert_rejected_before_any_draw(decode, match=None):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(DecodingError, match=match):
        decode(rng)
    assert rng.bit_generator.state == state  # nothing was drawn


class TestFrameShapeValidation:
    """Every entry point rejects a frame shape it cannot read.

    Before the shared check, ``decode_rounds`` and ``decode_readout``
    decoded ``n_preamble_upchirps=-1`` silently (every symbol but the
    last read as preamble), raised numpy's zero-size reduction error for
    ``0`` and numpy's concatenate error for a zero-round batch.
    """

    @pytest.mark.parametrize(
        "n_preamble, match", [(-1, "n_preamble_upchirps"), (0, "n_preamble")]
    )
    @pytest.mark.parametrize("entry", ["decode_rounds", "decode_readout"])
    def test_preamble_length_below_one_rejected(self, entry, n_preamble,
                                                match):
        receiver, tones, symbols = _tone_batch()

        def decode(rng):
            noise = dict(
                n_preamble_upchirps=n_preamble, noise_snr_db=-10.0, rng=rng
            )
            if entry == "decode_readout":
                return receiver.decode_readout(*tones, **noise)
            return receiver.decode_rounds(symbols, dechirped=True, **noise)

        _assert_rejected_before_any_draw(decode, match)

    @pytest.mark.parametrize("entry", ["decode_rounds", "decode_readout"])
    def test_zero_round_batch_rejected(self, entry):
        receiver, tones, symbols = _tone_batch()

        def decode(rng):
            noise = dict(noise_snr_db=-10.0, rng=rng)
            if entry == "decode_readout":
                return receiver.decode_readout(
                    *(t[:0] for t in tones), **noise
                )
            return receiver.decode_rounds(
                symbols[:0], dechirped=True, **noise
            )

        _assert_rejected_before_any_draw(decode, "at least one round")

    def test_ragged_symbol_list_rejected(self, config):
        receiver = NetScatterReceiver(config, {0: 10})
        n = config.chirp_params.n_samples
        symbols = [np.ones(n, complex)] * 6 + [np.ones(n - 1, complex)]
        with pytest.raises(DecodingError, match="samples"):
            receiver.decode_fast_symbols(symbols)

    def test_fewer_symbols_than_preamble_rejected(self, config):
        receiver = NetScatterReceiver(config, {0: 10})
        n = config.chirp_params.n_samples
        with pytest.raises(DecodingError, match="fewer symbols"):
            receiver.decode_fast_symbols([np.ones(n, complex)] * 5)
        with pytest.raises(DecodingError, match="fewer symbols"):
            receiver.decode_fast_symbols([])

    def test_negative_start_sample_rejected(self, small_config):
        receiver = NetScatterReceiver(small_config, {0: 4})
        n = small_config.chirp_params.n_samples
        with pytest.raises(DecodingError, match="start_sample"):
            decode_frame(receiver, np.zeros(20 * n, dtype=complex),
                n_payload_bits=4,
                synchronize=False,
                start_sample=-n,
            )


class TestNonFiniteToneInputs:
    """``decode_readout`` rejects a NaN or infinite tone before any draw.

    Before the check a NaN bin, NaN phase or infinite amplitude decoded
    silently: every device read undetected and the floors were NaN.
    """

    @pytest.mark.parametrize(
        "column, value",
        [(0, np.nan), (0, np.inf), (1, np.inf), (1, np.nan), (2, np.nan),
         (2, -np.inf)],
    )
    def test_non_finite_tone_rejected(self, column, value):
        receiver, tones, _ = _tone_batch()
        tones = [t.copy() for t in tones]
        tones[column][1, 0] = value
        name = ("effective_bins", "amplitudes", "phases_rad")[column]
        _assert_rejected_before_any_draw(
            lambda rng: receiver.decode_readout(
                *tones, noise_snr_db=-10.0, rng=rng
            ),
            name,
        )


class TestNonFiniteKeyingAndSamples:
    """Every entry point rejects a NaN or infinite input before any draw.

    Before the checks each of these decoded silently; an infinite frame
    sample in ``decode_fast_symbols`` read every device undetected, with
    preamble power 0.
    """

    def test_nan_bit_tensor_rejected(self):
        receiver, (bins, amps, phases, bit_tensor), _ = _tone_batch()
        bit_tensor = bit_tensor.copy()
        bit_tensor[0, 7, 1] = np.nan
        _assert_rejected_before_any_draw(
            lambda rng: receiver.decode_readout(
                bins, amps, phases, bit_tensor, noise_snr_db=-10.0, rng=rng
            ),
            "bit_tensor",
        )

    def test_nan_symbol_sample_rejected(self):
        receiver, _, symbols = _tone_batch()
        symbols = symbols.copy()
        symbols[1, 3, 17] = np.nan
        _assert_rejected_before_any_draw(
            lambda rng: receiver.decode_rounds(
                symbols, dechirped=True, noise_snr_db=-10.0, rng=rng
            ),
            "symbol_tensor",
        )

    def test_infinite_frame_sample_rejected(self):
        receiver, tones, _ = _tone_batch()
        frame = compose_rounds(receiver.config.chirp_params, *tones)[0]
        frame[2, 5] = np.inf
        with pytest.raises(DecodingError, match="symbols"):
            receiver.decode_fast_symbols(list(frame))


class TestStageBMixing:
    """How the one decision rule reads a span's values and adds its
    finished noise."""

    def test_elementwise_maxima_equal_the_reduction(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(4, 7, 5, 3))
        values[0, 0, 0] = [2.0, 2.0, 1.0]  # ties
        values[0, 0, 1] = [-0.0, 0.0, -1.0]
        values[0, 0, 2] = [np.inf, 1.0, -np.inf]
        values[0, 0, 3] = [1.0, np.nan, 0.0]
        assert np.array_equal(
            receiver_module._max3(values), values.max(axis=-1),
            equal_nan=True,
        )

    @pytest.mark.parametrize("n_devices", [1, 2, 64])
    @pytest.mark.parametrize("mode", ["payload", "full"])
    def test_draw_part_returns_finished_blocks(self, mode, n_devices):
        """The draw part correlates and scales every block it draws,
        bit for bit as ``(ζ @ Lᵀ)·σ``, ``ζ·σ·√N`` and ``(ζ @ Pᵀ)·σ``
        over a same-seed stream's draws, in the stream's order: numpy's
        stacked product over the whole block, one ``(D, W)`` product per
        symbol row. At 64 devices the full window block and the located
        block each span several chunks."""
        config = NetScatterConfig(n_association_shifts=0)
        receiver = NetScatterReceiver(
            config, {d: 8 * d for d in range(n_devices)}
        )
        plan = receiver._readout_plan(dechirped=True)
        n_rounds, n_symbols, n_pre = 3, 46, 6
        scale = np.array([0.5, 1.25, 3.0])
        noise = receiver_module._draw_span_noise(
            NoiseStream(np.random.default_rng(9), mode), plan, n_rounds,
            n_symbols, n_pre, scale,
        )
        zeta = NoiseStream(np.random.default_rng(9), mode).standard_complex
        devices, width = plan.n_devices, plan.window_width
        rows = n_symbols if mode == "full" else n_pre
        window = zeta((n_rounds, rows, devices, width))
        expected = {
            "window": (window @ plan.window_noise_factor.T)
            * scale[:, None, None, None],
            "probe": zeta((n_rounds, plan.n_probes))
            * (scale[:, None] * np.sqrt(float(plan.n_samples))),
        }
        if mode == "payload":
            located = zeta((n_rounds, n_symbols - n_pre, devices, 3))
            expected["located"] = (
                located @ plan.payload_noise_factor.T
            ) * scale[:, None, None, None]
        assert noise.full == (mode == "full")
        assert set(noise._blocks) == set(expected)
        for name, block in expected.items():
            assert np.array_equal(noise.take(name), block), name

    @pytest.mark.parametrize("mode", ["payload", "full"])
    @pytest.mark.parametrize("backend", ["analytic", "fft"])
    def test_pool_stage_b_adds_each_block_once_and_frees_it(
        self, monkeypatch, backend, mode
    ):
        """Through the span pipeline on two CPUs, one span per round:
        the stage thread draws and finishes every span's noise, and the
        caller takes each block once, so no block outlives its span's
        decision even while the span's noise object is still held."""
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 2)
        n_rounds = 4
        receiver, batch, symbols = _tone_batch(n_rounds=n_rounds)
        receiver = NetScatterReceiver(
            receiver.config, receiver.assignments, readout=backend
        )
        monkeypatch.setattr(
            receiver,
            "_decide_spans",
            lambda n, *args, **kwargs: [(r, r + 1) for r in range(n)],
        )
        draw, correlated = (
            receiver_module._draw_span_noise,
            receiver_module._correlated,
        )
        spans, refs, taken = [], [], []
        correlated_on, taken_on = [], []

        def recording_draw(*args):
            noise = draw(*args)
            spans.append(noise)
            refs.extend(weakref.ref(b) for b in noise._blocks.values())
            return noise

        def recording_correlated(*args):
            correlated_on.append(threading.current_thread().name)
            return correlated(*args)

        def recording_take(noise, name):
            taken.append((spans.index(noise), name))
            taken_on.append(threading.current_thread().name)
            return noise._blocks.pop(name)

        monkeypatch.setattr(receiver_module, "_draw_span_noise", recording_draw)
        monkeypatch.setattr(receiver_module, "_correlated", recording_correlated)
        monkeypatch.setattr(receiver_module._SpanNoise, "take", recording_take)
        kwargs = dict(
            noise_snr_db=-10.0, rng=np.random.default_rng(4), noise_mode=mode
        )
        if backend == "fft":
            receiver.decode_rounds(symbols, dechirped=True, **kwargs)
        else:
            receiver.decode_readout(*batch, **kwargs)
        names = ["window", "probe"] + (["located"] if mode == "payload" else [])
        assert len(spans) == n_rounds
        assert sorted(taken) == [
            (k, name) for k in range(n_rounds) for name in sorted(names)
        ]
        # Both correlating products run in the draw part, on the stage
        # thread; the caller only takes the finished blocks.
        assert len(correlated_on) == n_rounds * (len(names) - 1)
        assert all(t.startswith(STAGE_THREAD_PREFIX) for t in correlated_on)
        assert set(taken_on) == {threading.current_thread().name}
        assert all(ref() is None for ref in refs)
        assert all(noise._blocks == {} for noise in spans)
