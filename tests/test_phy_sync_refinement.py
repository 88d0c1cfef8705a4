"""Tests for the assignment-aware sample-accurate sync refinement."""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.core.dcss import DeviceTransmission
from repro.errors import SynchronizationError
from waveform_oracle import PreambleSynchronizer, compose_frame, decode_frame


def _scene(params, shifts, start, rng, snr_db=None, payload=(1, 0)):
    txs = [DeviceTransmission(shift=s, bits=list(payload)) for s in shifts]
    stream = compose_frame(
        params,
        txs,
        leading_silence_samples=start,
        trailing_silence_samples=2 * params.n_samples,
        rng=rng,
    )
    if snr_db is not None:
        stream = awgn(stream, snr_db, rng)
    return stream


class TestRefineWithShifts:
    def test_corrects_coarse_error(self, small_params, rng):
        start = 96
        shifts = [4, 20, 40]
        stream = _scene(small_params, shifts, start, rng, snr_db=10.0)
        sync = PreambleSynchronizer(small_params)
        for coarse_error in (-5, -2, 0, 3, 6):
            refined = sync.refine_with_shifts(
                stream, start + coarse_error, shifts
            )
            assert refined == start, f"coarse error {coarse_error}"

    def test_single_device(self, small_params, rng):
        start = 80
        stream = _scene(small_params, [12], start, rng, snr_db=5.0)
        sync = PreambleSynchronizer(small_params)
        assert sync.refine_with_shifts(stream, start + 4, [12]) == start

    def test_below_noise_population(self, params, rng):
        """With 8 devices at -8 dB the combined correlation energy still
        pins the start to the sample."""
        start = 200
        shifts = [0, 64, 128, 192, 256, 320, 384, 448]
        stream = _scene(params, shifts, start, rng, snr_db=-8.0)
        sync = PreambleSynchronizer(params)
        refined = sync.refine_with_shifts(stream, start + 5, shifts)
        assert abs(refined - start) <= 1

    def test_requires_shifts(self, small_params, rng):
        stream = _scene(small_params, [4], 50, rng)
        sync = PreambleSynchronizer(small_params)
        with pytest.raises(SynchronizationError):
            sync.refine_with_shifts(stream, 50, [])

    def test_short_stream_rejected(self, small_params):
        sync = PreambleSynchronizer(small_params)
        with pytest.raises(SynchronizationError):
            sync.refine_with_shifts(
                np.zeros(10, dtype=complex), 0, [4]
            )

    def test_end_to_end_sync_quality(self, small_config, rng):
        """Coarse + refined sync through the receiver: the reported
        start matches the truth at moderate SNR."""
        from repro.core.receiver import NetScatterReceiver

        params = small_config.chirp_params
        start = 133
        payload = [1, 0, 1, 1]
        txs = [
            DeviceTransmission(shift=4, bits=payload),
            DeviceTransmission(shift=32, bits=payload),
        ]
        stream = compose_frame(
            params,
            txs,
            leading_silence_samples=start,
            trailing_silence_samples=2 * params.n_samples,
            rng=rng,
        )
        stream = awgn(stream, 3.0, rng)
        receiver = NetScatterReceiver(small_config, {0: 4, 1: 32})
        decode = decode_frame(receiver, stream, n_payload_bits=4)
        assert abs(decode.start_sample - start) <= 1
        assert decode.bits_of(0) == payload
