"""Unit tests for repro.phy.sync — packet-start estimation."""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.errors import SynchronizationError
from waveform_oracle import (
    OnOffKeyedTransmitter,
    PreambleSynchronizer,
    apply_cfo,
    estimate_cfo_bins,
)


def _stream_with_packet(params, shift, start, payload, rng, snr_db=None):
    tx = OnOffKeyedTransmitter(params, shift)
    packet = tx.packet(payload)
    stream = np.zeros(start + packet.size + 2 * params.n_samples, dtype=complex)
    stream[start : start + packet.size] = packet
    if snr_db is not None:
        stream = awgn(stream, snr_db, rng)
    return stream


class TestSynchronizer:
    def test_exact_start_noiseless(self, small_params, rng):
        start = 137
        stream = _stream_with_packet(
            small_params, 11, start, [1, 0, 1, 0], rng
        )
        sync = PreambleSynchronizer(small_params)
        result = sync.synchronize(stream, coarse_step=4)
        assert result.start_sample == start

    def test_start_with_noise(self, small_params, rng):
        start = 55
        stream = _stream_with_packet(
            small_params, 3, start, [1, 1, 0, 0], rng, snr_db=5.0
        )
        sync = PreambleSynchronizer(small_params)
        result = sync.synchronize(stream, coarse_step=4)
        assert abs(result.start_sample - start) <= 1

    def test_multiple_devices_share_boundary(self, small_params, rng):
        """Concurrent devices with different shifts share the packet
        boundary; the estimator must still lock."""
        start = 40
        stream = None
        for shift in (2, 20, 40):
            s = _stream_with_packet(small_params, shift, start, [1, 0], rng)
            stream = s if stream is None else stream + s
        sync = PreambleSynchronizer(small_params)
        result = sync.synchronize(stream, coarse_step=2)
        assert abs(result.start_sample - start) <= 1

    def test_alignment_score_peaks_at_truth(self, small_params, rng):
        start = 64
        stream = _stream_with_packet(small_params, 5, start, [1, 0], rng)
        sync = PreambleSynchronizer(small_params)
        at_truth = sync.alignment_score(stream, start)
        off = sync.alignment_score(stream, start + small_params.n_samples // 2)
        assert at_truth > off

    def test_too_short_stream_rejected(self, small_params):
        sync = PreambleSynchronizer(small_params)
        with pytest.raises(SynchronizationError):
            sync.synchronize(np.zeros(10, dtype=complex))

    def test_out_of_bounds_score_rejected(self, small_params):
        sync = PreambleSynchronizer(small_params)
        stream = np.zeros(sync.preamble_samples + 10, dtype=complex)
        with pytest.raises(SynchronizationError):
            sync.alignment_score(stream, -1)
        with pytest.raises(SynchronizationError):
            sync.alignment_score(stream, 11)

    def test_invalid_preamble_shape(self, small_params):
        with pytest.raises(SynchronizationError):
            PreambleSynchronizer(small_params, n_upchirps=0)


class TestCfoEstimation:
    def test_zero_cfo(self, params):
        tx = OnOffKeyedTransmitter(params, 123)
        preamble = tx.preamble()
        n = params.n_samples
        up = preamble[:n]
        down = preamble[6 * n : 7 * n]
        cfo = estimate_cfo_bins(params, up, down)
        assert cfo == pytest.approx(0.0, abs=0.06)

    def test_positive_cfo_recovered(self, params):
        tx = OnOffKeyedTransmitter(params, 40)
        preamble = tx.preamble()
        shifted = apply_cfo(preamble, 300.0, params.bandwidth_hz)
        n = params.n_samples
        cfo_bins = estimate_cfo_bins(
            params, shifted[:n], shifted[6 * n : 7 * n]
        )
        expected = 300.0 * params.n_samples / params.bandwidth_hz
        assert cfo_bins == pytest.approx(expected, abs=0.1)

    def test_cfo_independent_of_shift(self, params):
        """The half-sum cancels the unknown cyclic shift."""
        estimates = []
        for shift in (3, 100, 400):
            tx = OnOffKeyedTransmitter(params, shift)
            preamble = apply_cfo(
                tx.preamble(), 200.0, params.bandwidth_hz
            )
            n = params.n_samples
            estimates.append(
                estimate_cfo_bins(
                    params, preamble[:n], preamble[6 * n : 7 * n]
                )
            )
        assert max(estimates) - min(estimates) < 0.15
