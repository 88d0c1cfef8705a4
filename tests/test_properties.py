"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.allocation import cyclic_bin_distance, power_aware_allocation
from repro.core.config import NetScatterConfig
from repro.phy.chirp import ChirpParams, cyclic_shifted_upchirp, downchirp
from repro.utils.conversions import (
    db_to_linear,
    freq_offset_to_bins,
    timing_offset_to_bins,
)

SMALL_PARAMS = ChirpParams(bandwidth_hz=125e3, spreading_factor=6)
SMALL_CONFIG = NetScatterConfig(
    bandwidth_hz=125e3, spreading_factor=6, skip=2, n_association_shifts=0
)


class TestConversionProperties:
    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_db_inverts_log(self, value_db):
        assert abs(10.0 * np.log10(db_to_linear(value_db)) - value_db) < 1e-9

    @given(
        st.floats(min_value=-1e-4, max_value=1e-4),
        st.floats(min_value=1e3, max_value=1e7),
    )
    def test_timing_bins_scale_with_bandwidth(self, dt, bw):
        assert abs(timing_offset_to_bins(dt, bw) / bw - dt) < 1e-12

    @given(
        st.floats(min_value=-1e4, max_value=1e4),
        st.integers(min_value=6, max_value=12),
    )
    def test_freq_bins_in_bin_spacings(self, df, sf):
        bins = freq_offset_to_bins(df, 500e3, sf)
        assert abs(bins * 500e3 / 2**sf - df) < 1e-6


class TestChirpProperties:
    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=30, deadline=None)
    def test_shift_decodes_to_itself(self, shift):
        """Noiseless invariant over every shift: dechirp + argmax."""
        symbol = cyclic_shifted_upchirp(SMALL_PARAMS, shift)
        spectrum = np.abs(np.fft.fft(symbol * downchirp(SMALL_PARAMS)))
        assert int(np.argmax(spectrum)) == shift

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=30, deadline=None)
    def test_shift_composition(self, a, b):
        """Shifting by a then b equals shifting by a+b (mod N) up to a
        constant phase: their dechirped peaks coincide."""
        composed = np.roll(
            np.asarray(cyclic_shifted_upchirp(SMALL_PARAMS, a)), -b
        )
        direct = cyclic_shifted_upchirp(SMALL_PARAMS, (a + b) % 64)
        spec_a = np.abs(np.fft.fft(composed * downchirp(SMALL_PARAMS)))
        spec_b = np.abs(np.fft.fft(direct * downchirp(SMALL_PARAMS)))
        assert int(np.argmax(spec_a)) == int(np.argmax(spec_b))

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=20, deadline=None)
    def test_unit_power(self, shift):
        symbol = cyclic_shifted_upchirp(SMALL_PARAMS, shift)
        assert abs(float(np.mean(np.abs(symbol) ** 2)) - 1.0) < 1e-9


class TestAllocationProperties:
    @given(
        st.lists(
            st.floats(min_value=-20.0, max_value=40.0),
            min_size=1,
            max_size=32,
            unique=True,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_allocation_invariants(self, snrs):
        """For any SNR population: shifts unique, SKIP-aligned, and the
        strongest-weakest pair at least as far apart as any adjacent
        (in rank) pair."""
        allocation = power_aware_allocation(snrs, SMALL_CONFIG)
        shifts = list(allocation.values())
        assert len(set(shifts)) == len(shifts)
        assert all(s % SMALL_CONFIG.skip == 0 for s in shifts)
        if len(snrs) >= 6:
            order = np.argsort(snrs)[::-1]
            strongest, weakest = int(order[0]), int(order[-1])
            extreme = cyclic_bin_distance(
                allocation[strongest],
                allocation[weakest],
                SMALL_CONFIG.n_bins,
            )
            # The folded layout puts the weakest device deep into the
            # ring, far from the strong edge.
            assert extreme >= SMALL_CONFIG.n_bins / 8

    @given(
        st.lists(
            st.floats(min_value=-20.0, max_value=40.0),
            min_size=2,
            max_size=16,
            unique=True,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_rank_adjacency_in_bins(self, snrs):
        """Devices adjacent in bin space must be adjacent (within 2) in
        SNR rank — the side-lobe-exposure invariant."""
        allocation = power_aware_allocation(snrs, SMALL_CONFIG)
        rank_of = {
            device: rank
            for rank, device in enumerate(np.argsort(snrs)[::-1])
        }
        by_shift = sorted(allocation.items(), key=lambda kv: kv[1])
        for (dev_a, _), (dev_b, _) in zip(by_shift, by_shift[1:]):
            assert abs(rank_of[dev_a] - rank_of[dev_b]) <= 2


class TestReceiverProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=31),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        st.integers(min_value=0, max_value=2**10 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_concurrent_decode_exact_at_high_snr(self, slots, payload_seed):
        """For ANY set of distinct SKIP-aligned shifts and ANY payloads,
        the concurrent decode at high SNR returns exactly what was sent
        — the core correctness property of distributed CSS coding."""
        from repro.channel.awgn import awgn
        from repro.core.dcss import (
            DeviceTransmission,
            compose_preamble_and_payload_symbols,
        )
        from repro.core.receiver import NetScatterReceiver

        rng = np.random.default_rng(payload_seed)
        shifts = [2 * s for s in slots]  # SKIP = 2 grid
        payloads = {
            i: rng.integers(0, 2, 6).tolist() for i in range(len(shifts))
        }
        txs = [
            DeviceTransmission(shift=shifts[i], bits=payloads[i])
            for i in range(len(shifts))
        ]
        symbols = compose_preamble_and_payload_symbols(
            SMALL_CONFIG.chirp_params, txs, rng=rng
        )
        noisy = [awgn(s, 15.0, rng) for s in symbols]
        receiver = NetScatterReceiver(
            SMALL_CONFIG, {i: shifts[i] for i in range(len(shifts))}
        )
        decode = receiver.decode_fast_symbols(noisy)
        for i in range(len(shifts)):
            assert decode.bits_of(i) == payloads[i]


class TestCapacityProperties:
    @given(
        st.floats(min_value=-40.0, max_value=-15.0),
        st.integers(min_value=1, max_value=64),
    )
    def test_capacity_monotone_and_superadditive_below_noise(self, snr, n):
        from repro.core.capacity import multiuser_capacity_bps
        from repro.utils.conversions import db_to_linear

        single = multiuser_capacity_bps(500e3, snr, 1)
        multi = multiuser_capacity_bps(500e3, snr, n)
        assert multi >= single
        # The linear-scaling claim only holds below the noise floor:
        # when the aggregate N*snr stays small, capacity is near N times
        # the single-device capacity.
        if n * db_to_linear(snr) < 0.2:
            assert multi >= 0.9 * n * single
