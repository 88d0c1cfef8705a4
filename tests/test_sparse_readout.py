"""Sparse-readout decode engine: equivalence, noise rules, batching.

The contract under test: the batched engine with the default ``sparse``
readout makes exactly the decisions of the opt-in ``fft`` exact path
(the sparse operator *is* the zero-padded FFT restricted to the read
columns), the unified noise-floor estimator behaves the same on both
paths, and the readout-domain AWGN fast path realises the physical
noise law.
"""

import numpy as np
import pytest

import per_symbol_oracle as oracle
import readout_oracle
from repro.channel.awgn import awgn, awgn_rounds
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.receiver import NetScatterReceiver
from repro.errors import DecodingError
from repro.phy.chirp import ChirpParams
from repro.phy.demodulation import Demodulator
from repro.phy.noise import estimate_noise_floor, exclusion_mask
from repro.phy.sparse_readout import (
    SparseReadout,
    full_fft_values,
    natural_probe_readout,
)


def _compose_batch(config, assignments, n_rounds, n_payload, rng,
                   offsets_std=0.1):
    """Seeded random batch of concurrent rounds for the given layout."""
    params = config.chirp_params
    shifts = np.array(list(assignments.values()), dtype=float)
    n_devices = shifts.size
    bits = rng.integers(0, 2, size=(n_rounds, n_payload, n_devices))
    bit_tensor = np.concatenate(
        [np.ones((n_rounds, 6, n_devices)), bits], axis=1
    )
    bins = shifts[None, :] + rng.normal(
        0.0, offsets_std, size=(n_rounds, n_devices)
    )
    amplitudes = 10.0 ** (
        rng.uniform(-6.0, 6.0, size=(n_rounds, n_devices)) / 20.0
    )
    phases = rng.uniform(0, 2 * np.pi, size=(n_rounds, n_devices))
    symbols = compose_rounds(params, bins, amplitudes, phases, bit_tensor)
    return symbols, bits


class TestOperatorMatchesFft:
    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_values_match_padded_fft(self, sf):
        """The operator equals the padded FFT at the selected columns."""
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=sf)
        rng = np.random.default_rng(sf)
        zp = 10
        bins = rng.integers(0, params.n_samples * zp, size=40)
        readout = SparseReadout(params, zp, bins)
        symbols = rng.normal(size=(3, params.n_samples)) + 1j * rng.normal(
            size=(3, params.n_samples)
        )
        sparse = readout.spectrum(symbols)
        exact = full_fft_values(params, zp, symbols, bin_indices=bins)
        assert np.allclose(sparse, exact, rtol=1e-9, atol=1e-6)

    def test_rejects_out_of_range_bins(self):
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=7)
        with pytest.raises(DecodingError):
            SparseReadout(params, 10, np.array([params.n_samples * 10]))

    def test_probe_grid_is_orthogonal(self):
        """Natural-grid probes see AWGN as iid: covariance 2^SF * I."""
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=8)
        readout = natural_probe_readout(params, 10, 4)
        cov = readout_oracle.noise_covariance(readout)
        n = params.n_samples
        assert np.allclose(cov, n * np.eye(cov.shape[0]), atol=1e-6)


class TestDecodeEquivalence:
    """Sparse vs zero-padded-FFT decisions are identical bit-for-bit."""

    @pytest.mark.parametrize(
        "sf,n_devices",
        [(7, 1), (7, 16), (9, 2), (9, 64), (9, 256), (12, 8)],
    )
    def test_bits_and_detections_match(self, sf, n_devices):
        config = NetScatterConfig(spreading_factor=sf)
        rng = np.random.default_rng(100 * sf + n_devices)
        step = max(config.skip, (config.n_bins // max(1, n_devices)))
        step = (step // config.skip) * config.skip
        assignments = {
            i: int(i * step) % config.n_bins for i in range(n_devices)
        }
        symbols, _ = _compose_batch(config, assignments, 4, 10, rng)
        noisy = awgn_rounds(symbols, 2.0, rng)
        sparse_rx = NetScatterReceiver(config, assignments)
        fft_rx = NetScatterReceiver(config, assignments, readout="fft")
        sparse = sparse_rx.decode_rounds(noisy)
        exact = fft_rx.decode_rounds(noisy)
        assert np.array_equal(sparse.detected, exact.detected)
        assert np.array_equal(sparse.bits, exact.bits)
        assert np.allclose(sparse.noise_power, exact.noise_power)
        assert np.allclose(sparse.preamble_power, exact.preamble_power)

    def test_round_matrix_agrees_with_per_symbol_reference(self):
        """Engine (sparse) == the slow per-symbol reference decoder."""
        config = NetScatterConfig()
        rng = np.random.default_rng(5)
        assignments = {0: 20, 1: 260, 2: 400}
        symbols, _ = _compose_batch(config, assignments, 1, 8, rng)
        noisy = awgn(symbols[0], 5.0, rng)
        receiver = NetScatterReceiver(config, assignments)
        fast = receiver.decode_rounds(noisy[None]).frame(0)
        slow = oracle.decode_fast_symbols(receiver, list(noisy))
        for device_id in assignments:
            assert (
                fast.devices[device_id].detected
                == slow.devices[device_id].detected
            )
            assert fast.bits_of(device_id) == slow.bits_of(device_id)

    def test_dechirped_domain_decodes_identically(self):
        """respread=False + dechirped=True equals the symbol-domain path."""
        config = NetScatterConfig()
        rng = np.random.default_rng(6)
        assignments = {0: 2, 1: 258}
        params = config.chirp_params
        bits = rng.integers(0, 2, size=(5, 12, 2))
        bit_tensor = np.concatenate([np.ones((5, 6, 2)), bits], axis=1)
        bins = np.array([2.0, 258.0])[None, :] + rng.normal(
            0, 0.1, (5, 2)
        )
        amps = np.ones((5, 2))
        phases = rng.uniform(0, 2 * np.pi, (5, 2))
        spread = compose_rounds(params, bins, amps, phases, bit_tensor)
        dechirped = compose_rounds(
            params, bins, amps, phases, bit_tensor, respread=False
        )
        receiver = NetScatterReceiver(config, assignments)
        a = receiver.decode_rounds(spread)
        b = receiver.decode_rounds(dechirped, dechirped=True)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.detected, b.detected)

    def test_sparse_and_fft_match_under_engine_noise(self):
        """Same seed -> identical readout-noise draws on both backends."""
        config = NetScatterConfig()
        assignments = {0: 2, 1: 258}
        rng = np.random.default_rng(11)
        symbols, _ = _compose_batch(config, assignments, 6, 10, rng)
        sparse_rx = NetScatterReceiver(config, assignments)
        fft_rx = NetScatterReceiver(config, assignments, readout="fft")
        a = sparse_rx.decode_rounds(
            symbols, noise_snr_db=-5.0, rng=np.random.default_rng(1)
        )
        b = fft_rx.decode_rounds(
            symbols, noise_snr_db=-5.0, rng=np.random.default_rng(1)
        )
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.detected, b.detected)


class TestReadoutNoiseLaw:
    def test_window_noise_covariance_realised(self):
        """Injected window noise reproduces the time-domain noise law.

        Compare second moments of the window readout of pure time-domain
        AWGN against the engine's factor-based draws.
        """
        config = NetScatterConfig()
        receiver = NetScatterReceiver(config, {0: 50})
        plan = receiver.readout_plan
        rng = np.random.default_rng(2)
        n = config.chirp_params.n_samples
        trials = 4000
        noise = (
            rng.normal(size=(trials, n)) + 1j * rng.normal(size=(trials, n))
        ) * np.sqrt(0.5)
        through_readout = plan.window_values(noise)[:, 0, :]
        # empirical[j, k] = E[y_j conj(y_k)], the covariance the factor
        # realises as L @ L^H; agreement up to Monte-Carlo error (~ n).
        empirical = through_readout.T @ through_readout.conj() / trials
        factor = plan.window_noise_factor
        model = factor @ factor.T.conj()
        assert np.allclose(empirical, model, atol=0.15 * n)

    def test_ber_statistics_match_time_domain_noise(self):
        """Readout-domain noise gives the same BER as awgn_rounds."""
        config = NetScatterConfig()
        assignments = {0: 2}
        receiver = NetScatterReceiver(
            config, assignments, detection_snr_db=-100.0
        )
        rng = np.random.default_rng(3)
        symbols, bits = _compose_batch(
            config, assignments, 60, 30, rng, offsets_std=0.05
        )
        snr = -16.0
        time_noisy = awgn_rounds(symbols, snr, rng)
        a = receiver.decode_rounds(time_noisy)
        b = receiver.decode_rounds(
            symbols, noise_snr_db=snr, rng=np.random.default_rng(4)
        )
        sent = bits[:, :, 0]
        ber_time = float(np.mean(a.bits[:, :, 0] != sent))
        ber_readout = float(np.mean(b.bits[:, :, 0] != sent))
        assert ber_time > 0.005 and ber_readout > 0.005
        assert abs(ber_time - ber_readout) < 0.35 * max(
            ber_time, ber_readout
        )

    def test_noise_requires_rng(self):
        config = NetScatterConfig()
        receiver = NetScatterReceiver(config, {0: 2})
        with pytest.raises(DecodingError):
            receiver.decode_rounds(
                np.zeros((1, 7, config.n_bins), dtype=complex),
                noise_snr_db=0.0,
            )


def _loop_exclusion_mask(n_bins, zero_pad_factor, exclude_shifts,
                         guard_bins=1.0):
    """Test oracle: the per-shift loop the vectorised mask replaced."""
    mask = np.zeros(n_bins, dtype=bool)
    zp = int(zero_pad_factor)
    guard = max(1, int(round(guard_bins * zp)))
    offsets = np.arange(-guard, guard + 1)
    for shift in exclude_shifts:
        centre = int(round(float(shift) * zp))
        mask[(centre + offsets) % n_bins] = True
    return mask


class TestExclusionMask:
    @pytest.mark.parametrize("zp", [1, 4, 10])
    def test_matches_per_shift_loop(self, zp):
        rng = np.random.default_rng(zp)
        n_bins = 512 * zp
        # Integer, fractional, half-way (round half to even), negative
        # and past-the-end shifts; the mask wraps cyclically.
        shifts = np.concatenate([
            rng.integers(0, 512, 40),
            rng.uniform(-3.0, 515.0, 40),
            np.array([0.25, 0.75, 2.5, 3.5, -0.05, 511.95]) / zp * zp,
        ])
        for guard in (1.0, 0.5, 2.3):
            assert np.array_equal(
                exclusion_mask(n_bins, zp, shifts, guard),
                _loop_exclusion_mask(n_bins, zp, shifts, guard),
            )
        assert not exclusion_mask(n_bins, zp, []).any()


class TestUnifiedNoiseFloor:
    def test_shared_helper_median_path(self):
        power = np.array([1.0, 2.0, 3.0, 100.0])
        floor = estimate_noise_floor(power[:3], fallback_powers=power)
        assert floor == 2.0

    def test_shared_helper_batched(self):
        powers = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        floors = estimate_noise_floor(powers)
        assert np.array_equal(floors, [3.0, 4.0])

    def test_fallback_quantile_under_full_occupancy(self):
        """Full exclusion falls back to the low quantile, not an error."""
        rng = np.random.default_rng(0)
        power = rng.exponential(size=512)
        empty = power[:0]
        floor = estimate_noise_floor(empty, fallback_powers=power)
        assert floor == pytest.approx(np.quantile(power, 0.25))

    def test_engine_full_occupancy_fallback(self):
        """256 devices at SKIP=2 exclude every probe: quantile fallback.

        Regression for the noise_floor full-occupancy fallback on the
        batched path: every natural bin sits within one bin of an
        assignment, so the floor must come from the quantile rule and
        stay positive and finite.
        """
        config = NetScatterConfig(n_association_shifts=0)
        assignments = {i: 2 * i for i in range(256)}
        receiver = NetScatterReceiver(config, assignments)
        plan = receiver.readout_plan
        assert not plan.free_probe_mask.any()
        rng = np.random.default_rng(9)
        symbols, _ = _compose_batch(
            config, assignments, 2, 4, rng, offsets_std=0.05
        )
        decode = receiver.decode_rounds(awgn_rounds(symbols, 0.0, rng))
        assert np.all(decode.noise_power > 0.0)
        assert np.all(np.isfinite(decode.noise_power))


class TestCachedSpectra:
    def test_power_cached(self):
        """Repeated property access returns the same array object."""
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=7)
        demod = Demodulator(params)
        rng = np.random.default_rng(0)
        n = params.n_samples
        result = demod.dechirp(
            rng.normal(size=n) + 1j * rng.normal(size=n)
        )
        assert result.power is result.power
        assert np.allclose(result.power, np.abs(result.spectrum) ** 2)


class TestComposeRoundsValidation:
    def test_shape_errors(self):
        from repro.errors import ConfigurationError

        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=7)
        with pytest.raises(ConfigurationError):
            compose_rounds(
                params,
                np.zeros(3),
                np.zeros((1, 3)),
                np.zeros((1, 3)),
                np.zeros((1, 5, 3)),
            )
        with pytest.raises(ConfigurationError):
            compose_rounds(
                params,
                np.zeros((1, 3)),
                np.zeros((1, 2)),
                np.zeros((1, 3)),
                np.zeros((1, 5, 3)),
            )


class TestLazyOperator:
    """The (N, K) operator must stay unbuilt until time-domain use."""

    def test_operator_unbuilt_until_time_domain_use(self):
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=9)
        readout = SparseReadout(params, 10, np.arange(0, 100))
        assert readout._op is None
        # Analytic consumers leave it unbuilt...
        readout.tone_sum(np.array([[1.0, 2.5]]), np.ones((1, 1, 2)))
        readout.analytic_noise_covariance()
        assert readout._op is None
        # ...and the first time-domain readout builds exactly (N, K).
        readout.spectrum(np.zeros(params.n_samples, dtype=complex))
        assert readout._op.nbytes == 16 * params.n_samples * 100

    def test_analytic_receiver_never_builds_operators(self):
        """readout="analytic" decode paths never touch the operator."""
        # The probe readout is shared process-wide (lru cache); start
        # from a fresh instance so earlier time-domain tests cannot have
        # materialised it already.
        natural_probe_readout.cache_clear()
        config = NetScatterConfig(n_association_shifts=0)
        assignments = {i: 2 * i for i in range(16)}
        rng = np.random.default_rng(21)
        shifts = np.array(list(assignments.values()), dtype=float)
        bins = shifts[None, :] + rng.normal(0.0, 0.2, (2, 16))
        amps = np.ones((2, 16))
        phases = rng.uniform(0, 2 * np.pi, (2, 16))
        bits = np.concatenate(
            [np.ones((2, 6, 16)), rng.integers(0, 2, (2, 8, 16))], axis=1
        )
        receiver = NetScatterReceiver(
            config, assignments, readout="analytic"
        )
        receiver.decode_readout(
            bins, amps, phases, bits,
            noise_snr_db=-15.0, rng=np.random.default_rng(1),
        )
        plan = receiver._readout_plan(dechirped=True)
        for readout in (plan.window_readout, plan.probe_readout):
            assert readout._op is None


class TestResidueLayout:
    """Where the FFT route of ``compose_readout`` finds each bin: cached
    per readout, like its trigonometry, and read-only."""

    @pytest.mark.parametrize(
        "zp, bins",
        [
            (10, [5119, 0, 1, 3, 3, 27, 100, 4090]),  # wraps, repeats
            (10, [0, 10, 20, 5110]),  # natural-grid probes: residue 0
            (1, [7, 2, 511]),
            (4, [1, 2, 5, 6, 2047]),
        ],
    )
    def test_cached_layout_equals_a_fresh_computation(self, zp, bins):
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=9)
        n = params.n_samples
        readout = SparseReadout(params, zp, np.array(bins))
        layout = readout.residue_layout()
        assert readout.residue_layout() is layout
        residues = sorted({q % zp for q in bins})
        gather = [residues.index(q % zp) * n + q // zp for q in bins]
        assert layout[0].tolist() == residues
        assert layout[1].tolist() == gather
        fresh = SparseReadout(params, zp, np.array(bins)).residue_layout()
        for cached, computed in zip(layout, fresh):
            assert np.array_equal(cached, computed)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 1
