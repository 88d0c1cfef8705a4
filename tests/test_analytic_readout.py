"""Analytic bin-domain composition: Dirichlet kernel + decode equivalence.

The contract under test: :func:`compose_readout` /
:meth:`NetScatterReceiver.decode_readout` evaluate the whole
compose -> dechirp -> readout chain in closed form, and their decisions
are bit-identical to routing :func:`compose_rounds` waveforms through
the time-domain engine (``sparse`` *and* the exact ``fft`` backend) —
across spreading factors, device counts and fractional CFO/jitter
offsets, with and without engine-injected readout noise.
"""

import numpy as np
import pytest

import readout_oracle
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_readout, compose_rounds
from repro.core.receiver import NetScatterReceiver
from repro.errors import ConfigurationError, DecodingError
from repro.phy.chirp import ChirpParams
from repro.phy.sparse_readout import SparseReadout, dirichlet_kernel


def _brute_dirichlet(n, offsets):
    t = np.arange(n)
    u = np.atleast_1d(np.asarray(offsets, dtype=float))
    return np.array(
        [np.exp(2j * np.pi * ui * t / n).sum() for ui in u]
    ).reshape(np.shape(offsets))


def _exact_readout_values(
    params, effective_bins, amplitudes, phases_rad, bit_tensor, readout
):
    """Test oracle: readout values as an extended-precision direct sum.

    Every sample of every tone, and every term of the padded DFT at the
    read bins, is formed in ``np.longdouble`` and summed directly, so
    the oracle shares neither the closed form's singular branch nor the
    FFT route's factoring. Phases are reduced exactly: a tone's whole
    bins and the DFT's ``q * t`` enter as integers mod the grid, and
    only a tone's fractional bin is multiplied out (``t = h * B + l``,
    one extended-precision product per sample).
    """
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    n = params.n_samples
    grid = n * readout.zero_pad_factor
    t = np.arange(n)
    b = np.asarray(effective_bins, dtype=float)
    whole = np.floor(b)
    frac = (b - whole).astype(ld)[..., None]  # exact in double
    roots = np.exp(1j * two_pi * np.arange(n, dtype=ld) / n)
    tones = roots[(whole.astype(np.int64)[..., None] * t) % n]
    span = min(n, 64)
    fine = np.exp(1j * two_pi * frac * np.arange(span, dtype=ld) / n)
    coarse = np.exp(
        1j * two_pi * frac * (np.arange(n // span, dtype=ld) * span) / n
    )
    tones *= (coarse[..., :, None] * fine[..., None, :]).reshape(tones.shape)
    tones *= (
        np.asarray(amplitudes, dtype=ld)
        * np.exp(1j * np.asarray(phases_rad, dtype=ld))
    )[..., None]
    sums = np.asarray(bit_tensor, dtype=ld) @ tones
    table = np.exp(-1j * two_pi * np.arange(grid, dtype=ld) / grid)
    return sums @ table[(t[:, None] * readout.bin_indices[None, :]) % grid]


def _compose_on(route, *args, **kwargs):
    """``compose_readout`` with its route rule pinned to one route.

    ``route="closed"`` switches the FFT route off; ``route="fft"`` takes
    it for every call without ``columns``, whatever the shapes.
    """
    import repro.core.dcss as dcss

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            dcss, "_fft_route_cheaper", lambda *a, **k: route == "fft"
        )
        return compose_readout(*args, **kwargs)


def _assert_close_to_exact(values, exact, rel):
    """Entrywise error within ``rel`` of the exact batch's largest value."""
    assert values.shape == exact.shape
    scale = float(np.max(np.abs(exact)))
    assert float(np.max(np.abs(values - exact))) <= rel * scale


#: Bounds of each route against the exact sum, in units of the batch's
#: largest value. The FFT route is exact up to float64 round-off; the
#: closed form's L'Hopital branch is ~1e-7 off on tones that graze a
#: read bin (see ``_DIRICHLET_SINGULAR_TOL``).
EXACT_REL = {"fft": 1e-12, "closed": 1e-7}


class TestDirichletKernel:
    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_integer_bins_are_orthogonal(self, sf):
        """At integer offsets the kernel is N at 0 (mod N), else 0."""
        n = 2**sf
        k = np.arange(-3, 4)
        values = dirichlet_kernel(n, k)
        expected = np.where(k == 0, float(n), 0.0)
        assert np.allclose(values, expected, atol=1e-8)
        assert dirichlet_kernel(n, np.array([n]))[()] == pytest.approx(n)
        assert dirichlet_kernel(n, np.array([-n]))[()] == pytest.approx(n)

    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_fractional_bins_match_explicit_sum(self, sf):
        n = 2**sf
        rng = np.random.default_rng(sf)
        u = np.concatenate(
            [
                rng.uniform(-n, n, size=64),
                [0.5, -0.5, 1e-9, n - 1e-9, n / 2],
            ]
        )
        got = dirichlet_kernel(n, u)
        want = _brute_dirichlet(n, u)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-6 * n)

    def test_periodic_and_conjugate_symmetric(self):
        n = 512
        u = np.random.default_rng(0).uniform(-1.0, 1.0, size=16) * 200
        assert np.allclose(
            dirichlet_kernel(n, u), dirichlet_kernel(n, u + n), atol=1e-8
        )
        assert np.allclose(
            dirichlet_kernel(n, -u),
            np.conjugate(dirichlet_kernel(n, u)),
            atol=1e-9,
        )

    def test_rejects_bad_length(self):
        with pytest.raises(DecodingError):
            dirichlet_kernel(0, np.array([0.0]))


class TestToneKernel:
    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_matches_spectrum_of_tone(self, sf):
        """tone_kernel == readout of the explicit dechirped tone."""
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=sf)
        n = params.n_samples
        rng = np.random.default_rng(sf)
        bins = rng.integers(0, n * 10, size=50)
        readout = SparseReadout(params, 10, bins, fold_downchirp=False)
        b = rng.uniform(-1.0, n + 1.0, size=(2, 3))
        tones = np.exp(2j * np.pi * b[..., None] * np.arange(n) / n)
        assert np.allclose(
            readout_oracle.tone_kernel(readout, b),
            readout.spectrum(tones),
            rtol=1e-9,
            atol=1e-6 * n,
        )

    def test_integer_aligned_tones_exact(self):
        """Exact-hit bins (the removable singularity) stay finite/correct."""
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=9)
        n = params.n_samples
        readout = SparseReadout(
            params, 10, np.arange(0, n) * 10, fold_downchirp=False
        )
        b = np.array([0.0, 2.0, 511.0])
        kernel = readout_oracle.tone_kernel(readout, b)
        expected = np.zeros((3, n))
        expected[np.arange(3), b.astype(int)] = n
        assert np.allclose(kernel, expected, atol=1e-6)

    def test_analytic_noise_covariance_matches_operator(self):
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=8)
        rng = np.random.default_rng(5)
        bins = rng.integers(0, 2560, size=24)
        for fold in (True, False):
            readout = SparseReadout(params, 10, bins, fold_downchirp=fold)
            assert np.allclose(
                readout.analytic_noise_covariance(),
                readout_oracle.noise_covariance(readout),
                rtol=1e-9,
                atol=1e-6,
            )


def _random_batch(config, shifts, n_rounds, n_payload, rng,
                  offsets_std=0.2):
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
    return bins, amplitudes, phases, bit_tensor


class TestComposeReadout:
    def test_matches_time_domain_composition(self):
        """compose_readout == SparseReadout(compose_rounds(...))."""
        config = NetScatterConfig(n_association_shifts=0)
        params = config.chirp_params
        rng = np.random.default_rng(11)
        shifts = np.arange(0, 16, dtype=float) * 2
        bins, amps, phases, bt = _random_batch(config, shifts, 3, 8, rng)
        readout = SparseReadout(
            params, 10, rng.integers(0, 5120, size=120)
        )
        values = compose_readout(params, bins, amps, phases, bt, readout)
        symbols = compose_rounds(params, bins, amps, phases, bt)
        reference = readout.spectrum(symbols)
        assert np.allclose(values, reference, rtol=1e-9, atol=1e-6)

    def test_rejects_bad_shapes_and_params(self):
        config = NetScatterConfig(n_association_shifts=0)
        params = config.chirp_params
        readout = SparseReadout(params, 10, np.array([0, 20]))
        good = (
            np.zeros((2, 3)),
            np.ones((2, 3)),
            np.zeros((2, 3)),
            np.ones((2, 4, 3)),
        )
        with pytest.raises(ConfigurationError):
            compose_readout(
                params, np.zeros((3,)), *good[1:], readout
            )
        other = ChirpParams(bandwidth_hz=500e3, spreading_factor=7)
        with pytest.raises(ConfigurationError):
            compose_readout(other, *good, readout)


class TestDecodeEquivalence:
    """decode_readout decisions == time-domain engine, bit for bit."""

    @pytest.mark.parametrize(
        "sf,n_devices",
        [(7, 1), (7, 16), (9, 8), (9, 64), (9, 256), (12, 32)],
    )
    def test_noiseless_grid(self, sf, n_devices):
        config = NetScatterConfig(
            spreading_factor=sf, n_association_shifts=0
        )
        skip = config.skip
        assert n_devices <= config.max_devices
        assignments = {i: i * skip for i in range(n_devices)}
        rng = np.random.default_rng(100 * sf + n_devices)
        shifts = np.array(list(assignments.values()), dtype=float)
        bins, amps, phases, bt = _random_batch(
            config, shifts, 2, 6, rng
        )
        analytic = NetScatterReceiver(
            config, assignments, readout="analytic"
        )
        sparse = NetScatterReceiver(config, assignments)
        fft = NetScatterReceiver(config, assignments, readout="fft")
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )
        decode_a = analytic.decode_readout(bins, amps, phases, bt)
        decode_s = sparse.decode_rounds(symbols)
        decode_f = fft.decode_rounds(symbols)
        for other in (decode_s, decode_f):
            assert np.array_equal(decode_a.detected, other.detected)
            assert np.array_equal(decode_a.bits, other.bits)
        assert np.allclose(
            decode_a.preamble_power, decode_s.preamble_power, rtol=1e-7
        )

    def test_cfo_jitter_fractional_bins(self):
        """Large fractional offsets (jitter + CFO) stay bit-identical."""
        config = NetScatterConfig(n_association_shifts=0)
        assignments = {i: 2 * i for i in range(32)}
        rng = np.random.default_rng(77)
        shifts = np.array(list(assignments.values()), dtype=float)
        bins, amps, phases, bt = _random_batch(
            config, shifts, 4, 10, rng, offsets_std=0.4
        )
        analytic = NetScatterReceiver(
            config, assignments, readout="analytic"
        )
        sparse = NetScatterReceiver(config, assignments)
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )
        a = analytic.decode_readout(bins, amps, phases, bt)
        s = sparse.decode_rounds(symbols)
        assert np.array_equal(a.bits, s.bits)
        assert np.array_equal(a.detected, s.detected)

    def test_engine_noise_same_seed_same_decisions(self):
        """Readout-domain AWGN: shared generator state -> shared noise.

        Both paths draw through the same analytic window covariance
        factor, so a single-chunk batch decoded from the same seed makes
        identical decisions under identical noise.
        """
        config = NetScatterConfig(n_association_shifts=0)
        assignments = {i: 2 * i for i in range(8)}
        rng = np.random.default_rng(5)
        shifts = np.array(list(assignments.values()), dtype=float)
        bins, amps, phases, bt = _random_batch(
            config, shifts, 6, 12, rng
        )
        analytic = NetScatterReceiver(
            config, assignments, readout="analytic"
        )
        sparse = NetScatterReceiver(config, assignments)
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )
        a = analytic.decode_readout(
            bins, amps, phases, bt,
            noise_snr_db=-18.0, rng=np.random.default_rng(9),
        )
        s = sparse.decode_rounds(
            symbols, noise_snr_db=-18.0, rng=np.random.default_rng(9)
        )
        assert np.array_equal(a.bits, s.bits)
        assert np.array_equal(a.detected, s.detected)
        assert np.allclose(a.noise_power, s.noise_power, rtol=1e-9)

    def test_decode_readout_validation(self):
        config = NetScatterConfig(n_association_shifts=0)
        receiver = NetScatterReceiver(
            config, {0: 0, 1: 2}, readout="analytic"
        )
        bins = np.zeros((2, 2))
        with pytest.raises(DecodingError):
            receiver.decode_readout(
                np.zeros(2), np.ones((2, 2)), bins, np.ones((2, 8, 2))
            )
        with pytest.raises(DecodingError):
            receiver.decode_readout(
                bins, np.ones((2, 2)), bins, np.ones((2, 3, 2)),
                n_preamble_upchirps=6,
            )
        with pytest.raises(DecodingError):
            receiver.decode_readout(
                bins, np.ones((2, 2)), bins, np.ones((2, 8, 2)),
                noise_snr_db=-10.0,
            )

    def test_invalid_readout_mode_rejected(self):
        config = NetScatterConfig(n_association_shifts=0)
        with pytest.raises(DecodingError):
            NetScatterReceiver(config, {0: 0}, readout="exact")


class TestPreambleRowDedup:
    """compose_readout(n_preamble_rows=) computes shared rows once."""

    def _batch(self, n_rounds=3, n_devices=12, n_payload=7, seed=31):
        config = NetScatterConfig(n_association_shifts=0)
        params = config.chirp_params
        rng = np.random.default_rng(seed)
        shifts = np.arange(n_devices, dtype=float) * 2
        bins, amps, phases, bt = _random_batch(
            config, shifts, n_rounds, n_payload, rng
        )
        readout = SparseReadout(
            params, 10, rng.integers(0, 5120, size=90)
        )
        return params, bins, amps, phases, bt, readout

    def test_dedup_matches_full_computation(self):
        params, bins, amps, phases, bt, readout = self._batch()
        full = compose_readout(params, bins, amps, phases, bt, readout)
        deduped = compose_readout(
            params, bins, amps, phases, bt, readout, n_preamble_rows=6
        )
        # Payload rows come from the same GEMM inputs -> bit-identical;
        # the broadcast preamble rows equal the first computed row.
        assert np.array_equal(full[:, 6:], deduped[:, 6:])
        assert np.allclose(full[:, :6], deduped[:, :6], rtol=1e-12)
        assert all(
            np.array_equal(deduped[:, 0], deduped[:, s]) for s in range(6)
        )

    def test_non_identical_rows_fall_back(self):
        params, bins, amps, phases, bt, readout = self._batch()
        bt = bt.copy()
        bt[:, 2, 0] = 0.0  # break the all-on claim in one preamble row
        full = compose_readout(params, bins, amps, phases, bt, readout)
        claimed = compose_readout(
            params, bins, amps, phases, bt, readout, n_preamble_rows=6
        )
        assert np.array_equal(full, claimed)

    def test_decode_readout_uses_dedup_transparently(self):
        """The receiver's analytic path (which passes n_preamble_rows)
        still matches the time-domain backends bit for bit."""
        config = NetScatterConfig(n_association_shifts=0)
        assignments = {i: 2 * i for i in range(12)}
        rng = np.random.default_rng(8)
        shifts = np.array(list(assignments.values()), dtype=float)
        bins, amps, phases, bt = _random_batch(
            config, shifts, 3, 9, rng
        )
        analytic = NetScatterReceiver(
            config, assignments, readout="analytic"
        ).decode_readout(bins, amps, phases, bt)
        sparse = NetScatterReceiver(config, assignments).decode_rounds(
            compose_rounds(config.chirp_params, bins, amps, phases, bt)
        )
        assert np.array_equal(analytic.bits, sparse.bits)
        assert np.array_equal(analytic.detected, sparse.detected)


def _full_grid_tone_ratio(readout, effective_bins):
    """Test oracle: ``tone_ratio`` with a full-grid singular search.

    The evaluation before the per-tone search: one mask over the whole
    ``(n_tones, K)`` denominator grid picks the L'Hopital entries.
    Returns the ratio and the number of L'Hopital entries, so a test can
    show that the comparison exercised the limit branch.
    """
    b = np.asarray(effective_bins, dtype=float)
    n = readout.params.n_samples
    _, sq, cq, sqn, cqn = readout._trig_tables()
    sb, cb = np.sin(np.pi * b), np.cos(np.pi * b)
    sbn, cbn = np.sin(np.pi * b / n), np.cos(np.pi * b / n)
    ratio = sb[..., None] * cq
    ratio -= cb[..., None] * sq
    den = sbn[..., None] * cqn
    den -= cbn[..., None] * sqn
    near = np.abs(den) < 1e-6
    den[near] = 1.0
    ratio /= den
    idx = np.nonzero(near)
    bi, qi = idx[:-1], idx[-1]
    cos_u = cb[bi] * cq[qi] + sb[bi] * sq[qi]
    cos_un = cbn[bi] * cqn[qi] + sbn[bi] * sqn[qi]
    ratio[idx] = n * cos_u / cos_un
    return ratio, int(near.sum())


def _grazing_tones(rng, bins, zp, n, shape):
    """Tones on, 1e-9 from and 2e-4 from readout bins, plus free ones.

    Grid positions are aliased by -N, 0 or +N natural bins, since the
    kernel is periodic and the search must fold them back.
    """
    size = int(np.prod(shape))
    kind = rng.integers(0, 4, size)
    near = bins[rng.integers(0, bins.size, size)] / zp + n * rng.integers(
        -1, 2, size
    )
    sign = rng.choice([-1.0, 1.0], size)
    tones = rng.uniform(-n, 2 * n, size)
    tones[kind == 0] = near[kind == 0]
    tones[kind == 1] = (near + 1e-9 * sign)[kind == 1]
    tones[kind == 2] = (near + 2e-4 * sign)[kind == 2]
    return tones.reshape(shape)


class TestToneRatioSingularSearch:
    """The per-tone L'Hopital search is bit-identical to a grid mask."""

    @pytest.mark.parametrize("sf", [7, 9, 12])
    @pytest.mark.parametrize("zp", [1, 10])
    def test_matches_full_grid_oracle(self, sf, zp):
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=sf)
        n = params.n_samples
        rng = np.random.default_rng(100 * sf + zp)
        singular = 0
        for lead in [(), (3,), (2, 3)]:
            bins = rng.integers(0, n * zp, size=150)
            bins = np.concatenate([bins, bins[:10]])  # duplicate bins
            readout = SparseReadout(params, zp, bins, fold_downchirp=False)
            tones = _grazing_tones(rng, bins, zp, n, lead + (40,))
            expected, hits = _full_grid_tone_ratio(readout, tones)
            assert np.array_equal(readout_oracle.tone_ratio(readout, tones), expected)
            singular += hits
        assert singular > 0

    @pytest.mark.parametrize("zp", [1, 10])
    def test_columns_equal_the_gathered_full_grid(self, zp):
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=9)
        n = params.n_samples
        rng = np.random.default_rng(zp)
        bins = rng.integers(0, n * zp, size=120)
        readout = SparseReadout(params, zp, bins, fold_downchirp=False)
        tones = _grazing_tones(rng, bins, zp, n, (4, 30))
        columns = rng.integers(0, bins.size, size=(4, 9))
        expected, hits = _full_grid_tone_ratio(readout, tones)
        assert hits > 0
        assert np.array_equal(
            readout_oracle.tone_ratio(readout, tones, columns=columns),
            np.take_along_axis(expected, columns[:, None, :], axis=2),
        )

    def test_columns_shape_validated(self):
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=7)
        readout = SparseReadout(params, 10, np.arange(20))
        with pytest.raises(DecodingError):
            readout_oracle.tone_ratio(readout, np.zeros((2, 3)), columns=np.zeros((3, 4)))
        with pytest.raises(DecodingError):
            readout_oracle.tone_ratio(readout, np.zeros(3), columns=np.zeros((1, 4)))

    @pytest.mark.parametrize(
        "position", [-1, 20, 21, 2.0, 2.5], ids=repr
    )
    def test_columns_positions_validated(self, position):
        """Before the check a negative position silently read a bin at
        the other end of the readout; an out-of-range or float one raised
        numpy's IndexError."""
        config = NetScatterConfig(n_association_shifts=0)
        params = config.chirp_params
        readout = SparseReadout(params, 10, np.arange(20))
        columns = np.array([[0, 5, 19], [3, position, 4]])
        tones = (np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 3)))
        with pytest.raises(DecodingError, match=r"\[0, 20\)"):
            compose_readout(
                params, *tones, np.ones((2, 4, 3)), readout, columns=columns
            )
        with pytest.raises(DecodingError, match=r"\[0, 20\)"):
            readout_oracle.tone_ratio(readout, tones[0], columns=columns)
        # The same call at valid positions reads.
        columns = np.array([[0, 5, 19], [3, 19, 4]])
        assert compose_readout(
            params, *tones, np.ones((2, 4, 3)), readout, columns=columns
        ).shape == (2, 4, 3)


def _payload_batch(n_devices, n_rounds, seed):
    """A SKIP-2 layout in shuffled column order, 30 dB of near-far."""
    config = NetScatterConfig(n_association_shifts=0)
    rng = np.random.default_rng(seed)
    shifts = 2 * rng.permutation(n_devices)
    assignments = {i: int(s) for i, s in enumerate(shifts)}
    bins = shifts[None, :] + rng.normal(0.0, 0.1, (n_rounds, n_devices))
    amps = 10.0 ** (rng.uniform(0.0, 30.0, (n_rounds, n_devices)) / 20.0)
    phases = rng.uniform(0.0, 2 * np.pi, (n_rounds, n_devices))
    bit_tensor = np.ones((n_rounds, 46, n_devices))
    bit_tensor[:, 6:] = rng.integers(0, 2, (n_rounds, 40, n_devices))
    return config, assignments, bins, amps, phases, bit_tensor


class TestLocatedPayloadReadout:
    """Payload rows composed at the located ``±1`` bins only."""

    # Both batches decode in one chunk on either path, so the shared
    # generator state yields the same noise draws on both.
    @pytest.mark.parametrize(
        "n_devices, n_rounds", [(256, 1), (64, 6)]
    )
    def test_decisions_match_sparse_tensor_reference(
        self, n_devices, n_rounds
    ):
        config, assignments, bins, amps, phases, bt = _payload_batch(
            n_devices, n_rounds, seed=n_devices
        )
        analytic = NetScatterReceiver(
            config, assignments, readout="analytic"
        ).decode_readout(
            bins, amps, phases, bt,
            noise_snr_db=-10.0, rng=np.random.default_rng(5),
        )
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt, respread=False
        )
        reference = NetScatterReceiver(config, assignments).decode_rounds(
            symbols, dechirped=True,
            noise_snr_db=-10.0, rng=np.random.default_rng(5),
        )
        assert (analytic.noise_mode, analytic.noise_version) == (
            "payload", 2,
        )
        assert analytic.detected.any() and analytic.bits.any()
        assert np.array_equal(analytic.detected, reference.detected)
        assert np.array_equal(analytic.bits, reference.bits)
        # Closed form vs time-domain matmul: round-off apart.
        for field in ("bit_powers", "preamble_power", "noise_power"):
            assert np.allclose(
                getattr(analytic, field), getattr(reference, field),
                rtol=1e-9, atol=0.0,
            )

    def test_located_columns_match_full_window_composition(self):
        """The located composition is the closed-form full window's,
        gathered; both are the exact sum to the closed form's accuracy,
        and the FFT route's full window to round-off."""
        config, assignments, bins, amps, phases, bt = _payload_batch(
            64, 4, seed=2
        )
        plan = NetScatterReceiver(
            config, assignments, readout="analytic"
        )._readout_plan(dechirped=True)
        rng = np.random.default_rng(3)
        located = rng.integers(
            1, plan.window_width - 1, size=(4, plan.n_devices)
        )
        columns = plan.located_columns(located)
        args = (config.chirp_params, bins, amps, phases, bt[:, 6:])
        located_values = compose_readout(
            *args, plan.window_readout, columns=columns
        )
        full = _compose_on("closed", *args, plan.window_readout)
        expected = np.take_along_axis(full, columns[:, None, :], axis=2)
        # Same kernel entries; only the GEMM summation order differs.
        assert np.allclose(located_values, expected, rtol=1e-12, atol=0.0)
        gathered = full.reshape(full.shape[:2] + (64, plan.window_width))
        assert np.array_equal(
            expected.reshape(expected.shape[:2] + (64, 3)),
            np.take_along_axis(
                gathered,
                located[:, None, :, None] + np.arange(-1, 2),
                axis=3,
            ),
        )
        # Against the exact sum, over the first round's first 3 rows.
        head = (
            config.chirp_params, bins[:1], amps[:1], phases[:1],
            bt[:1, 6:9], plan.window_readout,
        )
        exact = _exact_readout_values(*head)
        _assert_close_to_exact(
            _compose_on("fft", *head), exact, EXACT_REL["fft"]
        )
        _assert_close_to_exact(
            located_values[:1, :3],
            np.take_along_axis(exact, columns[:1, None, :], axis=2),
            EXACT_REL["closed"],
        )


def _grid_readout_values(
    effective_bins, amplitudes, phases_rad, bit_tensor, readout,
    columns=None,
):
    """Test oracle: ``compose_readout``'s evaluation before streaming.

    The whole ``(rounds, tones, bins)`` ratio grid is built by
    ``tone_ratio``, then contracted by two real GEMMs, ``w @ ratio``.
    """
    ratio = readout_oracle.tone_ratio(
        readout, effective_bins, columns=columns
    )
    angles = phases_rad + readout.tone_phase_coeff * effective_bins
    w_real = bit_tensor * (amplitudes * np.cos(angles))[:, None, :]
    w_imag = bit_tensor * (amplitudes * np.sin(angles))[:, None, :]
    values = (w_real @ ratio).astype(complex)
    values.imag += w_imag @ ratio
    bin_phase = readout.bin_phase_factor()
    if columns is not None:
        bin_phase = bin_phase[columns][:, None, :]
    values *= bin_phase
    return values


def _assert_close_to_grid(streamed, grid, rel):
    """Entrywise error within ``rel`` of the batch's largest value.

    Streaming reorders the sum over tones, so an entry's error scales
    with the magnitudes summed into it, not with its own (possibly
    cancelled) value.
    """
    assert streamed.dtype == grid.dtype and streamed.shape == grid.shape
    assert np.max(np.abs(streamed - grid)) <= rel * np.max(np.abs(grid))


#: Relative tolerance of the streamed contraction against the grid
#: oracle: float64 round-off.
STREAMED_REL = 1e-12


class TestStreamedToneSum:
    """compose_readout's streamed contraction == the full-grid GEMM."""

    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_tones_on_and_grazing_readout_bins(self, sf):
        """On-bin tones take the L'Hopital branch inside a block."""
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=sf)
        n = params.n_samples
        rng = np.random.default_rng(sf)
        bins = rng.integers(0, n * 10, size=400)
        readout = SparseReadout(params, 10, bins, fold_downchirp=False)
        tones = _grazing_tones(rng, bins, 10, n, (3, 200))
        _, hits = _full_grid_tone_ratio(readout, tones)
        assert hits > 0
        amps = rng.uniform(0.1, 10.0, tones.shape)
        phases = rng.uniform(0, 2 * np.pi, tones.shape)
        bt = rng.integers(0, 2, (3, 5, 200)).astype(float)
        args = (tones, amps, phases, bt, readout)
        _assert_close_to_grid(
            _compose_on("closed", params, *args),
            _grid_readout_values(*args),
            STREAMED_REL,
        )
        _assert_close_to_exact(
            _compose_on("fft", params, *args),
            _exact_readout_values(params, *args),
            EXACT_REL["fft"],
        )

    def test_wrapping_windows_columns_and_multi_round_chunks(self):
        """Windows that wrap the grid edge, read whole and at located
        columns, over a 7-round chunk of a receiver's readout plan."""
        config, assignments, bins, amps, phases, bt = _payload_batch(
            64, 7, seed=21
        )
        assert 0 in assignments.values()  # its window wraps below bin 0
        plan = NetScatterReceiver(
            config, assignments, readout="analytic"
        )._readout_plan(dechirped=True)
        window = plan.window_readout
        n_grid = config.chirp_params.n_samples * window.zero_pad_factor
        assert window.bin_indices.max() > n_grid - plan.window_width
        rng = np.random.default_rng(4)
        located = rng.integers(
            1, plan.window_width - 1, size=(7, plan.n_devices)
        )
        params = config.chirp_params
        args = (bins, amps, phases, bt[:, 6:], window)
        for columns in (None, plan.located_columns(located)):
            _assert_close_to_grid(
                _compose_on("closed", params, *args, columns=columns),
                _grid_readout_values(*args, columns=columns),
                STREAMED_REL,
            )
        deduped = _compose_on(
            "closed", params, bins, amps, phases, bt, window,
            n_preamble_rows=6,
        )
        _assert_close_to_grid(
            deduped,
            _grid_readout_values(
                bins, amps, phases, bt, window
            ),
            STREAMED_REL,
        )
        # The FFT route over the deduplicated preamble and 3 payload
        # rows, against the exact sum of the distinct rows.
        routed = _compose_on(
            "fft", params, bins, amps, phases, bt[:, :9], window,
            n_preamble_rows=6,
        )
        _assert_close_to_exact(
            routed[:, 5:],
            _exact_readout_values(
                params, bins, amps, phases, bt[:, 5:9], window
            ),
            EXACT_REL["fft"],
        )
        assert all(
            np.array_equal(routed[:, 5], routed[:, s]) for s in range(5)
        )

    def test_blocks_span_rows_and_split_rows(self, monkeypatch):
        """Small and large blocks (several rows per block, one row cut
        across blocks) and products split by symbol rows give the same
        sums."""
        import repro.phy.sparse_readout as sparse_readout

        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=9)
        rng = np.random.default_rng(8)
        bins = rng.integers(0, 5120, size=30)
        readout = SparseReadout(params, 10, bins, fold_downchirp=False)
        tones = _grazing_tones(rng, bins, 10, 512, (6, 40))
        weights = rng.standard_normal((6, 5, 40))
        expected = weights @ readout_oracle.tone_ratio(readout, tones)
        for elements in (7, 40 * 30 * 4):
            for macs in (1 << 18, 60):
                monkeypatch.setattr(
                    sparse_readout, "_RATIO_BLOCK_ELEMENTS", elements
                )
                monkeypatch.setattr(sparse_readout, "_GEMM_MAX_MACS", macs)
                got = readout.tone_sum(tones, weights)
                _assert_close_to_grid(got, expected, 1e-12)

    def test_tone_sum_validates_shapes(self):
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=7)
        readout = SparseReadout(params, 10, np.arange(20))
        with pytest.raises(DecodingError):
            readout.tone_sum(np.zeros((2, 3)), np.zeros((2, 4, 5)))
        with pytest.raises(DecodingError):
            readout.tone_sum(np.zeros(3), np.zeros((1, 4, 3)))
        with pytest.raises(DecodingError):
            readout.tone_sum(
                np.zeros((2, 3)), np.zeros((2, 4, 3)),
                columns=np.zeros((3, 4)),
            )

    @pytest.mark.parametrize(
        "sf,n_devices", [(7, 16), (9, 64), (9, 256), (12, 32)]
    )
    def test_noiseless_decisions_match_the_grid_path(
        self, sf, n_devices, monkeypatch
    ):
        import repro.core.dcss as dcss

        config = NetScatterConfig(
            spreading_factor=sf, n_association_shifts=0
        )
        assignments = {i: i * config.skip for i in range(n_devices)}
        rng = np.random.default_rng(10 * sf + n_devices)
        shifts = np.array(list(assignments.values()), dtype=float)
        batch = _random_batch(config, shifts, 3, 12, rng)
        receiver = NetScatterReceiver(
            config, assignments, readout="analytic"
        )
        monkeypatch.setattr(
            dcss, "_fft_route_cheaper", lambda *a, **k: False
        )
        streamed = receiver.decode_readout(*batch)
        monkeypatch.setattr(
            dcss, "_compose_readout_values", _grid_readout_values
        )
        grid = receiver.decode_readout(*batch)
        assert streamed.detected.any() and streamed.bits.any()
        assert np.array_equal(streamed.detected, grid.detected)
        assert np.array_equal(streamed.bits, grid.bits)
        assert np.allclose(
            streamed.preamble_power, grid.preamble_power, rtol=1e-12
        )
        # The route the rule picks (the FFT route for the 64- and
        # 256-device windows) decides the same, and its preamble
        # windows are the exact sum.
        monkeypatch.undo()
        routed = receiver.decode_readout(*batch)
        assert np.array_equal(routed.detected, streamed.detected)
        assert np.array_equal(routed.bits, streamed.bits)
        bins, amps, phases, bt = batch
        preamble = (
            config.chirp_params, bins, amps, phases, bt[:, :1],
            receiver._readout_plan(dechirped=True).window_readout,
        )
        _assert_close_to_exact(
            _compose_on("fft", *preamble),
            _exact_readout_values(*preamble),
            EXACT_REL["fft"],
        )


def _route_case(sf):
    """Random bins, a window that wraps the grid edge, and tones on,
    grazing (1e-9 and 2e-4 bin from) and far from the read bins, some
    aliased by a whole period, over 2 rounds of 3 keyed rows."""
    params = ChirpParams(bandwidth_hz=500e3, spreading_factor=sf)
    n = params.n_samples
    rng = np.random.default_rng(1000 + sf)
    wrapping = np.arange(-6, 7) % (n * 10)
    bins = np.concatenate([rng.integers(0, n * 10, size=60), wrapping])
    readout = SparseReadout(params, 10, bins, fold_downchirp=False)
    tones = _grazing_tones(rng, bins, 10, n, (2, 40))
    tones[:, :4] = [0.0, -1e-4, n - 2e-4, -n + 1e-9]  # about bin 0
    amps = rng.uniform(0.1, 10.0, tones.shape)
    phases = rng.uniform(0, 2 * np.pi, tones.shape)
    bt = rng.integers(0, 2, (2, 3, 40)).astype(float)
    bt[:, 0] = 1.0
    return params, tones, amps, phases, bt, readout


class TestReadoutRoutes:
    """compose_readout's two routes: accuracy, and which one serves."""

    @pytest.mark.parametrize("route", ["fft", "closed"])
    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_routes_against_the_exact_sum(self, sf, route):
        case = _route_case(sf)
        _, hits = _full_grid_tone_ratio(case[-1], case[1])
        assert hits > 0  # some tones take the L'Hopital branch
        _assert_close_to_exact(
            _compose_on(route, *case),
            _exact_readout_values(*case),
            EXACT_REL[route],
        )

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the L'Hopital branch serves |u| <= N*tol/pi, 1.3e-3 bin at "
            "SF 12, where its error (pi*u)**2/3 of the tone's peak "
            "reaches 5.6e-6; mending it changes closed-form values"
        ),
    )
    def test_closed_form_branch_error_at_sf12(self):
        """One tone 1e-3 bin from a read bin, inside the branch at SF 12
        (at SF 9 the branch ends at 1.6e-4 bin)."""
        params = ChirpParams(bandwidth_hz=500e3, spreading_factor=12)
        readout = SparseReadout(
            params, 10, np.arange(995, 1006), fold_downchirp=False
        )
        case = (
            params, np.array([[100.001]]), np.ones((1, 1)),
            np.zeros((1, 1)), np.ones((1, 1, 1)), readout,
        )
        _assert_close_to_exact(
            _compose_on("closed", *case),
            _exact_readout_values(*case),
            EXACT_REL["closed"],
        )

    @staticmethod
    def _served(monkeypatch, config, assignments, noise_mode="payload"):
        """``{route: [(readout, rows), ...]}`` over one noisy decode, in
        call order.

        ``readout`` is ``"window"``, ``"probe"``, ``"joint"`` (the
        window bins, then the probe bins) or ``"located"`` (the payload
        rows at located columns); ``rows`` counts the distinct rows of
        the call.
        """
        import repro.core.dcss as dcss

        receiver = NetScatterReceiver(
            config, assignments, readout="analytic", noise_mode=noise_mode
        )
        plan = receiver._readout_plan(dechirped=True)
        names = {
            id(plan.window_readout): "window",
            id(plan.probe_readout): "probe",
            id(plan.joint_readout): "joint",
        }
        served = {}
        for route, name in (
            ("closed", "_compose_readout_values"),
            ("fft", "_fft_readout_values"),
        ):
            def spy(*args, _route=route, _kernel=getattr(dcss, name)):
                readout = names[id(args[4])]
                if _route == "closed" and args[5] is not None:
                    readout = "located"
                served.setdefault(_route, []).append(
                    (readout, args[3].shape[1])
                )
                return _kernel(*args)

            monkeypatch.setattr(dcss, name, spy)
        rng = np.random.default_rng(1)
        n = len(assignments)
        shifts = np.array(list(assignments.values()), dtype=float)
        bt = np.ones((2, 16, n))
        bt[:, 6:] = rng.integers(0, 2, (2, 10, n))
        receiver.decode_readout(
            shifts[None, :] + rng.normal(0, 0.1, (2, n)),
            np.ones((2, n)),
            rng.uniform(0, 2 * np.pi, (2, n)),
            bt,
            noise_snr_db=-12.0,
            rng=rng,
        )
        monkeypatch.undo()
        return served

    @pytest.mark.parametrize("noise_mode", ["full", "payload"])
    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_closed_form_serves_the_golden_shapes(
        self, sf, noise_mode, monkeypatch
    ):
        """The version-1 goldens' 6 devices, on either stream."""
        config = NetScatterConfig(spreading_factor=sf, n_association_shifts=0)
        served = self._served(
            monkeypatch, config, {i: 2 + 2 * i for i in range(6)}, noise_mode
        )
        assert set(served) == {"closed"}

    @pytest.mark.parametrize("n_devices", [1, 2, 4])
    def test_closed_form_serves_the_campaign_shapes(
        self, n_devices, monkeypatch
    ):
        config = NetScatterConfig(n_association_shifts=0)
        served = self._served(
            monkeypatch, config, {i: 2 * i for i in range(n_devices)}
        )
        assert set(served) == {"closed"}

    @pytest.mark.parametrize("n_devices", [64, 256])
    def test_fft_route_serves_dense_windows(self, n_devices, monkeypatch):
        """At SF 9 one FFT-route call per span reads the one distinct
        preamble row at the window bins and the probes together; the
        located payload bins stay on the closed form, one call per
        span."""
        config = NetScatterConfig(n_association_shifts=0)
        served = self._served(
            monkeypatch, config, {i: 2 * i for i in range(n_devices)}
        )
        assert set(served) == {"fft", "closed"}
        assert set(served["fft"]) == {("joint", 1)}
        assert set(served["closed"]) == {("located", 10)}
        assert len(served["fft"]) == len(served["closed"])

    def test_full_stream_reads_windows_and_probes_apart(self, monkeypatch):
        """On the full stream the windows read every distinct row, so
        the FFT route reads them and the probes in two calls per span:
        a joint call would gather the probe bins on every row."""
        config = NetScatterConfig(n_association_shifts=0)
        served = self._served(
            monkeypatch, config, {i: 2 * i for i in range(256)}, "full"
        )
        assert set(served) == {"fft"}
        assert served["fft"][:2] == [("window", 11), ("probe", 1)]
        assert set(served["fft"]) == {("window", 11), ("probe", 1)}


def _joint_case(sf, n_tones, noise_mode, n_rounds=13, n_payload=10, seed=3):
    """An analytic receiver of ``n_tones`` devices at SF ``sf``, its
    chirp parameters, a tone batch and the window rows of
    ``noise_mode``'s stream."""
    config = NetScatterConfig(spreading_factor=sf, n_association_shifts=0)
    assignments = {i: config.skip * i for i in range(n_tones)}
    receiver = NetScatterReceiver(
        config, assignments, readout="analytic", noise_mode=noise_mode
    )
    shifts = np.array(list(assignments.values()), dtype=float)
    batch = _random_batch(
        config, shifts, n_rounds, n_payload, np.random.default_rng(seed)
    )
    window_rows = batch[3].shape[1] if noise_mode == "full" else 6
    return receiver, config.chirp_params, batch, window_rows


def _separate_reads(
    params, effective_bins, amplitudes, phases_rad, bit_tensor,
    window_readout, probe_readout, joint_readout, n_preamble_rows=0,
):
    """The window and probe reads as two ``compose_readout`` calls."""
    tones = (params, effective_bins, amplitudes, phases_rad)
    windows = compose_readout(
        *tones, bit_tensor, window_readout, n_preamble_rows=n_preamble_rows
    )
    probes = compose_readout(*tones, bit_tensor[:, :1], probe_readout)
    return windows, probes[:, 0]


def _joint_reads(monkeypatch, plan):
    """A list that gets, per window-and-probe read, whether one call
    through the plan's joint layout served it."""
    import repro.core.dcss as dcss

    reads = []
    compose = dcss.compose_readout

    def spy(*args, **kwargs):
        readout = args[5]
        if readout is plan.joint_readout:
            reads.append(True)
        elif readout is plan.window_readout and "columns" not in kwargs:
            reads.append(False)
        return compose(*args, **kwargs)

    monkeypatch.setattr(dcss, "compose_readout", spy)
    return reads


_DECODE_FIELDS = (
    "detected", "bits", "bit_powers", "preamble_power", "noise_power",
)


class TestJointRead:
    """``compose_windows_and_probes`` gives, bit for bit, the window and
    probe reads as two ``compose_readout`` calls, and makes one call
    through the plan's joint layout only where the windows read one
    distinct row and the route model sends the window read, the probe
    read and the joint read to the FFT route."""

    #: ``(sf, tones, stream, joint)`` on both sides of each read's
    #: route crossover. On the payload stream the window read has one
    #: distinct row: SF 7 windows and probes cross at 8 tones, SF 9
    #: windows at 25, SF 12 probes at 27 and windows at 84. On the full
    #: stream (10 payload rows, so 11 distinct rows) the reads stay two
    #: on either side of the window crossover (SF 7 at 40 tones, SF 9
    #: at 81).
    CASES = [
        (7, 7, "payload", False),
        (7, 8, "payload", True),
        (9, 24, "payload", False),
        (9, 25, "payload", True),
        (9, 64, "payload", True),
        (12, 26, "payload", False),
        (12, 83, "payload", False),
        (12, 84, "payload", True),
        (7, 39, "full", False),
        (7, 40, "full", False),
        (9, 80, "full", False),
        (9, 81, "full", False),
    ]

    @pytest.mark.parametrize("sf, n_tones, noise_mode, joint", CASES)
    def test_read_equals_the_separate_reads(
        self, sf, n_tones, noise_mode, joint, monkeypatch
    ):
        from repro.core.dcss import compose_windows_and_probes

        receiver, params, batch, window_rows = _joint_case(
            sf, n_tones, noise_mode
        )
        plan = receiver._readout_plan(dechirped=True)
        args = (
            params, *batch[:3], batch[3][:, :window_rows],
            plan.window_readout, plan.probe_readout, plan.joint_readout,
        )
        reads = _joint_reads(monkeypatch, plan)
        windows, probes = compose_windows_and_probes(
            *args, n_preamble_rows=6
        )
        monkeypatch.undo()
        assert reads == [joint]
        expected = _separate_reads(*args, n_preamble_rows=6)
        assert np.array_equal(windows, expected[0])
        assert np.array_equal(probes, expected[1])

    @pytest.mark.parametrize(
        "sf, n_tones, noise_mode",
        [(7, 8, "payload"), (9, 64, "payload"), (12, 84, "payload"),
         (9, 81, "full")],
    )
    def test_decode_is_unchanged(self, sf, n_tones, noise_mode, monkeypatch):
        """A whole noisy decode gives the separate reads' decisions."""
        import repro.core.dcss as dcss

        receiver, _, batch, _ = _joint_case(sf, n_tones, noise_mode)

        def decode():
            return receiver.decode_readout(
                *batch, noise_snr_db=-8.0, rng=np.random.default_rng(4)
            )

        joint = decode()
        monkeypatch.setattr(
            dcss, "compose_windows_and_probes", _separate_reads
        )
        separate = decode()
        for name in _DECODE_FIELDS:
            assert np.array_equal(
                getattr(joint, name), getattr(separate, name)
            ), name


class TestJointReadPool:
    """The window-and-probe read on the stage thread and on the serial
    fallback: a multi-span noisy decode is equal, bit for bit, whether
    one or two CPUs are usable, and equal to the separate reads'."""

    @pytest.mark.parametrize("noise_mode", ["payload", "full"])
    def test_pool_serial_equals_two_threads(self, noise_mode, monkeypatch):
        import repro.core.dcss as dcss
        import repro.core.receiver as receiver_module
        import repro.utils.parallel as parallel_module

        n_tones = 64 if noise_mode == "payload" else 81
        receiver, _, batch, _ = _joint_case(9, n_tones, noise_mode)
        plan = receiver._readout_plan(dechirped=True)
        per_round = batch[3].shape[1] * plan.window_readout.n_bins + (
            n_tones * (plan.window_readout.n_bins + plan.probe_readout.n_bins)
        )
        # Three rounds per span: 13 rounds decode as 5 spans.
        monkeypatch.setattr(
            receiver_module, "_CHUNK_ELEMENT_BUDGET", 3 * per_round
        )
        reads = _joint_reads(monkeypatch, plan)

        def decode(cpus):
            monkeypatch.setattr(parallel_module, "usable_cpus", lambda: cpus)
            return receiver.decode_readout(
                *batch, noise_snr_db=-8.0, rng=np.random.default_rng(6)
            )

        serial, pooled = decode(1), decode(2)
        # The joint read serves the payload stream's one preamble row.
        assert reads == [noise_mode == "payload"] * 10
        monkeypatch.setattr(
            dcss, "compose_windows_and_probes", _separate_reads
        )
        separate = decode(2)
        for name in _DECODE_FIELDS:
            assert np.array_equal(
                getattr(serial, name), getattr(pooled, name)
            ), name
            assert np.array_equal(
                getattr(serial, name), getattr(separate, name)
            ), name
