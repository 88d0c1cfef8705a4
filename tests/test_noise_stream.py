"""Versioned engine-noise streams: goldens, equivalence, stamping.

Three contracts around :class:`repro.phy.noise.NoiseStream`:

* **version 1 is frozen** — ``noise_mode="full"`` reproduces the
  pre-stream engine's draws bit for bit, pinned by fingerprints of the
  decode outputs (bits *and* noise-loaded powers) recorded from the
  PR-3 code across SF 7/9/12 and all four spectral backends;
* **version 2 is the same law** — the located-bin ``"payload"`` stream
  draws ~3× fewer window values (the exact count is asserted) yet its
  decisions are statistically equivalent on the Fig. 12 BER grid and
  the Fig. 17 network grid, and identical across backends for a shared
  seed;
* **the stamp is trustworthy** — every decode / network result records
  exactly the ``(noise_mode, noise_version)`` that produced it, with
  ``("none", 0)`` when no engine noise was injected.
"""

import hashlib

import numpy as np
import pytest

import repro.core.receiver as receiver_module
import repro.phy.noise as noise_module
import repro.utils.parallel as parallel_module
from repro.channel.deployment import paper_deployment
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.receiver import NetScatterReceiver
from repro.errors import ConfigurationError, DecodingError
from repro.phy.noise import (
    CURRENT_NOISE_VERSION,
    NOISE_MODES,
    NOISE_STREAM_VERSIONS,
    NoiseStream,
    covariance_factor,
)
from repro.phy.sparse_readout import (
    SparseReadout,
    located_bin_noise_covariance,
)
from repro.protocol.network import NetworkSimulator, sweep_device_counts

# --------------------------------------------------------------------- #
# version-1 goldens, recorded from the PR-3 engine (see class docstring)
# --------------------------------------------------------------------- #

#: sha256[:16] of (bits, bit_powers) per SF per backend for the decode
#: of :func:`_golden_scenario` at noise_snr_db=-12, rng seed 77. The
#: bit_powers hashes pin the *noise values themselves*, not just the
#: decisions, so any change to the version-1 draw layout fails here.
VERSION1_GOLDENS = {
    7: {
        "sparse": ("1dab2d165623e9e6", "cd915693f54ff81f"),
        "fft": ("1dab2d165623e9e6", "93cf0078bc9cdf13"),
        "analytic": ("1dab2d165623e9e6", "35a04ff2b5142d36"),
    },
    9: {
        "sparse": ("efffc575ea0bc5f9", "b72f6ff3aa98948d"),
        "fft": ("efffc575ea0bc5f9", "ab9ff2c32d11ffca"),
        "analytic": ("efffc575ea0bc5f9", "169350b23f6c9972"),
    },
    12: {
        "sparse": ("dd55209a9a9d5a39", "625b80e3fb7ed3ce"),
        "fft": ("dd55209a9a9d5a39", "592a7d42a2e31a42"),
        "analytic": ("dd55209a9a9d5a39", "b081c685cf42722e"),
    },
}


def _hash(array) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array).tobytes()
    ).hexdigest()[:16]


def _golden_scenario(sf):
    """The deterministic 6-device batch the goldens were recorded on."""
    config = NetScatterConfig(spreading_factor=sf, n_association_shifts=0)
    n_devices = 6
    shifts = [2 + 2 * i for i in range(n_devices)]
    assignments = {i: shifts[i] for i in range(n_devices)}
    rng = np.random.default_rng(1000 + sf)
    n_rounds, n_payload, n_pre = 4, 10, 6
    bins = np.array(shifts, dtype=float)[None, :] + rng.normal(
        0, 0.1, (n_rounds, n_devices)
    )
    amps = rng.uniform(0.8, 1.5, (n_rounds, n_devices))
    phases = rng.uniform(0, 2 * np.pi, (n_rounds, n_devices))
    bit_tensor = np.ones((n_rounds, n_pre + n_payload, n_devices))
    bit_tensor[:, n_pre:] = rng.integers(
        0, 2, (n_rounds, n_payload, n_devices)
    )
    return config, assignments, bins, amps, phases, bit_tensor


class _ForcedPlanner:
    """Duck-typed planner pinning ``readout="auto"`` to one backend."""

    def __init__(self, backend: str) -> None:
        self.backend = backend

    def select(self, workload) -> str:
        if not workload.tone_input and self.backend == "analytic":
            return "sparse"
        return self.backend


def _decode_golden(sf, backend, noise_mode="full", planner=None):
    config, assignments, bins, amps, phases, bt = _golden_scenario(sf)
    readout = backend if planner is None else "auto"
    receiver = NetScatterReceiver(
        config, assignments, readout=readout,
        planner=planner, noise_mode=noise_mode,
    )
    rng = np.random.default_rng(77)
    if backend == "analytic":
        return receiver.decode_readout(
            bins, amps, phases, bt, noise_snr_db=-12.0, rng=rng
        )
    symbols = compose_rounds(
        config.chirp_params, bins, amps, phases, bt, respread=False
    )
    return receiver.decode_rounds(
        symbols, dechirped=True, noise_snr_db=-12.0, rng=rng
    )


class TestVersion1BitIdentical:
    @pytest.mark.parametrize("sf", [7, 9, 12])
    @pytest.mark.parametrize("backend", ["sparse", "fft", "analytic"])
    def test_full_mode_reproduces_pr3_streams(self, sf, backend):
        decode = _decode_golden(sf, backend)
        bits_hash, powers_hash = VERSION1_GOLDENS[sf][backend]
        assert _hash(decode.bits.astype(np.uint8)) == bits_hash
        assert _hash(np.asarray(decode.bit_powers, np.float64)) == powers_hash
        assert (decode.noise_mode, decode.noise_version) == ("full", 1)

    @pytest.mark.parametrize("sf", [7, 9, 12])
    @pytest.mark.parametrize("backend", ["sparse", "fft", "analytic"])
    def test_auto_forced_matches_fixed_backend(self, sf, backend):
        """The fourth mode: auto draws the same stream per backend."""
        decode = _decode_golden(
            sf, backend, planner=_ForcedPlanner(backend)
        )
        bits_hash, powers_hash = VERSION1_GOLDENS[sf][backend]
        assert decode.backend == backend
        assert _hash(decode.bits.astype(np.uint8)) == bits_hash
        assert _hash(np.asarray(decode.bit_powers, np.float64)) == powers_hash

    def test_per_call_override_equals_constructor_mode(self):
        config, assignments, bins, amps, phases, bt = _golden_scenario(9)
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )
        by_ctor = NetScatterReceiver(
            config, assignments, noise_mode="full"
        ).decode_rounds(
            symbols, noise_snr_db=-12.0, rng=np.random.default_rng(3)
        )
        by_call = NetScatterReceiver(config, assignments).decode_rounds(
            symbols,
            noise_snr_db=-12.0,
            rng=np.random.default_rng(3),
            noise_mode="full",
        )
        assert np.array_equal(by_ctor.bit_powers, by_call.bit_powers)
        assert by_call.noise_version == 1


# --------------------------------------------------------------------- #
# the draws themselves, and version-2 decisions above the FFT crossover
# --------------------------------------------------------------------- #

#: sha256[:16] of every CN(0,1) value the engine stream draws, in draw
#: order, while decoding :func:`_golden_scenario` at noise_snr_db=-12,
#: rng seed 77, per noise mode and SF; every backend draws the same
#: values. These pin the draws apart from the readout arithmetic they
#: are added to, so a change to the kernel arithmetic cannot hide a
#: change to the stream, nor the other way round. SF 9 and 12 read the
#: same window width and probe count, hence draw the same values.
DRAW_GOLDENS = {
    "full": {
        7: "f3634a6547335b56",
        9: "b4315df8e2ba5afb",
        12: "b4315df8e2ba5afb",
    },
    "payload": {
        7: "9c895325634c9f23",
        9: "8c5f9039529808a7",
        12: "8c5f9039529808a7",
    },
}

#: sha256[:16] of (detected, bits) for :func:`_dense_scenario` on the
#: version-2 payload stream, the same on every backend. At 128 devices the analytic
#: backend reads the preamble windows and noise probes through the FFT
#: route of :func:`repro.core.dcss.compose_readout`, so these pin
#: decisions above the route's crossover.
VERSION2_DENSE_GOLDEN = "4be17830b4b10dc9"


def _record_draws(monkeypatch) -> list:
    """The bytes of every engine-stream draw from now on, one per call."""
    draws = []
    original = NoiseStream.standard_complex

    def recording(self, shape):
        values = original(self, shape)
        draws.append(np.ascontiguousarray(values).tobytes())
        return values

    monkeypatch.setattr(NoiseStream, "standard_complex", recording)
    return draws


def _recorded_draws(monkeypatch, *decode_args, **decode_kwargs) -> str:
    """Hash of every value the engine stream draws during one decode."""
    draws = _record_draws(monkeypatch)
    _decode_golden(*decode_args, **decode_kwargs)
    assert draws
    return hashlib.sha256(b"".join(draws)).hexdigest()[:16]


def _dense_scenario():
    """128 devices at SF 9 with 10 dB of near-far, two rounds."""
    config = NetScatterConfig(spreading_factor=9, n_association_shifts=0)
    n_devices, n_rounds, n_pre, n_payload = 128, 2, 6, 20
    assignments = {i: i * config.skip for i in range(n_devices)}
    rng = np.random.default_rng(128)
    shifts = np.array(list(assignments.values()), dtype=float)
    bins = shifts[None, :] + rng.normal(0, 0.1, (n_rounds, n_devices))
    amps = 10.0 ** (rng.uniform(0.0, 10.0, (n_rounds, n_devices)) / 20.0)
    phases = rng.uniform(0, 2 * np.pi, (n_rounds, n_devices))
    bit_tensor = np.ones((n_rounds, n_pre + n_payload, n_devices))
    bit_tensor[:, n_pre:] = rng.integers(
        0, 2, (n_rounds, n_payload, n_devices)
    )
    return config, assignments, bins, amps, phases, bit_tensor


def _decode_dense(backend):
    config, assignments, bins, amps, phases, bt = _dense_scenario()
    receiver = NetScatterReceiver(config, assignments, readout=backend)
    rng = np.random.default_rng(7)
    if backend == "analytic":
        return receiver.decode_readout(
            bins, amps, phases, bt, noise_snr_db=-22.0, rng=rng
        )
    symbols = compose_rounds(
        config.chirp_params, bins, amps, phases, bt, respread=False
    )
    return receiver.decode_rounds(
        symbols, dechirped=True, noise_snr_db=-22.0, rng=rng
    )


class TestDrawGoldens:
    @pytest.mark.parametrize("sf", [7, 9, 12])
    @pytest.mark.parametrize("backend", ["sparse", "fft", "analytic"])
    @pytest.mark.parametrize("noise_mode", ["full", "payload"])
    def test_drawn_values_are_pinned(
        self, sf, backend, noise_mode, monkeypatch
    ):
        digest = _recorded_draws(
            monkeypatch, sf, backend, noise_mode=noise_mode
        )
        assert digest == DRAW_GOLDENS[noise_mode][sf]

    @pytest.mark.parametrize("backend", ["sparse", "fft", "analytic"])
    def test_dense_payload_decisions_are_pinned(self, backend):
        decode = _decode_dense(backend)
        assert (decode.noise_mode, decode.noise_version) == ("payload", 2)
        # Some devices are missed and some bits flip, so the hash pins
        # decisions near the thresholds, not only certain ones.
        assert 0 < decode.detected.sum() < decode.detected.size
        assert _hash(
            np.concatenate(
                (decode.detected.ravel(), decode.bits.ravel())
            ).astype(np.uint8)
        ) == VERSION2_DENSE_GOLDEN


#: sha256[:16] of every value the payload stream draws, in draw order,
#: and of (detected, bits), for :func:`_multi_span_scenario` decoded on
#: the analytic backend at noise_snr_db=-22, rng seed 24. The batch
#: decodes in three spans, so this pins the draw order across spans,
#: which the one-span goldens above cannot see.
MULTI_SPAN_GOLDEN = ("bdd208c3be8ada37", "d2b46c670dc1a864")


def _multi_span_scenario():
    """64 devices at SF 9 with 10 dB of near-far over 24 rounds."""
    config = NetScatterConfig(spreading_factor=9, n_association_shifts=0)
    n_devices, n_rounds, n_pre, n_payload = 64, 24, 6, 40
    assignments = {i: i * config.skip for i in range(n_devices)}
    rng = np.random.default_rng(64)
    shifts = np.array(list(assignments.values()), dtype=float)
    bins = shifts[None, :] + rng.normal(0, 0.1, (n_rounds, n_devices))
    amps = 10.0 ** (rng.uniform(0.0, 10.0, (n_rounds, n_devices)) / 20.0)
    phases = rng.uniform(0, 2 * np.pi, (n_rounds, n_devices))
    bit_tensor = np.ones((n_rounds, n_pre + n_payload, n_devices))
    bit_tensor[:, n_pre:] = rng.integers(
        0, 2, (n_rounds, n_payload, n_devices)
    )
    return config, assignments, bins, amps, phases, bit_tensor


class TestMultiSpanGoldenPool:
    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_pool_multi_span_payload_stream_is_pinned(
        self, n_cpus, monkeypatch
    ):
        """Serial and pipelined decodes draw the same values in order."""
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: n_cpus)
        config, assignments, bins, amps, phases, bt = _multi_span_scenario()
        receiver = NetScatterReceiver(config, assignments, readout="analytic")
        draws = _record_draws(monkeypatch)
        decode = receiver.decode_readout(
            bins, amps, phases, bt,
            noise_snr_db=-22.0, rng=np.random.default_rng(24),
        )
        # Three spans, each drawing windows, probes and located bins.
        assert len(draws) == 9
        assert (decode.noise_mode, decode.noise_version) == ("payload", 2)
        assert 0 < decode.detected.sum() < decode.detected.size
        decisions = np.concatenate(
            (decode.detected.ravel(), decode.bits.ravel())
        ).astype(np.uint8)
        assert (
            hashlib.sha256(b"".join(draws)).hexdigest()[:16],
            _hash(decisions),
        ) == MULTI_SPAN_GOLDEN


#: sha256[:16] of every value the payload stream draws, in draw order,
#: and of (detected, bits), for :func:`_dense_fft_scenario` decoded on
#: the ``fft`` backend at noise_snr_db=-22, rng seed 46. Recorded before
#: the ``fft`` stage A read each round's shared preamble row once and
#: before the draws moved from stage B to the first part of stage A, so
#: these pin that both left the draws and decisions as they were.
DENSE_FFT_GOLDEN = ("1e580559e387ac72", "6816c184db02f7ad")


def _dense_fft_scenario():
    """``dense-256``'s shape: 256 devices at SF 9, 6 preamble and 40
    payload symbols, 10 dB of near-far, over 10 rounds."""
    config = NetScatterConfig(spreading_factor=9, n_association_shifts=0)
    n_devices, n_rounds, n_pre, n_payload = 256, 10, 6, 40
    assignments = {i: i * config.skip for i in range(n_devices)}
    rng = np.random.default_rng(256)
    shifts = np.array(list(assignments.values()), dtype=float)
    bins = shifts[None, :] + rng.normal(0, 0.1, (n_rounds, n_devices))
    amps = 10.0 ** (rng.uniform(0.0, 10.0, (n_rounds, n_devices)) / 20.0)
    phases = rng.uniform(0, 2 * np.pi, (n_rounds, n_devices))
    bit_tensor = np.ones((n_rounds, n_pre + n_payload, n_devices))
    bit_tensor[:, n_pre:] = rng.integers(
        0, 2, (n_rounds, n_payload, n_devices)
    )
    return config, assignments, bins, amps, phases, bit_tensor


class TestDenseFftGoldenPool:
    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_pool_dense_fft_payload_stream_is_pinned(
        self, n_cpus, monkeypatch
    ):
        """Serial and pipelined ``fft`` decodes of 4- and 2-round spans
        draw the same values in order and make the same decisions."""
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: n_cpus)
        config, assignments, bins, amps, phases, bt = _dense_fft_scenario()
        receiver = NetScatterReceiver(
            config, assignments, readout="auto",
            planner=_ForcedPlanner("fft"),
        )
        spans = receiver._decide_spans(
            10, bt.shape[1], receiver._readout_plan(dechirped=True), "fft",
            n_tones=256,
        )
        assert spans == [(0, 4), (4, 6), (6, 10)]
        draws = _record_draws(monkeypatch)
        decode = receiver.decode_readout(
            bins, amps, phases, bt,
            noise_snr_db=-22.0, rng=np.random.default_rng(46),
        )
        assert decode.backend == "fft"
        assert len(draws) == 9
        assert 0 < decode.detected.sum() < decode.detected.size
        decisions = np.concatenate(
            (decode.detected.ravel(), decode.bits.ravel())
        ).astype(np.uint8)
        assert (
            hashlib.sha256(b"".join(draws)).hexdigest()[:16],
            _hash(decisions),
        ) == DENSE_FFT_GOLDEN


# --------------------------------------------------------------------- #
# the stream abstraction and the located-bin covariance factor
# --------------------------------------------------------------------- #


class TestNoiseStream:
    def test_mode_version_mapping(self):
        assert NOISE_STREAM_VERSIONS == {"full": 1, "payload": 2}
        assert NOISE_MODES == ("full", "payload")
        assert CURRENT_NOISE_VERSION == 2
        assert NoiseStream(np.random.default_rng(0)).mode == "payload"

    def test_explicit_version_must_match_mode(self):
        NoiseStream(np.random.default_rng(0), mode="full", version=1)
        with pytest.raises(DecodingError):
            NoiseStream(np.random.default_rng(0), mode="full", version=2)
        with pytest.raises(DecodingError):
            NoiseStream(np.random.default_rng(0), mode="nope")
        # Persisted versions fail loudly, never via coercion: 2.7 and
        # "two" are mismatches (not int(2.7) == 2), True is not 1.
        for bad in (2.7, "two"):
            with pytest.raises(DecodingError):
                NoiseStream(
                    np.random.default_rng(0), mode="payload", version=bad
                )
        with pytest.raises(DecodingError):
            NoiseStream(
                np.random.default_rng(0), mode="full", version=True
            )
        # A JSON-roundtripped float version is still the same version.
        NoiseStream(np.random.default_rng(0), mode="payload", version=2.0)

    def test_draws_counter_and_generator_sharing(self):
        rng = np.random.default_rng(42)
        stream = NoiseStream(rng)
        a = stream.standard_complex((3, 4))
        assert stream.draws == 12
        # Same consumption as the raw helper on a fresh twin generator.
        from repro.utils.rng import standard_complex_normal

        twin = standard_complex_normal(
            np.random.default_rng(42), (3, 4)
        )
        assert np.array_equal(a, twin)


class TestLocatedBinCovariance:
    def test_factor_reproduces_covariance(self):
        cov = located_bin_noise_covariance(
            NetScatterConfig().chirp_params, 10
        )
        factor = covariance_factor(cov)
        assert np.allclose(factor @ factor.conj().T, cov, atol=1e-9)

    def test_toeplitz_and_matches_window_block(self, params):
        """Any 3-adjacent-bin block of a window covariance is this one.

        The Toeplitz property is what lets a single 3×3 factor serve
        every located position of every device.
        """
        zp = 10
        cov3 = located_bin_noise_covariance(params, zp)
        assert cov3.shape == (3, 3)
        # Toeplitz: constant diagonals.
        assert cov3[0, 1] == cov3[1, 2]
        assert cov3[1, 0] == cov3[2, 1]
        window = SparseReadout(
            params, zp, np.arange(200, 213), fold_downchirp=False
        ).analytic_noise_covariance()
        for start in (0, 4, 10):
            block = window[start : start + 3, start : start + 3]
            assert np.array_equal(block, cov3)

    def test_plan_payload_factor_cached_and_3x3(self, config):
        receiver = NetScatterReceiver(config, {0: 2, 1: 4})
        plan = receiver.readout_plan
        factor = plan.payload_noise_factor
        assert factor.shape == (3, 3)
        assert plan.payload_noise_factor is factor

    def test_noise_factors_shared_per_exact_layout(self, config):
        """Receivers with one window layout share one read-only factor;
        a window that wraps the grid edge gets its own."""
        plans = [
            NetScatterReceiver(config, assignments).readout_plan
            for assignments in ({0: 2, 1: 4}, {5: 2, 9: 8}, {0: 0, 1: 4})
        ]
        shared = plans[0].window_noise_factor
        assert plans[1].window_noise_factor is shared
        assert not shared.flags.writeable
        wrapped = plans[2].window_noise_factor
        assert wrapped is not shared
        # Same law up to round-off, though not the same factor bits.
        assert np.allclose(
            wrapped @ wrapped.conj().T, shared @ shared.conj().T, atol=1e-6
        )
        assert plans[2].payload_noise_factor is plans[0].payload_noise_factor


# --------------------------------------------------------------------- #
# version 2: fewer draws, same law
# --------------------------------------------------------------------- #


def _network_batch(n_devices=8, n_rounds=6, n_payload=12, seed=5):
    config = NetScatterConfig(n_association_shifts=0)
    assignments = {i: 2 * i + 2 for i in range(n_devices)}
    rng = np.random.default_rng(seed)
    shifts = np.array(list(assignments.values()), dtype=float)
    bins = shifts[None, :] + rng.normal(0, 0.08, (n_rounds, n_devices))
    amps = np.ones((n_rounds, n_devices))
    phases = rng.uniform(0, 2 * np.pi, (n_rounds, n_devices))
    bt = np.ones((n_rounds, 6 + n_payload, n_devices))
    bt[:, 6:] = rng.integers(0, 2, (n_rounds, n_payload, n_devices))
    return config, assignments, bins, amps, phases, bt


class TestPayloadStream:
    def test_same_seed_identical_across_backends(self):
        """Payload-mode noise is one stream whatever backend reads it."""
        config, assignments, bins, amps, phases, bt = _network_batch()
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )
        decodes = [
            NetScatterReceiver(config, assignments, readout=b)
            .decode_rounds(
                symbols, noise_snr_db=-16.0,
                rng=np.random.default_rng(9),
            )
            for b in ("sparse", "fft")
        ]
        decodes.append(
            NetScatterReceiver(config, assignments, readout="analytic")
            .decode_readout(
                bins, amps, phases, bt,
                noise_snr_db=-16.0, rng=np.random.default_rng(9),
            )
        )
        decodes.append(
            NetScatterReceiver(
                config, assignments, readout="auto",
                planner=_ForcedPlanner("fft"),
            ).decode_readout(
                bins, amps, phases, bt,
                noise_snr_db=-16.0, rng=np.random.default_rng(9),
            )
        )
        for decode in decodes:
            assert (decode.noise_mode, decode.noise_version) == (
                "payload", 2,
            )
        for other in decodes[1:]:
            assert np.array_equal(decodes[0].bits, other.bits)
            assert np.array_equal(decodes[0].detected, other.detected)
            assert np.allclose(
                decodes[0].noise_power, other.noise_power, rtol=1e-9
            )

    def test_exact_draw_counts(self, monkeypatch):
        """Payload mode draws exactly the documented stream layout.

        Full stream: ``R*S*D*W`` window + ``R*P`` probe draws. Payload
        stream: preamble windows ``R*6*D*W``, probes ``R*P``, then
        located-bin payload draws ``R*S_pay*D*3`` — ~3× fewer window
        draws on a 46-symbol round, which is the measured perf lever.
        """
        config, assignments, bins, amps, phases, bt = _network_batch(
            n_devices=8, n_rounds=5, n_payload=40
        )
        receiver = NetScatterReceiver(config, assignments)
        plan = receiver.readout_plan
        r, s, d = 5, 46, 8
        w, p = plan.window_width, plan.probe_readout.n_bins
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )

        counts = {}
        original = noise_module.standard_complex_normal

        def counting(rng, shape):
            counting.total += int(np.prod(shape))
            return original(rng, shape)

        monkeypatch.setattr(
            noise_module, "standard_complex_normal", counting
        )
        for mode in NOISE_MODES:
            counting.total = 0
            receiver.decode_rounds(
                symbols, noise_snr_db=-16.0,
                rng=np.random.default_rng(1), noise_mode=mode,
            )
            counts[mode] = counting.total

        assert counts["full"] == r * s * d * w + r * p
        assert counts["payload"] == (
            r * 6 * d * w + r * p + r * 40 * d * 3
        )
        window_full = r * s * d * w
        window_payload = r * 6 * d * w + r * 40 * d * 3
        assert window_full / window_payload > 2.5

    def test_fig12_grid_statistically_equivalent(self):
        """Weak-device BER matches between streams on the Fig. 12 grid."""
        config = NetScatterConfig()
        receiver = NetScatterReceiver(
            config, {0: 2}, detection_snr_db=-100.0
        )
        rng = np.random.default_rng(3)
        n_rounds, n_payload = 80, 30
        bits = rng.integers(0, 2, (n_rounds, n_payload, 1))
        bt = np.ones((n_rounds, 6 + n_payload, 1))
        bt[:, 6:] = bits
        bins = 2.0 + rng.normal(0, 0.05, (n_rounds, 1))
        amps = np.ones((n_rounds, 1))
        phases = rng.uniform(0, 2 * np.pi, (n_rounds, 1))
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )
        ber = {}
        for mode in NOISE_MODES:
            decode = receiver.decode_rounds(
                symbols, noise_snr_db=-16.0,
                rng=np.random.default_rng(4), noise_mode=mode,
            )
            ber[mode] = float(
                np.mean(decode.bits[:, :, 0] != bits[:, :, 0])
            )
        assert ber["full"] > 0.005 and ber["payload"] > 0.005
        assert abs(ber["full"] - ber["payload"]) < 0.35 * max(
            ber["full"], ber["payload"]
        )

    def test_fig17_grid_statistically_equivalent(self):
        """Network metrics match between streams on the Fig. 17 grid."""
        config = NetScatterConfig(n_association_shifts=0)
        metrics = {}
        for mode in NOISE_MODES:
            deployment = paper_deployment(n_devices=64, rng=2026)
            sim = NetworkSimulator(
                deployment, config=config, rng=5, noise_mode=mode
            )
            metrics[mode] = sim.run_rounds(30)
        full, payload = metrics["full"], metrics["payload"]
        assert (full.noise_mode, full.noise_version) == ("full", 1)
        assert (payload.noise_mode, payload.noise_version) == (
            "payload", 2,
        )
        assert full.delivery_ratio == pytest.approx(
            payload.delivery_ratio, abs=0.08
        )
        assert full.bit_error_rate == pytest.approx(
            payload.bit_error_rate, abs=0.02
        )
        assert full.goodput_bits_per_round == pytest.approx(
            payload.goodput_bits_per_round, rel=0.1
        )

    def test_payload_noiseless_decode_unchanged(self):
        """Without engine noise the two modes are the same code path."""
        config, assignments, bins, amps, phases, bt = _network_batch()
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )
        a = NetScatterReceiver(
            config, assignments, noise_mode="payload"
        ).decode_rounds(symbols)
        b = NetScatterReceiver(
            config, assignments, noise_mode="full"
        ).decode_rounds(symbols)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.bit_powers, b.bit_powers)
        assert (a.noise_mode, a.noise_version) == ("none", 0)


# --------------------------------------------------------------------- #
# stamping + validation across the stack
# --------------------------------------------------------------------- #


class TestStamping:
    def test_multi_chunk_waveform_decode_stamped(self, monkeypatch):
        """A tone batch read through the FFT in several decide chunks
        is stamped with the one stream every chunk drew from."""
        config, assignments, bins, amps, phases, bt = _network_batch()
        receiver = NetScatterReceiver(
            config, assignments, readout="auto", planner=_ForcedPlanner("fft")
        )
        n_rounds, n_symbols, _ = bt.shape
        plan = receiver.readout_plan
        grid = n_symbols * plan.n_samples * config.zero_pad_factor
        monkeypatch.setattr(receiver_module, "_CHUNK_ELEMENT_BUDGET", grid)
        assert len(receiver._decide_spans(
            n_rounds, n_symbols, plan, "fft", n_tones=bins.shape[1]
        )) == n_rounds >= 2
        decode = receiver.decode_readout(
            bins, amps, phases, bt,
            noise_snr_db=-16.0, rng=np.random.default_rng(1),
        )
        assert decode.backend == "fft"
        assert (decode.noise_mode, decode.noise_version) == ("payload", 2)

    def test_one_round_stamped(self):
        deployment = paper_deployment(n_devices=4, rng=2026)
        sim = NetworkSimulator(
            deployment,
            config=NetScatterConfig(n_association_shifts=0),
            rng=5,
        )
        metrics = sim.run_rounds(1)
        assert (metrics.noise_mode, metrics.noise_version) == ("payload", 2)

    def test_time_engine_stamped_none(self):
        """Time-domain AWGN is not an engine stream: stamped none/0."""
        deployment = paper_deployment(n_devices=4, rng=2026)
        sim = NetworkSimulator(
            deployment,
            config=NetScatterConfig(n_association_shifts=0),
            rng=5,
            engine="time",
        )
        metrics = sim.run_rounds(2)
        assert (metrics.noise_mode, metrics.noise_version) == ("none", 0)

    def test_sweep_threads_noise_mode(self):
        deployment = paper_deployment(n_devices=8, rng=2026)
        metrics = sweep_device_counts(
            deployment,
            (2, 8),
            config=NetScatterConfig(n_association_shifts=0),
            n_rounds=2,
            rng=17,
            noise_mode="full",
        )
        assert all(m.noise_mode == "full" for m in metrics)
        assert all(m.noise_version == 1 for m in metrics)

    def test_invalid_modes_rejected(self):
        config = NetScatterConfig(n_association_shifts=0)
        with pytest.raises(DecodingError):
            NetScatterReceiver(config, {0: 2}, noise_mode="bogus")
        receiver = NetScatterReceiver(config, {0: 2})
        with pytest.raises(DecodingError):
            receiver.decode_rounds(
                np.zeros((1, 8, config.n_bins), dtype=complex),
                noise_mode="bogus",
            )
        deployment = paper_deployment(n_devices=2, rng=2026)
        with pytest.raises(ConfigurationError):
            NetworkSimulator(deployment, config=config, noise_mode="x")
        with pytest.raises(ConfigurationError):
            sweep_device_counts(
                deployment, (2,), config=config, noise_mode="x"
            )
