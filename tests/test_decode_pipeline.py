"""The two-stage decode pipeline and the one parallelism rule.

``NetScatterReceiver.decode_readout`` reads each round chunk (stage A)
on a stage thread while the caller draws the previous chunk's noise and
decides it (stage B), through :func:`repro.utils.parallel.pipeline`.
On the analytic backend stage A composes the chunk's preamble windows
and symbol-0 probes; on the ``fft`` and ``sparse`` backends it
synthesises the chunk's tone sum and reads it, the ``fft`` one round at
a time into one reused grid. Three contracts:

* **serial equals pipelined** — every ``RoundsDecode`` array is equal,
  bit for bit, whether one, two or four CPUs are usable, across chunk
  counts, spreading factors, noise streams, precisions and backends;
* **failures surface cleanly** — a stage failure reaches the caller
  with its own type, nothing runs far ahead, and no stage thread
  outlives the call;
* **no nested threads** — single-chunk decodes and Monte-Carlo leg
  threads never open a stage thread, while a process-pool worker (its
  own interpreter) pipelines its multi-chunk points like a serial run.

The class and test names carry ``pool`` so CI's multi-core
``pooled-paths`` job (``pytest -k pool``) runs the concurrent branch.
"""

import contextlib
import contextvars
import dataclasses
import sys
import threading

import numpy as np
import pytest

import repro.campaign.runner as campaign_runner
import repro.core.dcss as dcss_module
import repro.core.receiver as receiver_module
import repro.protocol.network as network_module
import repro.protocol.population as population_module
import repro.utils.parallel as parallel_module
from repro.campaign.presets import fig17_campaign
from repro.campaign.runner import CampaignRunner
from repro.channel.deployment import paper_deployment
from repro.core.config import NetScatterConfig
from repro.core.receiver import NetScatterReceiver
from repro.phy import backend_plan, sparse_readout
from repro.protocol.network import NetworkSimulator, sweep_device_counts
from repro.protocol.population import (
    FidelityRule,
    assign_cluster,
    hybrid_population_round,
    office_population,
    split_fidelity,
)
from repro.utils.parallel import STAGE_THREAD_PREFIX, pipeline

DECODE_ARRAYS = (
    "shifts", "detected", "preamble_power", "noise_power", "bits",
    "bit_powers",
)

#: Chunk size the scenarios force, in rounds: 2, 4 and 5 rounds then
#: decode as 1, 2 and 3 chunks, the last of 5 ragged.
CHUNK_ROUNDS = 2


class StartedThreads(list):
    """Names of every thread started while the fixture is active."""

    def named(self, prefix):
        return [name for name in self if name.startswith(prefix)]


@contextlib.contextmanager
def recorded_thread_starts():
    names = StartedThreads()
    start = threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        return start(thread)

    threading.Thread.start = recording_start
    try:
        yield names
    finally:
        threading.Thread.start = start


@pytest.fixture
def started():
    with recorded_thread_starts() as names:
        yield names


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: n)

    return set_cpus


@pytest.fixture
def chunk_counts(monkeypatch):
    """Number of chunks each ``decode_readout`` hands the pipeline."""
    counts = []

    def counting_pipeline(produce, consume, items):
        items = list(items)
        counts.append(len(items))
        return pipeline(produce, consume, items)

    monkeypatch.setattr(receiver_module, "pipeline", counting_pipeline)
    return counts


def _stage_threads_alive():
    return [
        t for t in threading.enumerate()
        if t.name.startswith(STAGE_THREAD_PREFIX)
    ]


def _scenario(sf, n_rounds, seed=5):
    """A deterministic 6-device tone batch at spreading factor ``sf``."""
    config = NetScatterConfig(spreading_factor=sf, n_association_shifts=0)
    shifts = [2 + 2 * i for i in range(6)]
    rng = np.random.default_rng(seed + sf)
    bins = np.array(shifts, float)[None, :] + rng.normal(0, 0.1, (n_rounds, 6))
    amps = rng.uniform(0.8, 1.5, (n_rounds, 6))
    phases = rng.uniform(0, 2 * np.pi, (n_rounds, 6))
    bit_tensor = np.ones((n_rounds, 16, 6))
    bit_tensor[:, 6:] = rng.integers(0, 2, (n_rounds, 10, 6))
    return config, dict(enumerate(shifts)), (bins, amps, phases, bit_tensor)


def _force_chunk_rounds(monkeypatch, receiver, n_symbols, n_tx, rounds):
    """Set the element budget so an analytic chunk holds ``rounds`` rounds."""
    plan = receiver.readout_plan
    window, probes = plan.window_readout.n_bins, plan.probe_readout.n_bins
    per_round = n_symbols * window + n_tx * (window + probes)
    monkeypatch.setattr(
        receiver_module, "_CHUNK_ELEMENT_BUDGET", rounds * per_round
    )


def _assert_same_decode(a, b):
    for name in DECODE_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
    assert a.device_ids == b.device_ids
    assert (a.backend, a.noise_mode, a.noise_version) == (
        b.backend, b.noise_mode, b.noise_version
    )


class TestPipelineHelperPool:
    def test_pool_consumes_on_the_caller_in_order(self, cpus):
        cpus(2)
        produced, consumed = [], []

        def produce(item):
            produced.append((item, threading.current_thread().name))
            return item * 10

        def consume(staged):
            consumed.append((staged, threading.current_thread().name))
            return staged + 1

        caller = threading.current_thread().name
        assert pipeline(produce, consume, range(4)) == [1, 11, 21, 31]
        assert consumed == [(10 * i, caller) for i in range(4)]
        assert [item for item, _ in produced] == [0, 1, 2, 3]
        assert all(
            name.startswith(STAGE_THREAD_PREFIX) for _, name in produced
        )
        assert not _stage_threads_alive()

    def test_pool_stage_runs_in_the_callers_context(self, cpus):
        cpus(2)
        parent = contextvars.ContextVar("span_parent")
        token = parent.set("decode")
        try:
            seen = pipeline(lambda item: parent.get(None), str, range(3))
        finally:
            parent.reset(token)
        assert seen == ["decode"] * 3

    @pytest.mark.parametrize("n_cpus, n_items", [(1, 3), (4, 1), (4, 0)])
    def test_no_pool_for_one_cpu_or_one_item(
        self, cpus, started, n_cpus, n_items
    ):
        cpus(n_cpus)
        assert pipeline(str, len, range(n_items)) == [1] * n_items
        assert started == []

    def test_no_pool_inside_a_marked_context(self, cpus, started):
        cpus(4)

        def marked():
            parallel_module.mark_parallel()
            return pipeline(str, len, range(3))

        assert contextvars.copy_context().run(marked) == [1, 1, 1]
        assert started == []
        # The mark ended with the copied context.
        assert not parallel_module.in_parallel()


class TestSerialEqualsPooledDecode:
    """Every decode array is equal whether or not the pipeline runs."""

    @pytest.mark.parametrize("dtype", [None, np.complex64])
    @pytest.mark.parametrize("noise", [None, "payload", "full"])
    @pytest.mark.parametrize("n_rounds, n_chunks", [(2, 1), (4, 2), (5, 3)])
    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_pool_and_serial_decodes_are_identical(
        self, monkeypatch, cpus, started, chunk_counts,
        sf, n_rounds, n_chunks, noise, dtype,
    ):
        config, assignments, batch = _scenario(sf, n_rounds)
        receiver = NetScatterReceiver(
            config, assignments, readout="analytic",
            noise_mode=noise or "payload",
        )
        _force_chunk_rounds(monkeypatch, receiver, 16, 6, CHUNK_ROUNDS)
        # A per-round SNR exercises the chunk slicing of the noise scale.
        snrs = np.linspace(-14.0, -8.0, n_rounds)

        def decode():
            kwargs = {}
            if noise is not None:
                kwargs = dict(
                    noise_snr_db=snrs, rng=np.random.default_rng(77)
                )
            return receiver.decode_readout(*batch, dtype=dtype, **kwargs)

        cpus(1)
        serial = decode()
        assert started == []
        for n in (2, 4):
            cpus(n)
            _assert_same_decode(decode(), serial)
        assert chunk_counts == [n_chunks] * 3
        stage_threads = started.named(STAGE_THREAD_PREFIX)
        assert len(stage_threads) == (2 if n_chunks > 1 else 0)
        assert not _stage_threads_alive()

    def test_pool_and_serial_fading_batches_are_identical(
        self, cpus, started, chunk_counts
    ):
        """A 200-round fading batch decodes to equal metrics; each run
        gets a fresh deployment, since fading tracks carry state."""
        config = NetScatterConfig(n_association_shifts=0)

        def run():
            simulator = NetworkSimulator(
                paper_deployment(n_devices=64, rng=11),
                config=config,
                rng=np.random.default_rng(3),
                engine="analytic",
            )
            return dataclasses.asdict(simulator.run_rounds(200, fading=True))

        cpus(1)
        serial = run()
        cpus(2)
        assert run() == serial
        assert chunk_counts[0] == chunk_counts[1] >= 2
        assert started.named(STAGE_THREAD_PREFIX)


    def test_pool_stress_with_cold_shared_caches(self, monkeypatch, cpus):
        """Four callers decode at once, each with its own stage thread
        (eight threads on two cores), a 1 us switch interval, and the
        readout caches emptied first so the stages race to fill them:
        every decode equals the serial one."""
        config, assignments, batch = _scenario(9, 10)

        def decode():
            receiver = NetScatterReceiver(
                config, assignments, readout="analytic"
            )
            return receiver.decode_readout(
                *batch, noise_snr_db=-10.0, rng=np.random.default_rng(3)
            )

        _force_chunk_rounds(
            monkeypatch,
            NetScatterReceiver(config, assignments, readout="analytic"),
            16, 6, CHUNK_ROUNDS,
        )

        cpus(1)
        serial = decode()
        for cache in (
            sparse_readout.natural_probe_readout,
            receiver_module._window_noise_factor,
            receiver_module._located_noise_factor,
        ):
            cache.cache_clear()
        cpus(8)
        decodes = []
        callers = [
            threading.Thread(target=lambda: decodes.append(decode()))
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(decodes) == 4
        for pooled in decodes:
            _assert_same_decode(pooled, serial)
        assert not _stage_threads_alive()


class _StageFailure(RuntimeError):
    pass


class TestPoolFailures:
    N_ROUNDS = 10  # five chunks of CHUNK_ROUNDS

    def _receiver(self, monkeypatch):
        config, assignments, batch = _scenario(9, self.N_ROUNDS)
        receiver = NetScatterReceiver(config, assignments, readout="analytic")
        _force_chunk_rounds(monkeypatch, receiver, 16, 6, CHUNK_ROUNDS)
        return receiver, batch

    @pytest.mark.parametrize("failing_chunk", [0, 1, 3])
    def test_pool_stage_a_failure_reaches_the_caller(
        self, monkeypatch, cpus, failing_chunk
    ):
        cpus(2)
        receiver, batch = self._receiver(monkeypatch)
        compose = dcss_module.compose_readout
        composed = []

        def failing_compose(*args, **kwargs):
            if kwargs.get("columns") is None:  # a stage-A call
                chunk = len(composed) // 2
                composed.append(chunk)
                if chunk == failing_chunk:
                    raise _StageFailure(f"chunk {chunk}")
            return compose(*args, **kwargs)

        monkeypatch.setattr(dcss_module, "compose_readout", failing_compose)
        with pytest.raises(_StageFailure, match=f"chunk {failing_chunk}"):
            receiver.decode_readout(
                *batch, noise_snr_db=-10.0, rng=np.random.default_rng(1)
            )
        assert max(composed) <= failing_chunk + 1
        assert not _stage_threads_alive()

    def test_pool_stage_b_failure_leaves_no_stage_thread(
        self, monkeypatch, cpus
    ):
        cpus(2)
        receiver, batch = self._receiver(monkeypatch)
        inject = receiver_module._inject_located_noise
        calls = []

        def failing_inject(*args):
            calls.append(1)
            if len(calls) == 2:
                raise _StageFailure("decide")
            return inject(*args)

        monkeypatch.setattr(
            receiver_module, "_inject_located_noise", failing_inject
        )
        with pytest.raises(_StageFailure, match="decide"):
            receiver.decode_readout(
                *batch, noise_snr_db=-10.0, rng=np.random.default_rng(1)
            )
        assert not _stage_threads_alive()


def _sweep_point_in_pool_worker(job):
    """Sweep point probe: the real point, plus what the worker saw."""
    with recorded_thread_starts() as names:
        metrics = _REAL_SWEEP_POINT(job)
    return metrics, parallel_module.in_parallel(), names


_REAL_SWEEP_POINT = network_module._run_sweep_point


def _point_in_pool_worker(point, attempt=1, fault_plan=None):
    """Campaign pool probe: records the worker's view in the provenance."""
    with recorded_thread_starts() as names:
        metrics, provenance, elapsed = _REAL_POOL_EXECUTE(
            point, attempt, fault_plan
        )
    provenance = dict(
        provenance,
        in_parallel=parallel_module.in_parallel(),
        threads=list(names),
    )
    return metrics, provenance, elapsed


_REAL_POOL_EXECUTE = campaign_runner._pool_execute


class TestNoNestedPoolThreads:
    def test_single_chunk_decode_starts_no_pool_thread(
        self, cpus, started, chunk_counts
    ):
        cpus(4)
        config, assignments, batch = _scenario(9, 3)
        NetScatterReceiver(
            config, assignments, readout="analytic"
        ).decode_readout(*batch, noise_snr_db=-10.0, rng=1)
        assert chunk_counts == [1]
        assert started == []

    def test_monte_carlo_pool_legs_open_no_stage_thread(
        self, cpus, started, chunk_counts
    ):
        """A 10⁴-device cycle with 8-round legs: pooled equals serial
        field for field, and the leg threads decode their chunks
        serially."""
        pop = office_population(10_000, rng=8, snr_scale_db=-26.0)
        rule = FidelityRule(monte_carlo_rounds=8)
        cpus(1)
        serial = hybrid_population_round(pop, rule=rule, seed=5)
        assert started == []
        cpus(2)
        pooled = hybrid_population_round(pop, rule=rule, seed=5)
        assert dataclasses.asdict(pooled) == dataclasses.asdict(serial)
        assert started.named("monte-carlo-leg")
        assert not started.named(STAGE_THREAD_PREFIX)
        assert max(chunk_counts) >= 2  # the legs are multi-chunk

        # The same leg outside any pool does pipeline its chunks.
        snrs = pop.snr_db
        config = NetScatterConfig(n_association_shifts=0)
        clusters = assign_cluster(snrs, config, rule.group_span_db)
        split = split_fidelity(snrs, clusters, rule, 5)
        g = int(np.flatnonzero(split.monte_carlo)[0])
        population_module._monte_carlo_group_metrics(
            snrs[clusters[g]], pop.device_id[clusters[g]], config,
            int(split.group_seeds[g]), rule.monte_carlo_rounds,
        )
        assert started.named(STAGE_THREAD_PREFIX)


class TestProcessPoolWorkersPipeline:
    """Process-pool workers are not marked: each pipelines its own
    multi-chunk points, with the serial run's metrics."""

    def test_sweep_pool_workers_pipeline_their_points(
        self, monkeypatch, cpus
    ):
        cpus(2)
        deployment = paper_deployment(n_devices=64, rng=4)
        kwargs = dict(n_rounds=40, rng=9, engine="analytic")
        serial = sweep_device_counts(deployment, (48, 64), **kwargs)
        monkeypatch.setattr(
            network_module, "_run_sweep_point", _sweep_point_in_pool_worker
        )
        pooled = sweep_device_counts(
            deployment, (48, 64), workers=2, **kwargs
        )
        assert [metrics for metrics, _, _ in pooled] == serial
        assert not any(marked for _, marked, _ in pooled)
        for _, _, threads in pooled:
            assert threads.named(STAGE_THREAD_PREFIX)

    def test_campaign_pool_workers_pipeline_their_points(
        self, monkeypatch, cpus
    ):
        cpus(2)
        spec = fig17_campaign(
            rng=0, device_counts=(48, 64), n_rounds=40, engine="analytic"
        )
        serial = CampaignRunner().run(spec)
        monkeypatch.setattr(
            campaign_runner, "_pool_execute", _point_in_pool_worker
        )
        pooled = CampaignRunner(workers=2).run(spec)
        assert pooled.metrics == serial.metrics
        for result in pooled.results:
            assert result.provenance["in_parallel"] is False
            assert any(
                name.startswith(STAGE_THREAD_PREFIX)
                for name in result.provenance["threads"]
            )


# --------------------------------------------------------------------- #
# the waveform branch: tone sums read through the fft or sparse backend
# --------------------------------------------------------------------- #


class _ForcedPlanner:
    """Duck-typed planner pinning ``readout="auto"`` to one backend."""

    def __init__(self, backend):
        self.backend = backend

    def select(self, workload):
        return self.backend


def _waveform_receiver(config, assignments, backend, noise="payload"):
    return NetScatterReceiver(
        config, assignments, readout="auto",
        planner=_ForcedPlanner(backend), noise_mode=noise,
    )


def _force_span_rounds(monkeypatch, receiver, n_symbols, n_tones, backend,
                       rounds):
    """Set the element budget so a waveform decide span holds ``rounds``.

    On ``fft`` the padded grid bounds the decide span, and a compose
    chunk then holds ``rounds * n_symbols * zp // (n_symbols + n_tones)``
    rounds, so it splits into several decide spans. On ``sparse`` the
    compose chunk is the bound.
    """
    n = receiver.readout_plan.n_samples
    if backend == "fft":
        per_round = n_symbols * n * receiver.config.zero_pad_factor
    else:
        per_round = (n_symbols + n_tones) * n
    monkeypatch.setattr(
        receiver_module, "_CHUNK_ELEMENT_BUDGET", rounds * per_round
    )


def _waveform_decode(receiver, batch, noise, n_rounds, seed=77):
    kwargs = {}
    if noise is not None:
        kwargs = dict(
            noise_snr_db=np.linspace(-14.0, -8.0, n_rounds),
            rng=np.random.default_rng(seed),
        )
    return receiver.decode_readout(*batch, **kwargs)


class TestSerialEqualsPooledWaveformDecode:
    """Every waveform decode array is equal whether or not it pipelines."""

    @pytest.mark.parametrize("noise", [None, "payload", "full"])
    @pytest.mark.parametrize(
        "n_rounds, n_spans", [(2, 1), (4, 2), (5, 3), (17, 9)]
    )
    @pytest.mark.parametrize("sf", [7, 9, 12])
    @pytest.mark.parametrize("backend", ["fft", "sparse"])
    def test_pool_and_serial_waveform_decodes_are_identical(
        self, monkeypatch, cpus, started, chunk_counts,
        backend, sf, n_rounds, n_spans, noise,
    ):
        """2, 4 and 5 rounds decode as 1, 2 and 3 spans, the last of 5
        ragged; on fft the 4 rounds are one compose chunk split into two
        decide spans, and 17 rounds cross a compose chunk boundary."""
        config, assignments, batch = _scenario(sf, n_rounds)
        receiver = _waveform_receiver(
            config, assignments, backend, noise or "payload"
        )
        _force_span_rounds(monkeypatch, receiver, 16, 6, backend, CHUNK_ROUNDS)

        cpus(1)
        serial = _waveform_decode(receiver, batch, noise, n_rounds)
        assert started == []
        assert serial.backend == backend
        for n in (2, 4):
            cpus(n)
            _assert_same_decode(
                _waveform_decode(receiver, batch, noise, n_rounds), serial
            )
        assert chunk_counts == [n_spans] * 3
        stage_threads = started.named(STAGE_THREAD_PREFIX)
        assert len(stage_threads) == (2 if n_spans > 1 else 0)
        assert not _stage_threads_alive()

    def test_pool_and_serial_dense_simulator_metrics_are_identical(
        self, monkeypatch, cpus, started, chunk_counts
    ):
        """256 devices under a planner pinned to the FFT: 20 rounds, in
        seven decide spans, give equal metrics either way."""
        monkeypatch.setattr(
            backend_plan, "_HOST_PLANNER", _ForcedPlanner("fft")
        )
        config = NetScatterConfig(n_association_shifts=0)

        def run():
            simulator = NetworkSimulator(
                paper_deployment(n_devices=256, rng=11),
                config=config,
                rng=np.random.default_rng(3),
                engine="auto",
            )
            return dataclasses.asdict(simulator.run_rounds(20))

        cpus(1)
        serial = run()
        cpus(2)
        assert run() == serial
        assert serial["backend"] == "fft"
        assert chunk_counts == [7, 7]
        assert started.named(STAGE_THREAD_PREFIX)


class TestDecideSpansPool:
    """The one helper that cuts waveform decodes into decide spans."""

    def test_pool_spans_of_dense_256(self):
        """``dense-256``: 46 symbols of 256 tones at SF 9 (zp 10). A
        compose chunk holds 2^20 // ((46 + 256) * 512) = 6 rounds, a
        decide chunk 2^20 // (46 * 512 * 10) = 4."""
        config = NetScatterConfig(n_association_shifts=0)
        assert (config.spreading_factor, config.zero_pad_factor) == (9, 10)
        receiver = NetScatterReceiver(
            config, {i: config.skip * i for i in range(256)}
        )
        spans = receiver._decide_spans(
            20, 46, receiver.readout_plan, "fft", n_tones=256
        )
        assert spans == [
            (0, 4), (4, 6), (6, 10), (10, 12), (12, 16), (16, 18), (18, 20),
        ]

    def test_pool_spans_nest_decide_chunks_in_compose_chunks(
        self, monkeypatch
    ):
        config, assignments, _ = _scenario(9, 31)
        receiver = _waveform_receiver(config, assignments, "fft")
        _force_span_rounds(monkeypatch, receiver, 16, 6, "fft", 4)
        # Compose chunks of 4 * 16 * 10 // 22 = 29 rounds, decide spans
        # of 4: the first compose chunk ends in a 1-round span, and the
        # second starts a span of its own.
        assert receiver._decide_spans(
            31, 16, receiver.readout_plan, "fft", n_tones=6
        ) == [
            (0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 24), (24, 28),
            (28, 29), (29, 31),
        ]

    @pytest.mark.parametrize("backend", ["fft", "sparse"])
    def test_pool_decode_rounds_chunks_are_unchanged(
        self, monkeypatch, backend
    ):
        """A symbol tensor is one compose chunk: ``decode_rounds`` reads
        consecutive chunks of ``budget // elements-per-round`` rounds."""
        config, assignments, (bins, amps, phases, bits) = _scenario(9, 13)
        receiver = NetScatterReceiver(config, assignments, readout=backend)
        plan = receiver.readout_plan
        if backend == "fft":
            per_round = 16 * plan.n_samples * config.zero_pad_factor
        else:
            per_round = 16 * plan.window_readout.n_bins
        monkeypatch.setattr(
            receiver_module, "_CHUNK_ELEMENT_BUDGET", 3 * per_round
        )
        chunks = []
        decode_chunk = NetScatterReceiver._decode_chunk

        def recording(self, tensor, *args):
            chunks.append(tensor.shape[0])
            return decode_chunk(self, tensor, *args)

        monkeypatch.setattr(NetScatterReceiver, "_decode_chunk", recording)
        symbols = dcss_module.compose_rounds(
            config.chirp_params, bins, amps, phases, bits
        )
        decode = receiver.decode_rounds(
            symbols, noise_snr_db=-10.0, rng=np.random.default_rng(2)
        )
        assert chunks == [3, 3, 3, 3, 1]
        assert decode.n_rounds == 13


class TestStreamedReadPool:
    """The fft stage A reads each round alone, into reused buffers."""

    @pytest.mark.parametrize(
        "sf, n_devices", [(9, 256), (9, 64), (9, 16), (7, 32), (12, 16)]
    )
    def test_pool_streamed_fft_read_equals_the_batch_read(
        self, sf, n_devices
    ):
        config = NetScatterConfig(spreading_factor=sf, n_association_shifts=0)
        shifts = [config.skip * i for i in range(n_devices)]
        rng = np.random.default_rng(sf + n_devices)
        n_rounds, n_symbols = 3, 12
        bins = np.array(shifts, float) + rng.normal(0, 0.1, (n_rounds, n_devices))
        amps = rng.uniform(0.8, 1.5, (n_rounds, n_devices))
        phases = rng.uniform(0, 2 * np.pi, (n_rounds, n_devices))
        bits = rng.integers(0, 2, (n_rounds, n_symbols, n_devices))

        def compose(rounds):
            return dcss_module.compose_rounds(
                config.chirp_params, bins[rounds], amps[rounds],
                phases[rounds], bits[rounds], respread=False,
            )

        tensor = compose(slice(None))
        receiver = NetScatterReceiver(config, dict(enumerate(shifts)))
        plan = receiver._readout_plan(dechirped=True)
        windows, probes = plan.read(tensor, True)

        grid = np.empty(
            (n_symbols, plan.n_samples * config.zero_pad_factor), complex
        )
        streamed_windows = np.empty_like(windows)
        streamed_probes = np.empty_like(probes)
        for r in range(n_rounds):
            symbols = compose(slice(r, r + 1))
            assert np.array_equal(symbols, tensor[r : r + 1])
            plan.read_round(
                symbols[0], grid, streamed_windows[r], streamed_probes[r]
            )
        assert np.array_equal(streamed_windows, windows)
        assert np.array_equal(streamed_probes, probes)

    @pytest.mark.parametrize("backend", ["fft", "sparse"])
    def test_pool_stage_a_composes_rounds_or_whole_spans(
        self, monkeypatch, cpus, backend
    ):
        """fft: one composition and one FFT per round, every FFT into
        the same grid; sparse: one composition per span."""
        cpus(2)
        config, assignments, batch = _scenario(9, 5)
        receiver = _waveform_receiver(config, assignments, backend)
        _force_span_rounds(monkeypatch, receiver, 16, 6, backend, CHUNK_ROUNDS)
        composed, grids = [], set()
        compose = dcss_module.compose_rounds
        fft = receiver_module.full_fft_values

        def counting_compose(params, bins, *args, **kwargs):
            composed.append(bins.shape[0])
            return compose(params, bins, *args, **kwargs)

        def recording_fft(*args, out=None, **kwargs):
            grids.add(id(out))
            return fft(*args, out=out, **kwargs)

        monkeypatch.setattr(dcss_module, "compose_rounds", counting_compose)
        monkeypatch.setattr(receiver_module, "full_fft_values", recording_fft)
        _waveform_decode(receiver, batch, "payload", 5)
        if backend == "fft":
            assert composed == [1] * 5
            assert len(grids) == 1 and id(None) not in grids
        else:
            assert composed == [2, 2, 1]
            assert not grids


class TestWaveformPoolFailures:
    N_ROUNDS = 10  # five spans of CHUNK_ROUNDS

    @pytest.mark.parametrize("failing_span", [0, 1, 3])
    @pytest.mark.parametrize("backend", ["fft", "sparse"])
    def test_pool_waveform_stage_a_failure_reaches_the_caller(
        self, monkeypatch, cpus, backend, failing_span
    ):
        cpus(2)
        config, assignments, batch = _scenario(9, self.N_ROUNDS)
        receiver = _waveform_receiver(config, assignments, backend)
        _force_span_rounds(monkeypatch, receiver, 16, 6, backend, CHUNK_ROUNDS)
        compose = dcss_module.compose_rounds
        composed = []  # the span of every composition, in call order
        per_span = CHUNK_ROUNDS if backend == "fft" else 1

        def failing_compose(*args, **kwargs):
            span = len(composed) // per_span
            composed.append(span)
            if span == failing_span:
                raise _StageFailure(f"span {span}")
            return compose(*args, **kwargs)

        monkeypatch.setattr(dcss_module, "compose_rounds", failing_compose)
        with pytest.raises(_StageFailure, match=f"span {failing_span}"):
            _waveform_decode(receiver, batch, "payload", self.N_ROUNDS)
        assert max(composed) <= failing_span + 1
        assert not _stage_threads_alive()


class TestNoNestedWaveformPoolThreads:
    def test_one_cpu_waveform_decode_starts_no_pool_thread(
        self, monkeypatch, cpus, started, chunk_counts
    ):
        cpus(1)
        config, assignments, batch = _scenario(9, 10)
        receiver = _waveform_receiver(config, assignments, "fft")
        _force_span_rounds(monkeypatch, receiver, 16, 6, "fft", CHUNK_ROUNDS)
        _waveform_decode(receiver, batch, "payload", 10)
        assert chunk_counts == [5]
        assert started == []

    def test_monte_carlo_pool_legs_read_waveforms_without_stage_threads(
        self, monkeypatch, cpus, started, chunk_counts
    ):
        """Pooled legs that each decode five fft spans open no stage
        thread; the same legs outside the pool pipeline, with equal
        results."""
        cpus(2)
        config, assignments, batch = _scenario(9, 10)
        _force_span_rounds(
            monkeypatch, _waveform_receiver(config, assignments, "fft"),
            16, 6, "fft", CHUNK_ROUNDS,
        )

        def fft_leg(seed):
            decode = _waveform_decode(
                _waveform_receiver(config, assignments, "fft"), batch,
                "payload", 10, seed=seed,
            )
            return float(decode.bit_powers.sum()), float(decode.bits.sum())

        monkeypatch.setattr(
            population_module, "_monte_carlo_group_metrics", fft_leg
        )
        pooled = population_module._monte_carlo_legs([(1,), (2,), (3,)])
        assert started.named("monte-carlo-leg")
        assert not started.named(STAGE_THREAD_PREFIX)
        assert chunk_counts == [5] * 3
        assert [fft_leg(seed) for seed in (1, 2, 3)] == pooled
        assert started.named(STAGE_THREAD_PREFIX)
