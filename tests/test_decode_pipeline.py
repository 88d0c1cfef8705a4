"""The two-stage decode pipeline and the one parallelism rule.

Every ``NetScatterReceiver`` decode runs one span loop: it reads each
round span (stage A) on a stage thread while the caller decides the
previous span (stage B), through :func:`repro.utils.parallel.pipeline`.
Every span has one shape: its first part draws the span's engine
noise, and its other parts read it. In ``decode_readout``, on the
analytic backend one part composes the span's preamble windows and
symbol-0 probes; on the ``fft`` backend one part per round synthesises
and reads that round's tone sum, in 8-row blocks into a grid each
reading thread owns, and the caller, once it has decided a span, reads
the rounds of the next span the stage thread has not taken.
``decode_rounds`` reads its symbol tensor the same ways (``sparse`` as
one part per span). Stage B only decides. Four contracts:

* **serial equals pipelined** — every ``RoundsDecode`` array is equal,
  bit for bit, whether one, two or four CPUs are usable, across chunk
  counts, spreading factors, noise streams, precisions and backends;
* **failures surface cleanly** — a stage failure reaches the caller
  with its own type, nothing runs far ahead, and no stage thread
  outlives the call;
* **no nested threads** — single-chunk decodes and Monte-Carlo legs
  (on their forked workers and on the caller) never open a stage
  thread, while a campaign process-pool worker (its own interpreter)
  pipelines its multi-chunk points like a serial run;
* **one span schedule** — on every backend a span's first part draws
  its engine noise, so every pooled draw runs on the stage thread, in
  the serial decode's order and shapes, and a failing draw reaches
  the caller like any stage failure.

The class and test names carry ``pool`` so CI's multi-core
``pooled-paths`` job (``pytest -k pool``) runs the concurrent branch.
"""

import contextlib
import contextvars
import dataclasses
import multiprocessing
import sys
import threading
import time
from functools import partial
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

import repro.campaign.runner as campaign_runner
import repro.core.dcss as dcss_module
import repro.core.receiver as receiver_module
import repro.protocol.population as population_module
import repro.utils.parallel as parallel_module
from repro.campaign.presets import fig17_campaign
from repro.campaign.runner import CampaignRunner
from repro.channel.deployment import paper_deployment
from repro.core.config import NetScatterConfig
from repro.core.receiver import NetScatterReceiver
from repro.phy import backend_plan, sparse_readout
from repro.protocol.network import NetworkSimulator
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
    """Names of every thread started in this process while the fixture
    is active. ``processes`` names the processes this process started,
    and ``stage_anywhere`` counts the stage threads started in this
    process or in a process it forked."""

    def __init__(self):
        super().__init__()
        self.processes = []
        self.stage_anywhere = multiprocessing.get_context("fork").Value("i", 0)

    def named(self, prefix):
        return [name for name in self if name.startswith(prefix)]


@contextlib.contextmanager
def recorded_thread_starts():
    names = StartedThreads()
    start = threading.Thread.start
    start_process = BaseProcess.start

    def recording_start(thread):
        names.append(thread.name)
        if thread.name.startswith(STAGE_THREAD_PREFIX):
            with names.stage_anywhere.get_lock():
                names.stage_anywhere.value += 1
        return start(thread)

    def recording_process_start(process):
        names.processes.append(process.name)
        return start_process(process)

    threading.Thread.start = recording_start
    BaseProcess.start = recording_process_start
    try:
        yield names
    finally:
        threading.Thread.start = start
        BaseProcess.start = start_process


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


def _whole(make_staged):
    """A ``produce`` whose items are one part each."""
    return lambda item: ([lambda: make_staged(item)], lambda done: done[0])


class _PartFailure(RuntimeError):
    pass


class TestPipelineHelperPool:
    """The helper's contract, with a faked second CPU."""

    def test_pool_consumes_on_the_caller_in_order(self, cpus):
        cpus(2)
        produced, consumed = [], []

        def make_staged(item):
            produced.append((item, threading.current_thread().name))
            return item * 10

        def consume(staged):
            consumed.append((staged, threading.current_thread().name))
            return staged + 1

        caller = threading.current_thread().name
        assert pipeline(_whole(make_staged), consume, range(4)) == [
            1, 11, 21, 31
        ]
        assert consumed == [(10 * i, caller) for i in range(4)]
        # A one-part item runs on the stage thread alone.
        assert [item for item, _ in produced] == [0, 1, 2, 3]
        assert all(
            name.startswith(STAGE_THREAD_PREFIX) for _, name in produced
        )
        assert not _stage_threads_alive()

    def test_pool_parts_of_one_item_run_on_both_threads(self, cpus):
        """Two parts that each wait for the other can only finish on two
        threads; ``finish`` gets their results in part order."""
        cpus(2)
        ran = []

        def produce(item):
            meet = threading.Barrier(2, timeout=10)

            def part(index):
                meet.wait()
                ran.append((item, threading.current_thread().name))
                return (item, index)

            return (
                [partial(part, 0), partial(part, 1)],
                lambda results: results,
            )

        caller = threading.current_thread().name
        consumed = []

        def consume(staged):
            consumed.append(threading.current_thread().name)
            return staged

        assert pipeline(produce, consume, range(3)) == [
            [(i, 0), (i, 1)] for i in range(3)
        ]
        assert consumed == [caller] * 3
        for item in range(3):
            threads = {name for i, name in ran if i == item} - {caller}
            assert len(threads) == 1
            assert threads.pop().startswith(STAGE_THREAD_PREFIX)
        assert not _stage_threads_alive()

    def test_pool_next_item_starts_once_this_items_parts_are_done(
        self, cpus
    ):
        """Across many items of many parts, no part of item k+1 starts
        before every part of item k has ended, and no more than two
        items are ever produced and not yet consumed."""
        cpus(2)
        events, lock = [], threading.Lock()
        in_flight, peak = [0], [0]

        def produce(item):
            # The slot an item's reads fill, held until it is consumed.
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])

            def part(index):
                with lock:
                    events.append(("start", item))
                time.sleep(0.001 * (1 + (item + index) % 3))
                with lock:
                    events.append(("end", item))

            return [partial(part, i) for i in range(5)], lambda _: item

        def consume(item):
            in_flight[0] -= 1
            return item

        assert pipeline(produce, consume, range(12)) == list(range(12))
        assert peak[0] == 2
        for position, (kind, item) in enumerate(events):
            if kind == "start" and item > 0:
                earlier = events[:position]
                assert earlier.count(("end", item - 1)) == 5
        assert not _stage_threads_alive()

    @pytest.mark.parametrize("on_caller", [False, True])
    @pytest.mark.parametrize("failing_item", [0, 2])
    def test_pool_part_failure_reaches_the_caller(
        self, cpus, on_caller, failing_item
    ):
        """A part that fails on either thread raises its own type at the
        caller, before any part of the next item runs."""
        cpus(2)
        caller = threading.current_thread()
        started_items = []

        def produce(item):
            meet = threading.Barrier(2, timeout=10)

            def part():
                started_items.append(item)
                meet.wait()
                if item == failing_item and (
                    (threading.current_thread() is caller) == on_caller
                ):
                    raise _PartFailure(f"item {item}")

            return [part, part], lambda _: item

        with pytest.raises(_PartFailure, match=f"item {failing_item}"):
            pipeline(produce, lambda item: item, range(5))
        assert max(started_items) == failing_item
        assert not _stage_threads_alive()

    def test_pool_consume_failure_reaches_the_caller(self, cpus):
        cpus(2)
        read = []

        def consume(item):
            if item == 1:
                raise _PartFailure("consume")
            return item

        with pytest.raises(_PartFailure, match="consume"):
            pipeline(
                _whole(lambda item: read.append(item) or item),
                consume,
                range(5),
            )
        # Consuming item 1 leaves at most item 2 read.
        assert read[:2] == [0, 1] and max(read) <= 2
        assert not _stage_threads_alive()

    def test_pool_stage_runs_in_the_callers_context(self, cpus):
        cpus(2)
        parent = contextvars.ContextVar("span_parent")
        token = parent.set("decode")
        try:
            seen = pipeline(
                _whole(lambda item: parent.get(None)), str, range(3)
            )
        finally:
            parent.reset(token)
        assert seen == ["decode"] * 3

    @pytest.mark.parametrize("n_cpus, n_items", [(1, 3), (4, 1), (4, 0)])
    def test_no_pool_for_one_cpu_or_one_item(
        self, cpus, started, n_cpus, n_items
    ):
        cpus(n_cpus)
        caller = threading.current_thread().name
        threads = []

        def produce(item):
            def part():
                threads.append(threading.current_thread().name)
                return str(item)

            return [part, part], "".join

        assert pipeline(produce, len, range(n_items)) == [2] * n_items
        assert threads == [caller] * 2 * n_items
        assert started == []

    def test_no_pool_inside_a_marked_context(self, cpus, started):
        cpus(4)

        def marked():
            parallel_module.mark_parallel()
            return pipeline(_whole(str), len, range(3))

        assert contextvars.copy_context().run(marked) == [1, 1, 1]
        assert started == []
        # The mark ended with the copied context.
        assert not parallel_module.in_parallel()


class TestSerialEqualsPooledDecode:
    """Every decode array is equal whether or not the pipeline runs."""

    @pytest.mark.parametrize("noise", [None, "payload", "full"])
    @pytest.mark.parametrize("n_rounds, n_chunks", [(2, 1), (4, 2), (5, 3)])
    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_pool_and_serial_decodes_are_identical(
        self, monkeypatch, cpus, started, chunk_counts,
        sf, n_rounds, n_chunks, noise,
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
            return receiver.decode_readout(*batch, **kwargs)

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


    @pytest.mark.parametrize("backend", ["analytic", "fft"])
    def test_pool_stress_with_cold_shared_caches(
        self, monkeypatch, cpus, backend
    ):
        """Four callers decode at once, each with its own stage thread
        (eight threads on two cores), a 1 us switch interval, and the
        readout caches emptied first so the stages race to fill them;
        on ``fft`` each caller also shares its spans' rounds with its
        stage thread: every decode equals the serial one."""
        config, assignments, batch = _scenario(9, 10)

        def receiver():
            if backend == "fft":
                return _waveform_receiver(config, assignments)
            return NetScatterReceiver(config, assignments, readout="analytic")

        def decode():
            return receiver().decode_readout(
                *batch, noise_snr_db=-10.0, rng=np.random.default_rng(3)
            )

        if backend == "fft":
            _force_span_rounds(monkeypatch, receiver(), 16, CHUNK_ROUNDS)
        else:
            _force_chunk_rounds(monkeypatch, receiver(), 16, 6, CHUNK_ROUNDS)

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
        compose = receiver_module._compose_located
        calls = []

        def failing_compose(*args):
            calls.append(1)
            if len(calls) == 2:
                raise _StageFailure("decide")
            return compose(*args)

        monkeypatch.setattr(
            receiver_module, "_compose_located", failing_compose
        )
        with pytest.raises(_StageFailure, match="decide"):
            receiver.decode_readout(
                *batch, noise_snr_db=-10.0, rng=np.random.default_rng(1)
            )
        assert not _stage_threads_alive()


def _point_in_pool_worker(point):
    """Campaign pool probe: records the worker's view in the provenance."""
    with recorded_thread_starts() as names:
        metrics, provenance, elapsed = _REAL_POOL_EXECUTE(point)
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
        field for field, and the legs decode their chunks serially, on
        the forked worker and on the caller alike."""
        pop = office_population(10_000, rng=8, snr_scale_db=-26.0)
        rule = FidelityRule(monte_carlo_rounds=8)
        cpus(1)
        serial = hybrid_population_round(pop, rule=rule, seed=5)
        assert started == [] and started.processes == []
        cpus(2)
        pooled = hybrid_population_round(pop, rule=rule, seed=5)
        assert dataclasses.asdict(pooled) == dataclasses.asdict(serial)
        assert started.processes == ["monte-carlo-leg-0"]
        assert started.stage_anywhere.value == 0
        assert not started.named(STAGE_THREAD_PREFIX)
        # The caller's legs are multi-chunk.
        assert max(chunk_counts) >= 2

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
# the waveform branch: tone sums read through the fft backend
# --------------------------------------------------------------------- #


class _ForcedPlanner:
    """Duck-typed planner pinning ``readout="auto"`` to one backend."""

    def __init__(self, backend):
        self.backend = backend

    def select(self, workload):
        return self.backend


def _waveform_receiver(config, assignments, noise="payload"):
    """A receiver whose ``decode_readout`` reads through the padded FFT."""
    return NetScatterReceiver(
        config, assignments, readout="auto",
        planner=_ForcedPlanner("fft"), noise_mode=noise,
    )


def _force_span_rounds(monkeypatch, receiver, n_symbols, rounds):
    """Set the element budget so a waveform decide span holds ``rounds``.

    The padded grid bounds the decide span, and a compose chunk then
    holds ``rounds * n_symbols * zp // (n_symbols + n_tones)`` rounds,
    so it splits into several decide spans.
    """
    per_round = (
        n_symbols
        * receiver.readout_plan.n_samples
        * receiver.config.zero_pad_factor
    )
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
    def test_pool_and_serial_waveform_decodes_are_identical(
        self, monkeypatch, cpus, started, chunk_counts,
        sf, n_rounds, n_spans, noise,
    ):
        """2, 4 and 5 rounds decode as 1, 2 and 3 spans, the last of 5
        ragged; the 4 rounds are one compose chunk split into two decide
        spans, and 17 rounds cross a compose chunk boundary."""
        config, assignments, batch = _scenario(sf, n_rounds)
        receiver = _waveform_receiver(config, assignments, noise or "payload")
        _force_span_rounds(monkeypatch, receiver, 16, CHUNK_ROUNDS)

        cpus(1)
        serial = _waveform_decode(receiver, batch, noise, n_rounds)
        assert started == []
        assert serial.backend == "fft"
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


class TestDrawPlacementPool:
    """Every backend's span draws its engine noise as stage A's first
    part, so the stage thread, which opens every span, makes every
    pooled draw."""

    @staticmethod
    def _recorded_draws(monkeypatch, run):
        """``run()``'s decodes, with every draw's thread and shape."""
        draws = []
        draw = receiver_module.NoiseStream.standard_complex

        def recording_draw(self, shape):
            draws.append((threading.current_thread().name, tuple(shape)))
            return draw(self, shape)

        with monkeypatch.context() as patch:
            patch.setattr(
                receiver_module.NoiseStream, "standard_complex",
                recording_draw,
            )
            decodes = run()
        return draws, decodes

    @staticmethod
    def _simulated(monkeypatch, n_devices, n_rounds, engine, fading):
        """A simulator's rounds, with every ``decode_readout`` result."""
        decode_readout = NetScatterReceiver.decode_readout

        def run():
            decodes = []

            def recording_decode(self, *args, **kwargs):
                decodes.append(decode_readout(self, *args, **kwargs))
                return decodes[-1]

            with monkeypatch.context() as patch:
                patch.setattr(
                    NetScatterReceiver, "decode_readout", recording_decode
                )
                NetworkSimulator(
                    paper_deployment(n_devices=n_devices, rng=11),
                    config=NetScatterConfig(n_association_shifts=0),
                    rng=np.random.default_rng(3),
                    engine=engine,
                ).run_rounds(n_rounds, fading=fading)
            return decodes

        return run

    @staticmethod
    def _sparse_tensor(monkeypatch):
        """``decode_rounds`` of a 5-round symbol tensor in 3 spans."""
        config, assignments, (bins, amps, phases, bits) = _scenario(9, 5)
        receiver = NetScatterReceiver(config, assignments, readout="sparse")
        per_round = 16 * receiver.readout_plan.window_readout.n_bins
        monkeypatch.setattr(
            receiver_module, "_CHUNK_ELEMENT_BUDGET", CHUNK_ROUNDS * per_round
        )
        symbols = dcss_module.compose_rounds(
            config.chirp_params, bins, amps, phases, bits
        )
        return lambda: [
            receiver.decode_rounds(
                symbols, noise_snr_db=np.linspace(-14.0, -8.0, 5),
                rng=np.random.default_rng(77),
            )
        ]

    @pytest.mark.parametrize("backend", ["analytic", "fft", "sparse"])
    def test_pool_draws_run_on_the_stage_thread_in_serial_order(
        self, monkeypatch, cpus, chunk_counts, backend
    ):
        monkeypatch.setattr(
            backend_plan, "_HOST_PLANNER", _ForcedPlanner("fft")
        )
        if backend == "analytic":  # fading-64's batches
            run = self._simulated(monkeypatch, 64, 200, "analytic", True)
        elif backend == "fft":  # dense-256's batch
            run = self._simulated(monkeypatch, 256, 20, "auto", False)
        else:
            run = self._sparse_tensor(monkeypatch)
        caller = threading.current_thread().name
        cpus(1)
        serial_draws, serial_decodes = self._recorded_draws(monkeypatch, run)
        cpus(2)
        pooled_draws, pooled_decodes = self._recorded_draws(monkeypatch, run)

        assert chunk_counts[0] == chunk_counts[-1] >= 2
        assert {d.backend for d in serial_decodes} == {backend}
        assert [shape for _, shape in pooled_draws] == [
            shape for _, shape in serial_draws
        ]
        assert {name for name, _ in serial_draws} == {caller}
        assert pooled_draws
        assert all(
            name.startswith(STAGE_THREAD_PREFIX) for name, _ in pooled_draws
        )
        assert len(pooled_decodes) == len(serial_decodes)
        for pooled, serial in zip(pooled_decodes, serial_decodes):
            _assert_same_decode(pooled, serial)
        assert not _stage_threads_alive()


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
        receiver = _waveform_receiver(config, assignments)
        _force_span_rounds(monkeypatch, receiver, 16, 4)
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
        decide_chunk = NetScatterReceiver._decide_chunk

        def recording(self, windows, *args):
            chunks.append(windows.shape[0])
            return decide_chunk(self, windows, *args)

        monkeypatch.setattr(NetScatterReceiver, "_decide_chunk", recording)
        symbols = dcss_module.compose_rounds(
            config.chirp_params, bins, amps, phases, bits
        )
        decode = receiver.decode_rounds(
            symbols, noise_snr_db=-10.0, rng=np.random.default_rng(2)
        )
        assert chunks == [3, 3, 3, 3, 1]
        assert decode.n_rounds == 13

    @pytest.mark.parametrize("noise", [None, "payload", "full"])
    @pytest.mark.parametrize("dechirped", [True, False])
    @pytest.mark.parametrize("backend", ["fft", "sparse"])
    def test_pool_and_serial_multi_span_decode_rounds_are_identical(
        self, monkeypatch, cpus, started, chunk_counts, backend, dechirped,
        noise,
    ):
        """A symbol tensor runs the same span loop: its next span is
        read on the stage thread, and the result equals the serial
        decode bit for bit."""
        config, assignments, (bins, amps, phases, bits) = _scenario(9, 5)
        receiver = NetScatterReceiver(
            config, assignments, readout=backend,
            noise_mode=noise or "payload",
        )
        plan = receiver._readout_plan(dechirped)
        if backend == "fft":
            per_round = 16 * plan.n_samples * config.zero_pad_factor
        else:
            per_round = 16 * plan.window_readout.n_bins
        monkeypatch.setattr(
            receiver_module, "_CHUNK_ELEMENT_BUDGET", CHUNK_ROUNDS * per_round
        )
        symbols = dcss_module.compose_rounds(
            config.chirp_params, bins, amps, phases, bits,
            respread=not dechirped,
        )

        def decode():
            kwargs = {}
            if noise is not None:
                kwargs = dict(
                    noise_snr_db=np.linspace(-14.0, -8.0, 5),
                    rng=np.random.default_rng(77),
                )
            return receiver.decode_rounds(
                symbols, dechirped=dechirped, **kwargs
            )

        cpus(1)
        serial = decode()
        assert started == []
        cpus(2)
        _assert_same_decode(decode(), serial)
        assert chunk_counts == [3, 3]
        assert len(started.named(STAGE_THREAD_PREFIX)) == 1
        assert not _stage_threads_alive()


class TestStreamedReadPool:
    """The fft stage A reads each round alone, into reused buffers."""

    @pytest.mark.parametrize("dechirped", [True, False])
    @pytest.mark.parametrize(
        "sf, n_devices", [(9, 256), (9, 64), (9, 16), (7, 32), (12, 16)]
    )
    def test_pool_streamed_fft_read_equals_the_batch_read(
        self, sf, n_devices, dechirped
    ):
        """``read_round`` equals one batch padded FFT of every round,
        gathered at the same bins, in both input domains."""
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
                phases[rounds], bits[rounds], respread=not dechirped,
            )

        tensor = compose(slice(None))
        receiver = NetScatterReceiver(config, dict(enumerate(shifts)))
        plan = receiver._readout_plan(dechirped=dechirped)
        grid = sparse_readout.full_fft_values(
            config.chirp_params, config.zero_pad_factor, tensor,
            fold_downchirp=not dechirped,
        )
        windows = grid[..., plan.window_idx.ravel()].reshape(
            n_rounds, n_symbols, plan.n_devices, plan.window_width
        )
        probes = grid[:, 0, plan.probe_idx]

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

    def test_pool_block_ffts_equal_the_whole_round_fft(self):
        """Each row's padded FFT is that row's alone: a 41-row SF 9
        round (5120-point FFTs, the distinct rows of ``dense-256``) read
        in 8-row blocks equals its whole-round transform, bit for bit."""
        config = NetScatterConfig(n_association_shifts=0)
        n_grid = config.chirp_params.n_samples * config.zero_pad_factor
        assert n_grid == 5120
        rng = np.random.default_rng(41)
        symbols = rng.normal(size=(41, 512)) + 1j * rng.normal(size=(41, 512))
        whole = sparse_readout.full_fft_values(
            config.chirp_params, config.zero_pad_factor, symbols,
            fold_downchirp=False,
        )
        grid = np.empty((receiver_module._FFT_BLOCK_ROWS, n_grid), complex)
        for first in range(0, 41, grid.shape[0]):
            block = symbols[first : first + grid.shape[0]]
            out = grid[: block.shape[0]]
            sparse_readout.full_fft_values(
                config.chirp_params, config.zero_pad_factor, block,
                fold_downchirp=False, out=out,
            )
            assert np.array_equal(out, whole[first : first + out.shape[0]])

    def test_pool_stage_a_composes_and_transforms_each_round(
        self, monkeypatch, cpus
    ):
        """One composition per round and one FFT per block of at most
        8 rows; each reading thread transforms into one grid of its
        own."""
        cpus(2)
        config, assignments, batch = _scenario(9, 5)
        receiver = _waveform_receiver(config, assignments)
        _force_span_rounds(monkeypatch, receiver, 16, CHUNK_ROUNDS)
        composed, grids, blocks = [], {}, []
        compose = dcss_module.compose_rounds
        fft = receiver_module.full_fft_values

        def counting_compose(params, bins, *args, **kwargs):
            composed.append(bins.shape[0])
            return compose(params, bins, *args, **kwargs)

        def recording_fft(params, zp, symbols, *args, out=None, **kwargs):
            blocks.append(symbols.shape[0])
            grid = out if out.base is None else out.base
            grids.setdefault(threading.current_thread().name, set()).add(
                id(grid)
            )
            return fft(params, zp, symbols, *args, out=out, **kwargs)

        monkeypatch.setattr(dcss_module, "compose_rounds", counting_compose)
        monkeypatch.setattr(receiver_module, "full_fft_values", recording_fft)
        _waveform_decode(receiver, batch, "payload", 5)
        assert composed == [1] * 5
        assert sorted(blocks) == sorted([8, 3] * 5)
        caller = threading.current_thread().name
        assert len(grids) <= 2 and all(
            name == caller or name.startswith(STAGE_THREAD_PREFIX)
            for name in grids
        )
        assert all(len(ids) == 1 for ids in grids.values())
        assert len(set.union(*grids.values())) == len(grids)


def _distinct_row_batch(sf, n_devices, n_rounds=3, n_pre=6, n_payload=10):
    """Tone inputs whose rounds share their all-on preamble rows."""
    config = NetScatterConfig(spreading_factor=sf, n_association_shifts=0)
    shifts = [config.skip * i for i in range(n_devices)]
    rng = np.random.default_rng(sf * n_devices)
    bins = np.array(shifts, float) + rng.normal(0, 0.1, (n_rounds, n_devices))
    amps = rng.uniform(0.8, 1.5, (n_rounds, n_devices))
    phases = rng.uniform(0, 2 * np.pi, (n_rounds, n_devices))
    bits = np.ones((n_rounds, n_pre + n_payload, n_devices))
    bits[:, n_pre:] = rng.integers(0, 2, (n_rounds, n_payload, n_devices))
    return config, dict(enumerate(shifts)), (bins, amps, phases, bits)


class TestDistinctRowRead:
    """The ``fft`` stage A of ``decode_readout`` composes and transforms
    each round's shared preamble row once."""

    @pytest.mark.parametrize(
        "sf, n_devices", [(9, 256), (9, 16), (7, 32), (12, 16)]
    )
    def test_distinct_row_hand_over_equals_the_full_row_read(
        self, sf, n_devices
    ):
        """The broadcast preamble row, the probes and the payload read
        at any located bins equal a full read of every row, bit for
        bit; the located read equals ``take_along_axis``."""
        config, assignments, (bins, amps, phases, bits) = (
            _distinct_row_batch(sf, n_devices)
        )
        receiver = NetScatterReceiver(config, assignments)
        plan = receiver._readout_plan(dechirped=True)
        n_rounds, n_symbols, n_pre = bits.shape[0], bits.shape[1], 6

        def read(first, n_preamble):
            parts, finish = receiver._fft_reader(
                plan, n_symbols - first,
                lambda r: dcss_module.compose_rounds(
                    config.chirp_params, bins[r : r + 1], amps[r : r + 1],
                    phases[r : r + 1], bits[r : r + 1, first:],
                    respread=False,
                )[0],
                n_preamble,
            )((0, n_rounds))
            return finish([part() for part in parts])

        _, windows, probes, no_payload = read(0, 0)
        _, preamble, distinct_probes, payload = read(n_pre - 1, n_pre)
        assert no_payload is None
        assert preamble.shape == windows[:, :n_pre].shape
        assert np.array_equal(preamble, windows[:, :n_pre])
        assert np.array_equal(distinct_probes, probes)
        rng = np.random.default_rng(1)
        located = rng.integers(1, plan.window_width - 1, (n_rounds, n_devices))
        full = np.take_along_axis(
            windows[:, n_pre:], located[:, None, :, None] + np.arange(-1, 2),
            axis=3,
        )
        assert np.array_equal(payload(located), full)
        assert np.array_equal(
            plan.gather_located(windows[:, n_pre:], located), full
        )

    @staticmethod
    def _recorded_decode(monkeypatch, receiver, batch, noise):
        """The decode and the rows of every composition and FFT grid."""
        rows = []
        compose = dcss_module.compose_rounds
        fft = receiver_module.full_fft_values

        def recording_compose(params, bins, amps, phases, bits, **kwargs):
            rows.append(("compose", bits.shape[1]))
            return compose(params, bins, amps, phases, bits, **kwargs)

        def recording_fft(params, zp, symbols, **kwargs):
            rows.append(("fft", symbols.shape[0]))
            return fft(params, zp, symbols, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(dcss_module, "compose_rounds", recording_compose)
            patch.setattr(receiver_module, "full_fft_values", recording_fft)
            decode = _waveform_decode(receiver, batch, noise, 3)
        return decode, rows

    @pytest.mark.parametrize("n_payload", [10, 0])
    @pytest.mark.parametrize("noise", [None, "payload", "full"])
    @pytest.mark.parametrize("equal_preamble", [True, False])
    def test_rows_read_and_decisions(
        self, monkeypatch, noise, equal_preamble, n_payload
    ):
        """Equal preamble rows are read once unless the ``"full"`` stream
        draws at every row or the frame has no payload; unequal ones
        fall back to the full-row read. Either way the decode equals
        the symbol-tensor decode of the same rounds, which always reads
        every row."""
        config, assignments, batch = _distinct_row_batch(
            9, 16, n_payload=n_payload
        )
        bins, amps, phases, bits = batch
        if not equal_preamble:
            bits[1, 2, 5] = 0.0
        receiver = _waveform_receiver(config, assignments, noise or "payload")
        decode, rows = self._recorded_decode(
            monkeypatch, receiver, batch, noise
        )
        n_rows = bits.shape[1]
        if equal_preamble and noise != "full" and n_payload:
            n_rows -= 5
        blocks = [
            ("fft", min(8, n_rows - first)) for first in range(0, n_rows, 8)
        ]
        assert rows == ([("compose", n_rows)] + blocks) * 3

        tensor = dcss_module.compose_rounds(
            config.chirp_params, bins, amps, phases, bits, respread=False
        )
        kwargs = {}
        if noise is not None:
            kwargs = dict(
                noise_snr_db=np.linspace(-14.0, -8.0, 3),
                rng=np.random.default_rng(77),
            )
        reference = NetScatterReceiver(
            config, assignments, readout="fft", noise_mode=noise or "payload"
        ).decode_rounds(tensor, dechirped=True, **kwargs)
        _assert_same_decode(decode, reference)


class TestWaveformPoolFailures:
    N_ROUNDS = 10  # five spans of CHUNK_ROUNDS

    @pytest.mark.parametrize("failing_span", [0, 1, 3])
    def test_pool_waveform_stage_a_failure_reaches_the_caller(
        self, monkeypatch, cpus, failing_span
    ):
        cpus(2)
        config, assignments, batch = _scenario(9, self.N_ROUNDS)
        receiver = _waveform_receiver(config, assignments)
        _force_span_rounds(monkeypatch, receiver, 16, CHUNK_ROUNDS)
        compose = dcss_module.compose_rounds
        composed = []  # the span of every composition, in call order
        per_span = CHUNK_ROUNDS  # the fft stage A composes round by round

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

    @pytest.mark.parametrize("failing_span", [0, 1, 3])
    def test_pool_draw_failure_reaches_the_caller(
        self, monkeypatch, cpus, failing_span
    ):
        """A draw that raises on the stage thread reaches the caller with
        its own type, once the spans before it are decided and before
        any further span is produced."""
        cpus(2)
        config, assignments, batch = _scenario(9, self.N_ROUNDS)
        receiver = _waveform_receiver(config, assignments)
        _force_span_rounds(monkeypatch, receiver, 16, CHUNK_ROUNDS)
        draw = receiver_module._draw_span_noise
        drawn, produced, decided = [], [], []

        def failing_draw(*args):
            drawn.append(threading.current_thread().name)
            if len(drawn) - 1 == failing_span:
                raise _StageFailure(f"span {failing_span}")
            return draw(*args)

        def recording_pipeline(produce, consume, items):
            def recording_produce(span):
                produced.append(span)
                return produce(span)

            def recording_consume(staged):
                decided.append(staged[0][0])
                return consume(staged)

            return pipeline(recording_produce, recording_consume, items)

        monkeypatch.setattr(receiver_module, "_draw_span_noise", failing_draw)
        monkeypatch.setattr(receiver_module, "pipeline", recording_pipeline)
        with pytest.raises(_StageFailure, match=f"span {failing_span}"):
            _waveform_decode(receiver, batch, "payload", self.N_ROUNDS)
        spans = [(2 * k, 2 * k + 2) for k in range(failing_span + 1)]
        assert produced == spans
        assert decided == spans[:-1]
        assert len(drawn) == failing_span + 1
        assert all(name.startswith(STAGE_THREAD_PREFIX) for name in drawn)
        assert not _stage_threads_alive()


class TestNoNestedWaveformPoolThreads:
    def test_one_cpu_waveform_decode_starts_no_pool_thread(
        self, monkeypatch, cpus, started, chunk_counts
    ):
        cpus(1)
        config, assignments, batch = _scenario(9, 10)
        receiver = _waveform_receiver(config, assignments)
        _force_span_rounds(monkeypatch, receiver, 16, CHUNK_ROUNDS)
        _waveform_decode(receiver, batch, "payload", 10)
        assert chunk_counts == [5]
        assert started == []

    def test_monte_carlo_pool_legs_read_waveforms_without_stage_threads(
        self, monkeypatch, cpus, started, chunk_counts
    ):
        """Pooled legs that each decode five fft spans, on the forked
        worker or the caller, open no stage thread; the same legs
        outside the pool pipeline, with equal results. Each pooled leg
        returns the chunk counts its own process recorded."""
        cpus(2)
        config, assignments, batch = _scenario(9, 10)
        _force_span_rounds(
            monkeypatch, _waveform_receiver(config, assignments),
            16, CHUNK_ROUNDS,
        )

        def fft_leg(seed):
            decode = _waveform_decode(
                _waveform_receiver(config, assignments), batch,
                "payload", 10, seed=seed,
            )
            return float(decode.bit_powers.sum()), float(decode.bits.sum())

        def reporting_leg(seed):
            before = len(chunk_counts)
            return fft_leg(seed), chunk_counts[before:]

        monkeypatch.setattr(
            population_module, "_monte_carlo_group_metrics", reporting_leg
        )
        jobs = [(1,), (2,), (3,)]
        with population_module._MonteCarloLegs(jobs) as legs:
            pooled = legs.run()
        assert started.processes == ["monte-carlo-leg-0"]
        assert started.stage_anywhere.value == 0
        assert not started.named(STAGE_THREAD_PREFIX)
        assert [chunks for _, chunks in pooled] == [[5]] * 3
        assert [fft_leg(seed) for seed in (1, 2, 3)] == [
            result for result, _ in pooled
        ]
        assert started.named(STAGE_THREAD_PREFIX)
