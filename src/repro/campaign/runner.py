"""Sharded, resumable, fault-tolerant campaign execution.

The runner walks a :class:`~repro.campaign.spec.CampaignSpec`, skips
every point whose content hash is already present in the store, and
fans the remaining points out over a process pool
(:func:`resolve_pool_workers` — serial on 1-CPU hosts, no redundant
pool): the only process pool that runs sweep points. Each point is
checkpointed to the store the moment it completes, so a killed run
loses at most the points in flight; re-running the same spec loads the
completed points bit-for-bit and computes only the remainder (pinned by
``tests/test_campaign.py``).

Fault tolerance (pinned by ``tests/test_campaign_faults.py`` and
``tests/test_campaign_chaos.py``, whose faults come from the test-side
harness ``tests/chaos.py``):

* **Leases** — with a store, pending points are claimed through the
  lease protocol (:mod:`repro.campaign.leases`), so N concurrent
  runners on one store partition the work without duplicating
  computations; a killed runner's leases expire and its points are
  reclaimed, and the final manifest is identical to a single-shot run.
* **Retries** — a failed attempt is retried with seeded-jitter
  exponential backoff up to
  :attr:`~repro.campaign.retry.RetryPolicy.max_attempts`; every
  failed attempt is persisted as a failure record next to the chunks
  so ``status`` can tell failed from pending.
* **Timeouts** — ``point_timeout_s`` bounds each attempt; a hung
  worker (pool or serial) is abandoned and the attempt retried.
* **Degradation** — a broken process pool (killed worker) downgrades
  the remaining points to serial execution instead of aborting the
  campaign.
* **Storage faults** — all store/lease I/O flows through a
  :class:`~repro.campaign.storage.StorageDriver` with bounded retries
  and seeded-jitter backoff; when writes fail *persistently* the
  runner degrades to read-only serving under ``allow_partial`` —
  remaining points compute (and are returned) without checkpointing,
  and lease coordination is bypassed so the run still converges —
  instead of wedging or losing the partial results.

Every stored point carries the provenance the engines already stamp on
their results — spectral ``backend``, ``noise_mode``/``noise_version``
— plus the host backend-calibration schema, so a store can be audited
long after the run: which physics produced each number is in the
record, not in the operator's memory.
"""

from __future__ import annotations

import contextlib
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.campaign.leases import (
    DEFAULT_TTL_S,
    HeartbeatThread,
    LeaseManager,
)
from repro.campaign.retry import RetryPolicy, call_with_timeout
from repro.campaign.spec import CampaignPoint, CampaignSpec
from repro.campaign.store import CampaignStore
from repro.channel.deployment import Deployment, paper_deployment
from repro.core.config import NetScatterConfig
from repro.errors import (
    CampaignExecutionError,
    ConfigurationError,
    PersistentStorageError,
    PointTimeoutError,
    ReproError,
    require_integer,
    require_seconds,
)
from repro.protocol.network import NetworkMetrics, run_sweep_point
from repro.utils import parallel

log = logging.getLogger("repro.campaign.runner")


def build_deployment(
    descriptor: Dict[str, object], n_devices: Optional[int] = None
) -> Deployment:
    """Build the first ``n_devices`` of the deployment a descriptor names.

    The descriptor names the *full* deployment (and so fixes every
    content hash); ``n_devices=None`` builds all of it. A prefix is
    bit-identical to ``subset(n_devices)`` of the full build because
    device *i* depends only on the generator's draws up to its own (see
    :func:`~repro.channel.deployment.generate_office_deployment`), so a
    point never pays for the devices it does not simulate.

    >>> descriptor = {"kind": "paper", "n_devices": 8, "seed": 3}
    >>> prefix = build_deployment(descriptor, n_devices=3)
    >>> full = build_deployment(descriptor).subset(3)
    >>> list(prefix.snrs_db()) == list(full.snrs_db())
    True
    """
    kind = descriptor.get("kind")
    if kind != "paper":
        raise ConfigurationError(f"unknown deployment kind {kind!r}")
    total = int(descriptor["n_devices"])
    if n_devices is None:
        n_devices = total
    elif not 1 <= n_devices <= total:
        raise ReproError(
            f"subset size must be in [1, {total}], got {n_devices}"
        )
    return paper_deployment(n_devices=n_devices, rng=int(descriptor["seed"]))


def _calibration_schema() -> str:
    """The backend-calibration schema in force (stored as provenance)."""
    from repro.phy import backend_plan

    return backend_plan._SCHEMA


def execute_point(point: CampaignPoint) -> Tuple[Dict, Dict]:
    """Run one campaign point; returns ``(metrics_dict, provenance)``.

    Module-level (and taking only the picklable point) so process pools
    can ship it. The descriptor names the full deployment, but only the
    prefix the point simulates is built — bit-identical to the full
    build's ``subset(point.n_devices)`` — and
    :func:`~repro.protocol.network.run_sweep_point`, the construction
    ``sweep_device_counts`` runs too, simulates it from the point's
    stored seed.
    """
    metrics = run_sweep_point(
        build_deployment(dict(point.deployment), point.n_devices),
        point.n_rounds,
        config=NetScatterConfig(**dict(point.config)),
        query_bits=point.query_bits,
        rng=np.random.default_rng(point.seed),
        engine=point.engine,
        noise_mode=point.noise_mode,
        fading=point.fading,
    )
    provenance = {
        "backend": metrics.backend,
        "noise_mode": metrics.noise_mode,
        "noise_version": metrics.noise_version,
        "calibration_schema": _calibration_schema(),
    }
    return asdict(metrics), provenance


def check_workers(workers: Optional[int]) -> None:
    """Refuse a ``workers=`` request that is not ``None`` or an
    integer >= 0, before a store or a pool is made."""
    if workers is not None:
        require_integer("workers", workers, 0)


def resolve_pool_workers(workers: Optional[int]) -> int:
    """Effective process-pool size for a ``workers=`` request.

    Returns the number of pool workers to actually spawn, where ``0``
    means "run serially in this process, no pool at all". The pinned
    rules (regression-tested in ``tests/test_campaign.py``):

    * ``None``, ``0`` or ``1`` → serial (a 1-worker pool only adds
      pickling overhead); a negative or fractional request is a
      :class:`~repro.errors.ConfigurationError`;
    * any request where only one CPU is usable
      (:func:`repro.utils.parallel.usable_cpus`) →
      serial — a pool cannot run points concurrently there, so spawning
      one would pay process start-up and pickling for nothing;
    * otherwise the request is honoured as given (deliberate
      oversubscription stays possible on multi-core hosts); the pool
      phase caps it at the points it claims, since a pool forks all its
      workers up front.

    Results never depend on the outcome: every campaign point owns a
    pre-derived seed, so serial and pooled runs are identical.
    """
    check_workers(workers)
    if workers is None or workers <= 1 or parallel.usable_cpus() <= 1:
        return 0
    return int(workers)


def _pool_execute(point: CampaignPoint) -> Tuple[Dict, Dict, float]:
    """Pool wrapper: time the execution in the worker."""
    started = time.perf_counter()
    metrics_dict, provenance = execute_point(point)
    return metrics_dict, provenance, time.perf_counter() - started


class _PointFailed(Exception):
    """Internal: a point exhausted its retry budget (carries history)."""

    def __init__(self, attempts: List[Dict[str, object]]):
        super().__init__(attempts[-1]["message"] if attempts else "failed")
        self.attempts = attempts


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a pool whose worker hung or died: never wait on it.

    The worker handles are taken before ``shutdown``, which drops the
    pool's process table (a broken pool may have none left at all).
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - very old signature
        pool.shutdown(wait=False)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - best effort
            pass


@dataclass
class CampaignPointResult:
    """One executed (or cache-served) point of a campaign run."""

    point: CampaignPoint
    metrics: NetworkMetrics
    provenance: Dict[str, object]
    cached: bool
    elapsed_s: float
    attempts: int = 1


@dataclass
class CampaignPointFailure:
    """A point that exhausted its retries (present in ``allow_partial``
    runs; otherwise surfaced as :class:`CampaignExecutionError`)."""

    point: CampaignPoint
    content_hash: str
    attempts: List[Dict[str, object]]


@dataclass
class CampaignRun:
    """Outcome of :meth:`CampaignRunner.run`, in spec point order."""

    spec: CampaignSpec
    results: List[CampaignPointResult]
    failures: List[CampaignPointFailure] = field(default_factory=list)
    #: True when persistent storage-write failure forced the run into
    #: read-only serving (late points computed but not checkpointed).
    storage_degraded: bool = False

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def n_computed(self) -> int:
        return sum(1 for r in self.results if not r.cached)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def metrics(self) -> List[NetworkMetrics]:
        return [r.metrics for r in self.results]


#: Poll cadence while waiting for points another runner holds.
WAIT_POLL_S = 0.1


def check_point_timeout(point_timeout_s: Optional[float]) -> None:
    """Refuse a per-attempt bound that is not ``None`` or a finite number
    of seconds > 0, so a serial and a pooled run bound an attempt alike."""
    if point_timeout_s is not None:
        require_seconds("point_timeout_s", point_timeout_s)


class CampaignRunner:
    """Run campaign specs against an optional persistent store.

    Parameters
    ----------
    store:
        A :class:`CampaignStore`, a path to create one at, or ``None``
        for an ephemeral run (every point computed, nothing persisted).
    workers:
        Process-pool request for the *pending* points, resolved through
        :func:`resolve_pool_workers` (``None``/1-CPU hosts → serial).
    retry:
        :class:`RetryPolicy` for failed attempts (default: 3 attempts,
        seeded-jitter exponential backoff).
    point_timeout_s:
        Per-attempt wall-clock bound; a hung attempt is abandoned and
        retried. ``None`` disables the bound; any other value must be a
        finite number of seconds > 0, so a serial and a pooled run
        bound an attempt alike.
    use_leases / lease_ttl_s / owner:
        With a store, pending points are claimed through lease files so
        concurrent runners partition the work; ``use_leases=False``
        restores the PR-5 single-runner behaviour. Points another
        runner holds are re-polled every :data:`WAIT_POLL_S`; expired
        leases are reclaimed.
    allow_partial:
        When True, permanently-failed points are reported on
        :attr:`CampaignRun.failures` instead of raising
        :class:`~repro.errors.CampaignExecutionError`.
    on_result:
        Optional progress callback ``(index, result)`` invoked from
        the runner thread the moment each point resolves (cache hit or
        fresh computation) — the in-process streaming hook the
        campaign service node uses to publish incremental results.
        Indices arrive in no particular order under a process pool;
        callers needing spec order must reorder. A raising callback is
        logged and ignored: an observer must never corrupt a run.
    """

    def __init__(
        self,
        store: Optional[CampaignStore] = None,
        workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        point_timeout_s: Optional[float] = None,
        use_leases: bool = True,
        lease_ttl_s: float = DEFAULT_TTL_S,
        owner: Optional[str] = None,
        allow_partial: bool = False,
        on_result: Optional[
            Callable[[int, "CampaignPointResult"], None]
        ] = None,
    ) -> None:
        check_point_timeout(point_timeout_s)
        check_workers(workers)
        if store is not None and not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        self._store = store
        self._workers = workers
        self._retry = retry or RetryPolicy()
        self._point_timeout_s = point_timeout_s
        self._use_leases = bool(use_leases) and store is not None
        self._lease_ttl_s = require_seconds("lease_ttl_s", lease_ttl_s)
        self._owner = owner
        self._allow_partial = bool(allow_partial)
        self._on_result = on_result
        self._storage_degraded = False

    @property
    def store(self) -> Optional[CampaignStore]:
        return self._store

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, spec: CampaignSpec) -> CampaignRun:
        """Execute ``spec``: cached points load, pending points run.

        Pending points are claimed (lease protocol), executed in shards
        over the process pool with per-attempt timeouts and retries,
        and checkpointed to the store as each one completes; points
        held by concurrent runners are awaited (and reclaimed if their
        lease expires). The full result list is assembled in spec order
        — returned metrics are independent of pool scheduling, lease
        races, and retry history.
        """
        self._storage_degraded = False
        points = list(spec.points())
        hashes = [point.content_hash() for point in points]
        outcome: Dict[int, CampaignPointResult] = {}
        failures: Dict[int, CampaignPointFailure] = {}
        attempts_done: Dict[int, int] = {}

        pending: List[int] = []
        for index, point in enumerate(points):
            cached = (
                self._cached_result(point)
                if self._store_has(point)
                else None
            )
            if cached is not None:
                self._resolve(outcome, index, cached)
            else:
                pending.append(index)

        leases = (
            LeaseManager(
                self._store.driver,
                owner=self._owner,
                ttl_s=self._lease_ttl_s,
            )
            if self._use_leases
            else None
        )
        heartbeat = (
            HeartbeatThread(leases)
            if leases is not None
            else contextlib.nullcontext()
        )
        try:
            with heartbeat:
                pool_workers = resolve_pool_workers(self._workers)
                if pool_workers and len(pending) > 1:
                    pending = self._pool_phase(
                        points,
                        hashes,
                        pending,
                        pool_workers,
                        outcome,
                        attempts_done,
                        leases,
                    )
                self._serial_phase(
                    points,
                    hashes,
                    pending,
                    outcome,
                    failures,
                    attempts_done,
                    leases,
                )
        finally:
            if leases is not None:
                leases.release_all()

        if failures and not self._allow_partial:
            summary = "; ".join(
                f"{f.content_hash[:12]}… after "
                f"{len(f.attempts)} attempts "
                f"({f.attempts[-1]['error']}: {f.attempts[-1]['message']})"
                for f in failures.values()
            )
            raise CampaignExecutionError(
                f"{len(failures)} campaign point(s) failed permanently: "
                f"{summary}"
            )
        results = [
            outcome[index]
            for index in range(len(points))
            if index in outcome
        ]
        return CampaignRun(
            spec=spec,
            results=results,
            failures=[failures[i] for i in sorted(failures)],
            storage_degraded=self._storage_degraded,
        )

    def _resolve(
        self,
        outcome: Dict[int, CampaignPointResult],
        index: int,
        result: CampaignPointResult,
    ) -> None:
        """Record a resolved point and notify the progress observer."""
        outcome[index] = result
        if self._on_result is not None:
            try:
                self._on_result(index, result)
            except Exception:
                log.exception(
                    "on_result progress callback failed for point %d",
                    index,
                )

    def _cached_result(
        self, point: CampaignPoint, owner: Optional[str] = None
    ) -> Optional[CampaignPointResult]:
        """Load a stored point, or ``None`` when persistent storage
        failure degrades the run mid-read (circuit open, retry budget
        spent) — the caller then recomputes the point instead of
        crashing a partial run. ``owner`` is this run's lease owner,
        once it has one (:meth:`CampaignStore.verify_chunk`)."""
        try:
            payload = self._store.load(point, owner)
        except PersistentStorageError as error:
            self._degrade(error)
            return None
        return CampaignPointResult(
            point=point,
            metrics=NetworkMetrics(**payload["metrics"]),
            provenance=dict(payload["provenance"]),
            cached=True,
            elapsed_s=0.0,
            attempts=0,
        )

    def _pool_phase(
        self,
        points: List[CampaignPoint],
        hashes: List[str],
        pending: List[int],
        pool_workers: int,
        outcome: Dict[int, CampaignPointResult],
        attempts_done: Dict[int, int],
        leases: Optional[LeaseManager],
    ) -> List[int]:
        """First attempt of every claimable point over the pool.

        Returns the indices still unresolved: points another runner
        holds, plus points whose pool attempt crashed, timed out, or
        was aborted by a broken pool — those retry serially with their
        attempt count carried over. A hung or killed worker tears the
        pool down (never waited on); the campaign degrades to serial
        instead of dying.
        """
        claimable: List[int] = []
        deferred: List[int] = []
        for index in pending:
            if leases is None or leases.acquire(hashes[index]):
                claimable.append(index)
            else:
                deferred.append(index)
        if len(claimable) <= 1:
            return sorted(deferred + claimable)

        broken = False
        pool = ProcessPoolExecutor(
            max_workers=min(pool_workers, len(claimable))
        )
        try:
            futures = [
                (index, pool.submit(_pool_execute, points[index]))
                for index in claimable
            ]
            for index, future in futures:
                # A future that finished before the pool broke keeps
                # its result; only the rest go back to the serial path.
                if broken and (
                    not future.done()
                    or future.cancelled()
                    or future.exception() is not None
                ):
                    self._note_attempt_failure(
                        points[index],
                        hashes[index],
                        attempts_done,
                        index,
                        "BrokenProcessPool",
                        "pool torn down after an earlier fault",
                        leases,
                    )
                    deferred.append(index)
                    continue
                try:
                    metrics_dict, provenance, elapsed = future.result(
                        timeout=self._point_timeout_s
                    )
                except FuturesTimeoutError:
                    broken = True
                    _terminate_pool(pool)
                    self._note_attempt_failure(
                        points[index],
                        hashes[index],
                        attempts_done,
                        index,
                        "PointTimeoutError",
                        f"pool attempt exceeded "
                        f"{self._point_timeout_s:g}s",
                        leases,
                    )
                    deferred.append(index)
                except BrokenProcessPool as error:
                    broken = True
                    self._note_attempt_failure(
                        points[index],
                        hashes[index],
                        attempts_done,
                        index,
                        type(error).__name__,
                        str(error) or "process pool broke",
                        leases,
                    )
                    deferred.append(index)
                except Exception as error:
                    self._note_attempt_failure(
                        points[index],
                        hashes[index],
                        attempts_done,
                        index,
                        type(error).__name__,
                        str(error),
                        leases,
                    )
                    deferred.append(index)
                else:
                    self._checkpoint(
                        points[index], metrics_dict, provenance, elapsed
                    )
                    if leases is not None:
                        leases.release(hashes[index])
                    self._resolve(
                        outcome,
                        index,
                        CampaignPointResult(
                            point=points[index],
                            metrics=NetworkMetrics(**metrics_dict),
                            provenance=provenance,
                            cached=False,
                            elapsed_s=elapsed,
                            attempts=1,
                        ),
                    )
        finally:
            if broken:
                _terminate_pool(pool)
            else:
                pool.shutdown(wait=True)
        return sorted(deferred)

    def _note_attempt_failure(
        self,
        point: CampaignPoint,
        content_hash: str,
        attempts_done: Dict[int, int],
        index: int,
        error: str,
        message: str,
        leases: Optional[LeaseManager],
    ) -> None:
        attempts_done[index] = attempts_done.get(index, 0) + 1
        self._record_failure_guarded(
            point,
            [
                {
                    "attempt": attempts_done[index],
                    "error": error,
                    "message": message[:500],
                }
            ],
            status="retrying",
            owner=leases.owner if leases is not None else None,
        )
        if leases is not None:
            leases.release(content_hash)

    def _serial_phase(
        self,
        points: List[CampaignPoint],
        hashes: List[str],
        pending: List[int],
        outcome: Dict[int, CampaignPointResult],
        failures: Dict[int, CampaignPointFailure],
        attempts_done: Dict[int, int],
        leases: Optional[LeaseManager],
    ) -> None:
        """Serial execution + wait loop until every point resolves.

        Each pass claims what it can and executes with retries; points
        held by other runners are re-polled (a finished point loads
        from the store, an expired lease is reclaimed). The loop always
        terminates: every pass either makes progress or sleeps, and a
        dead runner's leases expire within the TTL.
        """
        pending = list(pending)
        owner = leases.owner if leases is not None else None
        while pending:
            progressed = False
            waiting: List[int] = []
            for index in pending:
                point, content_hash = points[index], hashes[index]
                if self._store_has(point, owner):
                    cached = self._cached_result(point, owner)
                    if cached is not None:
                        self._resolve(outcome, index, cached)
                        progressed = True
                        continue
                # Degraded storage bypasses leases: claims go through
                # the same failing driver, so waiting on them would
                # never terminate — recomputation is safe (idempotent
                # points) and the only cost of losing coordination.
                if (
                    leases is not None
                    and not self._storage_degraded
                    and not leases.acquire(content_hash)
                ):
                    waiting.append(index)
                    continue
                if leases is not None and not self._storage_degraded:
                    # The claim can race a finishing runner: between
                    # the pending check above and the successful claim
                    # (which may stall on a slow backend), the holder
                    # can save and release. Re-check under the lease
                    # so the point is never computed twice.
                    if self._store_has(point, owner):
                        cached = self._cached_result(point, owner)
                        if cached is not None:
                            leases.release(content_hash)
                            self._resolve(outcome, index, cached)
                            progressed = True
                            continue
                start_attempt = attempts_done.get(index, 0) + 1
                try:
                    (
                        metrics_dict,
                        provenance,
                        elapsed,
                        n_attempts,
                    ) = self._execute_with_retries(
                        point, content_hash, start_attempt, leases
                    )
                    self._checkpoint(point, metrics_dict, provenance, elapsed)
                    self._resolve(
                        outcome,
                        index,
                        CampaignPointResult(
                            point=point,
                            metrics=NetworkMetrics(**metrics_dict),
                            provenance=provenance,
                            cached=False,
                            elapsed_s=elapsed,
                            attempts=n_attempts,
                        ),
                    )
                except _PointFailed as failed:
                    failures[index] = CampaignPointFailure(
                        point=point,
                        content_hash=content_hash,
                        attempts=failed.attempts,
                    )
                finally:
                    if leases is not None:
                        leases.release(content_hash)
                progressed = True
            pending = waiting
            if pending and not progressed:
                time.sleep(WAIT_POLL_S)

    def _execute_with_retries(
        self,
        point: CampaignPoint,
        content_hash: str,
        start_attempt: int,
        leases: Optional[LeaseManager],
    ) -> Tuple[Dict, Dict, float, int]:
        """One point through the retry loop; raises :class:`_PointFailed`
        once the attempt budget is spent."""
        attempts_record: List[Dict[str, object]] = []
        attempt = start_attempt
        owner = leases.owner if leases is not None else None
        while True:
            started = time.perf_counter()
            try:
                metrics_dict, provenance = call_with_timeout(
                    lambda: execute_point(point),
                    self._point_timeout_s,
                    PointTimeoutError,
                    "point execution",
                )
            except Exception as error:
                elapsed = time.perf_counter() - started
                attempts_record.append(
                    {
                        "attempt": attempt,
                        "error": type(error).__name__,
                        "message": str(error)[:500],
                        "elapsed_s": round(elapsed, 6),
                    }
                )
                # The budget counts *total* attempts on this point in
                # this run, pool attempts included.
                exhausted = attempt >= self._retry.max_attempts
                self._record_failure_guarded(
                    point,
                    attempts_record,
                    status="failed" if exhausted else "retrying",
                    owner=owner,
                )
                if exhausted:
                    raise _PointFailed(attempts_record) from error
                backoff = self._retry.backoff_s(content_hash, attempt)
                attempts_record[-1]["backoff_s"] = round(backoff, 6)
                time.sleep(backoff)
                attempt += 1
                continue
            elapsed = time.perf_counter() - started
            # ``attempt`` is the global (pool + serial) attempt number
            # that succeeded, reported on the result.
            return metrics_dict, provenance, elapsed, attempt

    # ------------------------------------------------------------------ #
    # storage degradation
    # ------------------------------------------------------------------ #

    def _degrade(self, error: Exception) -> None:
        """Handle persistent storage-write failure.

        Under ``allow_partial`` the run switches to read-only serving:
        later points still compute and are returned, but nothing more
        is persisted and leases are bypassed (their claims go through
        the same failing driver). Without ``allow_partial`` the fault
        is surfaced — computed points are already checkpointed, so the
        re-run resumes where this one stopped.
        """
        if not self._allow_partial:
            raise PersistentStorageError(
                f"campaign store writes are failing persistently "
                f"({error}); completed points are checkpointed — re-run "
                f"to resume, or pass allow_partial=True to keep "
                f"computing without persistence"
            ) from error
        if not self._storage_degraded:
            log.warning(
                "storage writes failing persistently (%s); degrading "
                "to read-only serving — remaining points compute "
                "without checkpointing, lease coordination bypassed",
                error,
            )
        self._storage_degraded = True

    def _store_has(
        self, point: CampaignPoint, owner: Optional[str] = None
    ) -> bool:
        if self._store is None:
            return False
        try:
            return self._store.has(point, owner)
        except PersistentStorageError as error:
            self._degrade(error)
            return False

    def _record_failure_guarded(self, point, attempts, status, owner):
        if self._store is None or self._storage_degraded:
            return
        try:
            self._store.record_failure(
                point, attempts, status=status, owner=owner
            )
        except PersistentStorageError as error:
            self._degrade(error)

    def _checkpoint(
        self,
        point: CampaignPoint,
        metrics_dict: Dict,
        provenance: Dict,
        elapsed_s: float,
    ) -> None:
        if self._store is None or self._storage_degraded:
            return
        try:
            self._store.save(
                point, metrics_dict, provenance, elapsed_s=elapsed_s
            )
        except PersistentStorageError as error:
            self._degrade(error)


__all__ = [
    "CampaignPointFailure",
    "CampaignPointResult",
    "CampaignRun",
    "CampaignRunner",
    "build_deployment",
    "execute_point",
    "resolve_pool_workers",
]
