"""Campaign service node: cached sweep/decode requests over HTTP.

The service-node half of the HSDS-style SN/DN split. PR 8's
:class:`~repro.campaign.objectstore.ObjectStoreService` is the data
node — raw bytes in a bucket; this module adds the front end that lets
many simultaneous clients request *computation*: a JSON
:class:`~repro.campaign.spec.CampaignSpec` in, per-point metrics
streamed out, with every already-computed point answered straight from
the backing :class:`~repro.campaign.store.CampaignStore` (sha256
content hashes are the read-through cache key — zero recompute), and
identical in-flight requests deduplicated so N concurrent clients
asking for the same spec trigger exactly one
:class:`~repro.campaign.runner.CampaignRunner` execution.

Wire protocol (NDJSON over chunked HTTP/1.1)
============================================

========================  =============================================
``POST /campaigns``       body ``{"spec": {...}}`` (or a bare spec
                          dict); streams newline-delimited JSON
                          events: one ``accepted`` line, one ``point``
                          line per resolved point *in spec order*, a
                          ``failed`` line per permanently-failed
                          point, then one ``done`` summary line.
                          ``X-Repro-Campaign-Id`` names the campaign;
                          ``X-Repro-Campaign-Created`` is ``1`` for
                          the request that started the execution and
                          ``0`` for deduplicated joiners.
``GET /campaigns``        ``{"campaigns": [status, ...]}``
``GET /campaigns/<id>/status``  one campaign's live status snapshot
``GET /healthz``          service health + dedup/disconnect counters
========================  =============================================

Determinism contract: ``accepted`` and ``point`` lines carry only
deterministic fields (event, index, content hash, metrics, provenance
— never elapsed times, attempt counts, or cache-hit flags), are
serialised canonically (sorted keys, compact separators), and are
published in strict spec-index order through a reorder buffer. Every
subscriber of one execution therefore reads a byte-identical stream,
and a cold run's point lines equal a warm (fully cached) run's point
lines. Volatile counters — ``points_computed``, ``points_cached`` —
live in the ``done`` line and the status endpoint.

Dedup: the campaign id is the sha256 of the canonical spec JSON
(:func:`campaign_id_for`). A ``POST`` whose id matches a live
execution subscribes to it instead of starting a second runner; a
match on a *finished* execution starts a fresh runner, which serves
every point from the store's cache (``points_computed == 0``).

Backpressure: one shared ordered event log per execution with
per-subscriber cursors. The publisher blocks while the slowest live
subscriber lags :data:`MAX_BACKLOG` events or more; a subscriber that
stays that far behind for :data:`STALL_TIMEOUT_S` is dropped (it receives
an ``error`` event) so one stalled client can never wedge the shared
computation. A client disconnecting mid-stream merely unsubscribes —
the runner thread is independent of every handler thread.

Recovery: a client whose stream is cut before the ``done`` line —
for a computation that *landed* — re-submits, and the cache answers
it. The tests drive that path, and refused or 503-answered requests,
through a handler subclass in the test harness (``tests/chaos.py``).

Doctest — the dedup key is invariant under JSON key order:

>>> from repro.campaign.presets import fig17_campaign
>>> from repro.campaign.service import campaign_id_for
>>> spec = fig17_campaign(rng=0, device_counts=(1, 2), n_rounds=1)
>>> forward = spec.to_dict()
>>> shuffled = dict(reversed(list(forward.items())))
>>> campaign_id_for(forward) == campaign_id_for(shuffled)
True
>>> len(campaign_id_for(forward))
64
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import asdict
from typing import Callable, Dict, List, Mapping, Optional, Tuple
from urllib.parse import urlsplit

from repro.campaign.objectstore import (
    DISCONNECT_ERRORS,
    DisconnectTolerantHTTPServer,
    HttpService,
    HttpServiceHandler,
)
from repro.campaign.runner import (
    CampaignPointResult,
    CampaignRunner,
    check_point_timeout,
    check_workers,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.errors import CampaignServiceError, ReproError

#: Response headers naming the campaign and whether this request
#: started the execution (vs joining a deduplicated one).
CAMPAIGN_ID_HEADER = "X-Repro-Campaign-Id"
CREATED_HEADER = "X-Repro-Campaign-Created"


def _canonical(payload) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _event_line(payload: Mapping[str, object]) -> bytes:
    """One canonical NDJSON event line (the byte-identity unit)."""
    return _canonical(payload) + b"\n"


def campaign_id_for(spec_dict: Mapping[str, object]) -> str:
    """The dedup/cache key of a campaign: sha256 of its canonical JSON.

    Key order never matters (canonical serialisation sorts); any value
    change yields a different id, exactly like point content hashes.
    """
    return hashlib.sha256(_canonical(spec_dict)).hexdigest()


#: Events the slowest live subscriber may lag before the publisher waits.
MAX_BACKLOG = 256
#: Seconds a subscriber may stay :data:`MAX_BACKLOG` behind before it is
#: dropped.
STALL_TIMEOUT_S = 30.0


class CampaignExecution:
    """One running (or finished) campaign with a shared event stream.

    The runner thread publishes deterministic ``point`` events in
    strict spec-index order into one append-only log; each subscriber
    reads through its own cursor. See the module docstring for the
    backpressure and determinism contracts.
    """

    def __init__(
        self,
        campaign_id: str,
        spec: CampaignSpec,
        runner_factory: Callable[
            [Callable[[int, CampaignPointResult], None]], CampaignRunner
        ],
    ) -> None:
        self.campaign_id = campaign_id
        self.spec = spec
        self._runner_factory = runner_factory
        self._hashes = [p.content_hash() for p in spec.points()]
        self._n_points = len(self._hashes)
        self.accepted_line = _event_line(
            {
                "event": "accepted",
                "campaign_id": campaign_id,
                "name": spec.name,
                "n_points": self._n_points,
            }
        )
        self._cond = threading.Condition()
        self._events: List[bytes] = []
        self._cursors: Dict[int, int] = {}
        self._dropped: set = set()
        self._next_subscriber = 0
        self._buffer: Dict[int, bytes] = {}
        self._next_index = 0
        self._points_computed = 0
        self._points_cached = 0
        self._points_failed = 0
        self._state = "running"
        self._done = False
        self._summary: Optional[Dict[str, object]] = None
        self._summary_line: Optional[bytes] = None
        self._started = time.monotonic()
        self._elapsed_s: Optional[float] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # runner side
    # ------------------------------------------------------------------ #

    def start(self) -> "CampaignExecution":
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-campaign-{self.campaign_id[:12]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        summary: Dict[str, object]
        try:
            runner = self._runner_factory(self._on_result)
            run = runner.run(self.spec)
        except Exception as error:  # noqa: BLE001 - reported, not lost
            with self._cond:
                self._state = "failed"
                summary = {
                    "event": "done",
                    "status": "failed",
                    "campaign_id": self.campaign_id,
                    "error": f"{type(error).__name__}: {error}",
                }
        else:
            with self._cond:
                for index, failure in self._failed_indices(run).items():
                    last = (
                        failure.attempts[-1] if failure.attempts else {}
                    )
                    self._buffer.setdefault(
                        index,
                        _event_line(
                            {
                                "event": "failed",
                                "index": index,
                                "content_hash": failure.content_hash,
                                "error": last.get("error", "?"),
                                "message": last.get("message", "?"),
                            }
                        ),
                    )
                self._drain_locked(force=True)
                self._points_failed = run.n_failed
                self._state = (
                    "partial" if run.failures else "complete"
                )
                summary = {
                    "event": "done",
                    "status": self._state,
                    "campaign_id": self.campaign_id,
                    "n_points": self._n_points,
                    "points_computed": run.n_computed,
                    "points_cached": run.n_cached,
                    "points_failed": run.n_failed,
                    "storage_degraded": run.storage_degraded,
                }
        with self._cond:
            self._summary = summary
            self._summary_line = _event_line(summary)
            self._elapsed_s = time.monotonic() - self._started
            self._done = True
            self._cond.notify_all()

    def _failed_indices(self, run) -> Dict[int, object]:
        by_hash = {f.content_hash: f for f in run.failures}
        return {
            index: by_hash[content_hash]
            for index, content_hash in enumerate(self._hashes)
            if content_hash in by_hash
        }

    def _on_result(self, index: int, result: CampaignPointResult) -> None:
        # Only deterministic fields: a cold computation and a warm
        # cache hit must produce the same bytes (module docstring).
        line = _event_line(
            {
                "event": "point",
                "index": index,
                "content_hash": self._hashes[index],
                "metrics": asdict(result.metrics),
                "provenance": dict(result.provenance),
            }
        )
        with self._cond:
            if result.cached:
                self._points_cached += 1
            else:
                self._points_computed += 1
            self._buffer[index] = line
            self._drain_locked()

    def _drain_locked(self, force: bool = False) -> None:
        # Publish buffered lines in strict index order. ``force``
        # (completion) flushes past gaps left by failed points whose
        # ``failed`` lines were just buffered — order is still by
        # index.
        if force:
            for index in sorted(self._buffer):
                if index >= self._next_index:
                    self._publish_locked(self._buffer[index])
            self._buffer.clear()
            self._next_index = self._n_points
            return
        while self._next_index in self._buffer:
            self._publish_locked(self._buffer.pop(self._next_index))
            self._next_index += 1

    def _publish_locked(self, line: bytes) -> None:
        # Backpressure: wait for the slowest live subscriber, dropping
        # any that stay >= MAX_BACKLOG behind for STALL_TIMEOUT_S.
        deadline = time.monotonic() + STALL_TIMEOUT_S
        while self._cursors and (
            len(self._events) - min(self._cursors.values())
            >= MAX_BACKLOG
        ):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for subscriber in [
                    s
                    for s, cursor in self._cursors.items()
                    if len(self._events) - cursor >= MAX_BACKLOG
                ]:
                    del self._cursors[subscriber]
                    self._dropped.add(subscriber)
                self._cond.notify_all()
                break
            self._cond.wait(remaining)
        self._events.append(line)
        self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # subscriber side
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        with self._cond:
            return self._done

    def subscribe(self) -> int:
        with self._cond:
            token = self._next_subscriber
            self._next_subscriber += 1
            self._cursors[token] = 0
            return token

    def unsubscribe(self, token: int) -> None:
        with self._cond:
            self._cursors.pop(token, None)
            self._dropped.discard(token)
            self._cond.notify_all()  # a waiting publisher may proceed

    def next_event(self, token: int) -> Optional[bytes]:
        """The subscriber's next event line; ``None`` once the stream
        is complete and fully drained. Raises
        :class:`~repro.errors.CampaignServiceError` for a subscriber
        dropped by the backpressure policy."""
        with self._cond:
            while True:
                if token in self._dropped:
                    self._dropped.discard(token)
                    raise CampaignServiceError(
                        f"subscriber fell more than "
                        f"{MAX_BACKLOG} events behind campaign "
                        f"{self.campaign_id[:12]} and was dropped"
                    )
                cursor = self._cursors.get(token)
                if cursor is None:
                    raise CampaignServiceError("not subscribed")
                if cursor < len(self._events):
                    line = self._events[cursor]
                    self._cursors[token] = cursor + 1
                    self._cond.notify_all()  # publisher may unblock
                    return line
                if self._done:
                    return None
                self._cond.wait(0.1)

    def summary_line(self) -> bytes:
        """The ``done`` line, built exactly once at completion — every
        subscriber of this execution streams identical bytes."""
        with self._cond:
            if self._summary_line is None:
                raise CampaignServiceError(
                    f"campaign {self.campaign_id[:12]} still running"
                )
            return self._summary_line

    def status_snapshot(self) -> Dict[str, object]:
        with self._cond:
            points_done = self._points_computed + self._points_cached
            snapshot: Dict[str, object] = {
                "campaign_id": self.campaign_id,
                "name": self.spec.name,
                "state": self._state,
                "n_points": self._n_points,
                "points_done": points_done,
                "points_computed": self._points_computed,
                "points_cached": self._points_cached,
                "points_failed": self._points_failed,
                "n_subscribers": len(self._cursors),
                "n_dropped_subscribers": len(self._dropped),
            }
            if self._elapsed_s is not None:
                snapshot["elapsed_s"] = round(self._elapsed_s, 6)
            return snapshot


class _CampaignHTTPServer(DisconnectTolerantHTTPServer):
    # Handler threads may sit in a blocking stream for the lifetime of
    # a campaign; never make server_close wait on them (they are
    # daemons and executions are bounded).
    block_on_close = False


class _ServiceHandler(HttpServiceHandler):
    server_version = "repro-campaign-service/1"
    json_headers = {"Content-Type": "application/json"}

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self.close_connection = True
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/campaigns":
            self._send_json(404, {"error": f"unknown path {path!r}"})
            return
        length = int(self.headers.get("Content-Length", 0) or 0)
        body = self.rfile.read(length) if length else b""
        if len(body) != length:
            self._send_json(400, {"error": "truncated request body"})
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except ValueError as error:
            self._send_json(
                400, {"error": f"malformed JSON body: {error}"}
            )
            return
        spec_dict = (
            payload.get("spec", payload)
            if isinstance(payload, dict)
            else None
        )
        if not isinstance(spec_dict, dict):
            self._send_json(
                400,
                {"error": "campaign request must be a JSON object"},
            )
            return
        try:
            execution, created = self.service.submit(spec_dict)
        except ReproError as error:
            self._send_json(
                400, {"error": f"{type(error).__name__}: {error}"}
            )
            return
        self._stream(execution, created)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self.close_connection = True
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/healthz":
            self._send_json(200, self.service.healthz())
            return
        if path == "/campaigns":
            self._send_json(
                200, {"campaigns": self.service.list_campaigns()}
            )
            return
        segments = path.lstrip("/").split("/")
        if (
            len(segments) in (2, 3)
            and segments[0] == "campaigns"
            and (len(segments) == 2 or segments[2] == "status")
        ):
            campaign_id = segments[1]
            snapshot = self.service.campaign_status(campaign_id)
            if snapshot is None:
                self._send_json(
                    404,
                    {"error": f"unknown campaign {campaign_id!r}"},
                )
                return
            self._send_json(200, snapshot)
            return
        self._send_json(404, {"error": f"unknown path {path!r}"})

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(
            f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n"
        )
        self.wfile.flush()

    def _stream(self, execution: CampaignExecution, created: bool) -> None:
        token = execution.subscribe()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header(CAMPAIGN_ID_HEADER, execution.campaign_id)
            self.send_header(CREATED_HEADER, "1" if created else "0")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            self._write_chunk(execution.accepted_line)
            while True:
                line = execution.next_event(token)
                if line is None:
                    break
                self._write_chunk(line)
            self._write_chunk(execution.summary_line())
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except DISCONNECT_ERRORS + (OSError,) as error:
            # This subscriber hung up; the shared execution continues.
            self.service.note_client_disconnect(
                self.client_address, error
            )
            self.close_connection = True
        except CampaignServiceError as error:
            # Dropped by the backpressure policy: tell the client (it
            # re-submits and replays from the cache-backed log).
            try:
                self._write_chunk(
                    _event_line({"event": "error", "error": str(error)})
                )
                self.wfile.write(b"0\r\n\r\n")
                self.wfile.flush()
            except OSError:
                pass
        finally:
            execution.unsubscribe(token)


class CampaignService(HttpService):
    """HTTP campaign service node over a :class:`CampaignStore`.

    In-process for tests (``with CampaignService() as service:``) and
    behind ``python -m repro.campaign serve-api`` for deployments.
    ``store`` is a :class:`CampaignStore`, a posix root path, or
    ``None`` for an ephemeral in-memory store — any
    :class:`~repro.campaign.storage.StorageDriver`-backed store works,
    including ``http://`` drivers pointing at a remote object-store
    data node. Runner knobs (``workers``, ``retry``,
    ``point_timeout_s``, ``use_leases``, ``allow_partial``) configure
    the one :class:`CampaignRunner` each distinct spec gets.
    ``allow_partial`` defaults to True: a
    permanently-failed point becomes a ``failed`` event and a
    ``partial`` summary instead of killing every subscriber's stream.
    """

    handler = _ServiceHandler
    thread_name = "repro-campaign-service"
    server_class = _CampaignHTTPServer

    def __init__(
        self,
        store=None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: Optional[int] = None,
        retry=None,
        point_timeout_s: Optional[float] = None,
        use_leases: bool = True,
        allow_partial: bool = True,
    ) -> None:
        check_point_timeout(point_timeout_s)
        check_workers(workers)
        if store is None:
            from repro.campaign.storage import MemoryDriver

            store = CampaignStore(driver=MemoryDriver())
        elif not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        super().__init__(host, port)
        self._store = store
        self._workers = workers
        self._retry = retry
        self._point_timeout_s = point_timeout_s
        self._use_leases = bool(use_leases)
        self._allow_partial = bool(allow_partial)
        self._lock = threading.Lock()
        self._executions: Dict[str, CampaignExecution] = {}
        self._n_submitted = 0
        self._n_deduped = 0

    @property
    def store(self) -> CampaignStore:
        return self._store

    # ------------------------------------------------------------------ #
    # campaign registry (dedup)
    # ------------------------------------------------------------------ #

    def _runner_factory(
        self, on_result: Callable[[int, CampaignPointResult], None]
    ) -> CampaignRunner:
        kwargs = {}
        if self._retry is not None:
            kwargs["retry"] = self._retry
        return CampaignRunner(
            store=self._store,
            workers=self._workers,
            point_timeout_s=self._point_timeout_s,
            use_leases=self._use_leases,
            allow_partial=self._allow_partial,
            on_result=on_result,
            **kwargs,
        )

    def submit(
        self, spec_dict: Mapping[str, object]
    ) -> Tuple[CampaignExecution, bool]:
        """Validate the spec and return ``(execution, created)``.

        ``created`` is False when the request joined a live execution
        of the identical spec (the dedup path). A finished execution
        is re-run — which answers entirely from the content-hash cache.
        """
        spec = CampaignSpec.from_dict(spec_dict)
        campaign_id = campaign_id_for(spec.to_dict())
        with self._lock:
            self._n_submitted += 1
            existing = self._executions.get(campaign_id)
            if existing is not None and not existing.done:
                self._n_deduped += 1
                return existing, False
            execution = CampaignExecution(
                campaign_id, spec, self._runner_factory
            )
            self._executions[campaign_id] = execution
        execution.start()
        return execution, True

    def campaign_status(
        self, campaign_id: str
    ) -> Optional[Dict[str, object]]:
        with self._lock:
            execution = self._executions.get(campaign_id)
        return (
            execution.status_snapshot() if execution is not None else None
        )

    def list_campaigns(self) -> List[Dict[str, object]]:
        with self._lock:
            executions = sorted(
                self._executions.values(), key=lambda e: e.campaign_id
            )
        return [e.status_snapshot() for e in executions]

    def healthz(self) -> Dict[str, object]:
        with self._lock:
            executions = list(self._executions.values())
            n_submitted = self._n_submitted
            n_deduped = self._n_deduped
        in_flight = sum(1 for e in executions if not e.done)
        return {
            "status": "ok",
            "campaigns_total": len(executions),
            "campaigns_in_flight": in_flight,
            "n_submitted": n_submitted,
            "n_deduped": n_deduped,
            "n_client_disconnects": self.n_client_disconnects,
            "store": self._store.driver.name,
        }


__all__ = [
    "CAMPAIGN_ID_HEADER",
    "CREATED_HEADER",
    "CampaignExecution",
    "CampaignService",
    "campaign_id_for",
]
