"""Remote object-store driver + hermetic HTTP object-store service.

The network half of the storage layer: :class:`HttpDriver` speaks a
minimal S3-style REST protocol to :class:`ObjectStoreService` (a
``ThreadingHTTPServer`` over any local :class:`~repro.campaign.storage.
StorageDriver`), so campaign state — chunks, leases, failures,
quarantine, manifest — spans hosts behind the same
:class:`~repro.campaign.storage.StorageDriver` contract the posix and
memory backends honour. The service runs in-process for tests and as
``python -m repro.campaign serve`` for real deployments; HSDS's
``storUtil`` pluggable posix/S3/Azure split is the model.

Wire protocol (single bucket, keys are driver keys)
===================================================

========================  =============================================
``GET /b/<key>``          body + ``ETag``/``X-Repro-Sha256`` (sha256
                          hex of the body); 404 when absent
``PUT /b/<key>``          commit body; ``X-Repro-Op`` selects
                          ``put_atomic`` vs ``replace``; with
                          ``If-None-Match: *`` it is ``put_exclusive``
                          (201 created, 412 when the key exists);
                          request carries ``X-Repro-Sha256``, the
                          response echoes the committed ``ETag``
``DELETE /b/<key>``       idempotent; ``X-Repro-Deleted: 1|0``
``HEAD /b/<key>``         ``exists``/``stat``: ``X-Repro-Size`` +
                          ``X-Repro-Mtime``; 404 when absent
``GET /b?list=1&prefix=`` sorted key list as JSON
``POST /b/<key>`` +       atomic ``rename`` (the quarantine
``X-Repro-Rename-To``     primitive); 404 when the source is absent
========================  =============================================

Every request names its driver operation in ``X-Repro-Op``; the
service refuses one that names none (400) before it touches the store.

Integrity is end-to-end: both directions carry ``X-Repro-Sha256`` and
both sides verify it before trusting a byte — a mismatch (bit rot,
truncation, a proxy mangling the body) surfaces as
:class:`~repro.errors.TransientStorageError`, so the retrying wrapper
re-fetches before the store's quarantine machinery ever escalates.
``ETag`` *is* the content sha256, which makes ``replace`` a
write-plus-read-back in one round trip: the response ETag must equal
the sha of what was sent, or the write is retried (idempotent). The
lease protocol (:mod:`repro.campaign.leases`) therefore works
unchanged across hosts: ``put_exclusive`` maps to the conditional PUT,
steal stays replace-then-read-back.

Consistency assumptions: the service commits through one local driver,
so reads-after-write and read-your-writes hold (what the lease
read-back requires). The ``stale_read`` fault kind exists precisely to
violate that on purpose in tests — it serves the *previous* committed
state once, emulating an eventually-consistent backend.

Chaos harness: the object-store handler is the ``objectstore``
consumer of a seeded :class:`~repro.campaign.faults.FaultPlan` — it
fires the network kinds (``refuse``, ``http_error``, ``disconnect``,
``delay``, and ``stale_read`` on reads) *server-side*, while the same
plan's disk kinds drive the client-side ``FaultyDriver``; each
consumer fires only its own kinds. ``disconnect`` performs the
operation and then truncates the response mid-body — the client sees
a failure for a write that *landed*, the eventually-landing-write case
the lease read-back reconciles.

Circuit breaker (:class:`CircuitBreakerDriver`, stacked under the
store's ``RetryingDriver``) state machine::

    closed --(FAILURE_THRESHOLD consecutive faults)--> open
    open   --(RESET_AFTER_S elapsed)----------------> half-open
    half-open --probe succeeds--> closed
    half-open --probe fails-----> open (timer restarts)

While open every call fails fast with :class:`~repro.errors.
CircuitOpenError` (a :class:`~repro.errors.PersistentStorageError`),
which the campaign runner's ``allow_partial`` read-only degradation
path absorbs — a dead endpoint degrades the run instead of hanging it.

Doctest — the contract over a live in-process server:

>>> from repro.campaign.objectstore import HttpDriver, ObjectStoreService
>>> with ObjectStoreService() as service:
...     driver = HttpDriver(service.url)
...     driver.put_atomic("points/a.json", b'{"x": 1}')
...     driver.get("points/a.json")
...     driver.put_exclusive("leases/a.lease", b"owner-1")
...     driver.put_exclusive("leases/a.lease", b"owner-2")
...     driver.list("points/")
b'{"x": 1}'
True
False
['points/a.json']
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, quote, unquote, urlsplit

from repro.campaign.faults import DRIVER_OPS, FaultPlan, FaultSelector
from repro.campaign.storage import (
    MemoryDriver,
    StorageDriver,
    StorageStat,
    WrappingDriver,
    _check_key,
)
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    PersistentStorageError,
    StorageMissingError,
    TransientStorageError,
)

#: Integrity / protocol headers (both directions where applicable).
SHA_HEADER = "X-Repro-Sha256"
OP_HEADER = "X-Repro-Op"
RENAME_HEADER = "X-Repro-Rename-To"
SIZE_HEADER = "X-Repro-Size"
MTIME_HEADER = "X-Repro-Mtime"
DELETED_HEADER = "X-Repro-Deleted"
PERSISTENT_HEADER = "X-Repro-Persistent"


log = logging.getLogger("repro.campaign.objectstore")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def transient_status_error(
    status: int, retry_after: Optional[str], message: str
) -> Optional[TransientStorageError]:
    """The error a 5xx or 429 response maps to, or ``None`` for any
    other status (which the caller interprets as an answer).

    Shared by :class:`HttpDriver` and the campaign service client. A
    numeric ``Retry-After`` rides along as the error's
    ``retry_after_s`` hint; any other form — an HTTP-date is valid
    under RFC 9110 — counts as no hint.

    >>> transient_status_error(404, None, "get") is None
    True
    >>> transient_status_error(503, "2", "get").retry_after_s
    2.0
    >>> print(transient_status_error(
    ...     503, "Wed, 21 Oct 2015 07:28:00 GMT", "get").retry_after_s)
    None
    """
    if status < 500 and status != 429:
        return None
    try:
        hint = float(retry_after) if retry_after else None
    except ValueError:
        hint = None
    return TransientStorageError(message, retry_after_s=hint)


#: Socket timeout of each :class:`HttpDriver` request.
HTTP_TIMEOUT_S = 10.0


class HttpDriver(StorageDriver):
    """Remote :class:`~repro.campaign.storage.StorageDriver` over the
    object-store wire protocol (see the module docstring).

    One short-lived connection per operation: simple, thread-safe, and
    robust to the server-side disconnect faults the chaos harness
    injects (a poisoned keep-alive connection can never leak across
    operations). Transport failures — refused connections, resets,
    truncated bodies, timeouts, 5xx responses — all surface as
    :class:`~repro.errors.TransientStorageError` for the retrying
    wrapper; a ``Retry-After`` header rides along as the error's
    ``retry_after_s`` hint.
    """

    name = "http"

    def __init__(self, url: str) -> None:
        super().__init__()
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise ConfigurationError(
                f"HttpDriver needs an http(s)://host[:port]/bucket "
                f"URL, got {url!r}"
            )
        bucket = parts.path.strip("/")
        if not parts.netloc or not bucket or "/" in bucket:
            raise ConfigurationError(
                f"HttpDriver needs exactly one bucket path segment, "
                f"got {url!r}"
            )
        self._scheme = parts.scheme
        self._netloc = parts.netloc
        self._bucket = bucket
        self.spec = f"{parts.scheme}://{parts.netloc}/{bucket}"
        self.name = f"http({parts.netloc}/{bucket})"

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    def _path(self, key: str = "", query: str = "") -> str:
        path = "/" + quote(self._bucket, safe="")
        if key:
            path += "/" + quote(key, safe="/")
        if query:
            path += "?" + query
        return path

    def _request(
        self,
        method: str,
        op: str,
        key: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        conn_cls = (
            HTTPSConnection if self._scheme == "https" else HTTPConnection
        )
        conn = conn_cls(self._netloc, timeout=HTTP_TIMEOUT_S)
        sent = dict(headers or {})
        sent[OP_HEADER] = op
        if body is not None:
            sent[SHA_HEADER] = _sha256(body)
        try:
            conn.request(method, path, body=body, headers=sent)
            response = conn.getresponse()
            data = response.read()
            got = {k.lower(): v for k, v in response.getheaders()}
        except (HTTPException, OSError) as error:
            # Refused/reset connections, timeouts, truncated bodies
            # (IncompleteRead), and torn status lines all land here.
            self._record(op, error=True)
            raise TransientStorageError(
                f"{op}({key!r}) over {self.spec}: "
                f"{type(error).__name__}: {error}"
            ) from error
        finally:
            conn.close()
        error = transient_status_error(
            response.status,
            got.get("retry-after"),
            f"{op}({key!r}) over {self.spec}: HTTP {response.status} "
            f"{data[:200].decode('utf-8', 'replace')}",
        )
        if error is not None:
            self._record(op, error=True)
            raise error
        return response.status, got, data

    def _verify(self, op: str, key: str, data: bytes, claimed: str) -> None:
        if claimed and _sha256(data) != claimed:
            self._record(op, error=True)
            raise TransientStorageError(
                f"{op}({key!r}): body sha256 disagrees with the "
                f"{SHA_HEADER} header (corrupt or truncated transfer)"
            )

    def _unexpected(self, op: str, key: str, status: int, body: bytes):
        self._record(op, error=True)
        raise PersistentStorageError(
            f"{op}({key!r}) over {self.spec}: unexpected HTTP "
            f"{status} {body[:200].decode('utf-8', 'replace')}"
        )

    # ------------------------------------------------------------------ #
    # contract
    # ------------------------------------------------------------------ #

    def get(self, key: str) -> bytes:
        _check_key(key)
        status, headers, data = self._request(
            "GET", "get", key, self._path(key)
        )
        if status == 404:
            self._record("get", error=True)
            raise StorageMissingError(f"no value at {key!r}")
        if status != 200:
            self._unexpected("get", key, status, data)
        self._verify("get", key, data, headers.get(SHA_HEADER.lower(), ""))
        self._record("get", read=len(data))
        return data

    def _put(self, op: str, key: str, data: bytes) -> None:
        _check_key(key)
        status, headers, body = self._request(
            "PUT", op, key, self._path(key), body=data
        )
        if status not in (200, 201):
            self._unexpected(op, key, status, body)
        etag = headers.get("etag", "").strip('"')
        if etag != _sha256(data):
            # The committed content must be what was sent: ETag is the
            # write's read-back. A mismatch (or a truncated response
            # that lost the header) retries the idempotent write.
            self._record(op, error=True)
            raise TransientStorageError(
                f"{op}({key!r}): committed ETag {etag!r} disagrees "
                f"with the sent payload"
            )
        self._record(op, wrote=len(data))

    def put_atomic(self, key: str, data: bytes) -> None:
        self._put("put_atomic", key, data)

    def replace(self, key: str, data: bytes) -> None:
        self._put("replace", key, data)

    def put_exclusive(self, key: str, data: bytes) -> bool:
        _check_key(key)
        status, headers, body = self._request(
            "PUT",
            "put_exclusive",
            key,
            self._path(key),
            body=data,
            headers={"If-None-Match": "*"},
        )
        if status == 412:
            self._record("put_exclusive")
            return False
        if status != 201:
            self._unexpected("put_exclusive", key, status, body)
        etag = headers.get("etag", "").strip('"')
        if etag != _sha256(data):
            self._record("put_exclusive", error=True)
            raise TransientStorageError(
                f"put_exclusive({key!r}): committed ETag disagrees "
                f"with the sent payload"
            )
        self._record("put_exclusive", wrote=len(data))
        return True

    def delete(self, key: str) -> bool:
        _check_key(key)
        status, headers, body = self._request(
            "DELETE", "delete", key, self._path(key)
        )
        self._record("delete")
        if status != 200:
            self._unexpected("delete", key, status, body)
        return headers.get(DELETED_HEADER.lower()) == "1"

    def list(self, prefix: str = "") -> List[str]:
        self._record("list")
        status, headers, data = self._request(
            "GET",
            "list",
            prefix,
            self._path(query=f"list=1&prefix={quote(prefix, safe='')}"),
        )
        if status != 200:
            self._unexpected("list", prefix, status, data)
        self._verify("list", prefix, data, headers.get(SHA_HEADER.lower(), ""))
        try:
            keys = json.loads(data.decode("utf-8"))
        except ValueError as error:
            raise TransientStorageError(
                f"list({prefix!r}): undecodable listing body"
            ) from error
        return list(keys)

    def exists(self, key: str) -> bool:
        _check_key(key)
        self._record("exists")
        status, _, _ = self._request(
            "HEAD", "exists", key, self._path(key)
        )
        if status == 200:
            return True
        if status == 404:
            return False
        self._unexpected("exists", key, status, b"")

    def stat(self, key: str) -> StorageStat:
        _check_key(key)
        self._record("stat")
        status, headers, _ = self._request(
            "HEAD", "stat", key, self._path(key)
        )
        if status == 404:
            raise StorageMissingError(f"no value at {key!r}")
        if status != 200:
            self._unexpected("stat", key, status, b"")
        try:
            return StorageStat(
                size=int(headers[SIZE_HEADER.lower()]),
                mtime=float(headers[MTIME_HEADER.lower()]),
            )
        except (KeyError, ValueError) as error:
            raise TransientStorageError(
                f"stat({key!r}): malformed stat headers"
            ) from error

    def rename(self, key: str, new_key: str) -> None:
        _check_key(key)
        _check_key(new_key)
        self._record("rename")
        status, _, body = self._request(
            "POST",
            "rename",
            key,
            self._path(key),
            body=b"",
            headers={RENAME_HEADER: quote(new_key, safe="/")},
        )
        if status == 404:
            raise StorageMissingError(f"no value at {key!r}")
        if status != 200:
            self._unexpected("rename", key, status, body)


#: Consecutive failed calls that open a :class:`CircuitBreaker`.
FAILURE_THRESHOLD = 5
#: Seconds an open breaker waits before letting a half-open probe by.
RESET_AFTER_S = 30.0


class CircuitBreaker:
    """Reusable fail-fast state machine (module-docstring diagram).

    Counts *consecutive* failed calls; at :data:`FAILURE_THRESHOLD` the
    breaker opens and :meth:`guard` raises
    :class:`~repro.errors.CircuitOpenError` without invoking the
    guarded call. After :data:`RESET_AFTER_S` one half-open probe is let
    through — its success closes the breaker, its failure reopens it.
    The same machine protects storage operations
    (:class:`CircuitBreakerDriver`) and campaign-service requests
    (:class:`repro.campaign.client.CampaignServiceClient`).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._n_trips = 0
        self._n_short_circuited = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.
        if (
            self._state == "open"
            and time.monotonic() - self._opened_at >= RESET_AFTER_S
        ):
            self._state = "half-open"
            self._probe_in_flight = False

    def _admit(self, op: str, key: str) -> bool:
        """Admit the call, or raise CircuitOpenError. Returns whether
        this call is the half-open probe."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return False
            if self._state == "half-open" and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            self._n_short_circuited += 1
            remaining = max(
                0.0, RESET_AFTER_S - (time.monotonic() - self._opened_at)
            )
            raise CircuitOpenError(
                f"circuit open for {self.name}: {op}({key!r}) "
                f"failed fast ({self._consecutive_failures} consecutive "
                f"failures; next probe in {remaining:.1f}s)"
            )

    def _on_success(self, probe: bool) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if probe or self._state != "open":
                self._state = "closed"
            self._probe_in_flight = False

    def _on_failure(self, probe: bool) -> None:
        with self._lock:
            self._consecutive_failures += 1
            tripped = (
                probe
                or (
                    self._state == "closed"
                    and self._consecutive_failures >= FAILURE_THRESHOLD
                )
            )
            if tripped:
                self._state = "open"
                self._opened_at = time.monotonic()
                self._n_trips += 1
            self._probe_in_flight = False

    def guard(
        self,
        op: str,
        key: str,
        fn,
        answers: Tuple[type, ...] = (StorageMissingError,),
    ):
        """Run ``fn()`` under the breaker.

        ``answers`` are exception types that count as the backend
        *answering* (a missing key, a lost exclusive claim): they
        propagate without tripping the breaker. Transient/persistent
        storage errors count as failures; anything else passes through
        untouched.
        """
        probe = self._admit(op, key)
        try:
            result = fn()
        except answers:
            self._on_success(probe)  # the backend answered
            raise
        except (TransientStorageError, PersistentStorageError):
            self._on_failure(probe)
            raise
        self._on_success(probe)
        return result

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "n_trips": self._n_trips,
                "n_short_circuited": self._n_short_circuited,
            }


class CircuitBreakerDriver(WrappingDriver):
    """Fail-fast wrapper tripping persistent network failure into the
    runner's read-only degradation path (state machine in the module
    docstring; the machine itself lives in :class:`CircuitBreaker`).

    Missing keys and lost exclusive claims are answers, not failures.
    Stacked as ``RetryingDriver(CircuitBreakerDriver(HttpDriver))``
    (what ``build_driver("http://...")`` plus the store's auto-wrap
    produces), so bounded retries run above and fail-fast below.
    """

    def __init__(self, inner: StorageDriver) -> None:
        super().__init__(inner, "breaker")
        self._breaker = CircuitBreaker(inner.name)
        spec = getattr(inner, "spec", None)
        if spec is not None:
            self.spec = spec

    @property
    def state(self) -> str:
        return self._breaker.state

    def _call(self, op: str, key: str, fn, data: Optional[bytes] = None):
        return self._breaker.guard(op, key, fn)

    def stats(self) -> Dict[str, object]:
        own: Dict[str, object] = {"driver": self.name}
        own.update(self._breaker.snapshot())
        own["inner"] = self._inner.stats()
        return own


# ---------------------------------------------------------------------- #
# server
# ---------------------------------------------------------------------- #


#: Exceptions that mean "the client hung up mid-request" — routine
#: under chaos plans and impatient clients, never a server bug.
DISCONNECT_ERRORS = (
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class DisconnectTolerantHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that treats client disconnects as routine.

    The stock ``socketserver`` prints a full traceback to stderr every
    time a handler thread dies on ``BrokenPipeError`` /
    ``ConnectionResetError`` — which under a chaos plan (or a client
    that simply stopped reading a stream) spams CI logs with noise.
    Disconnects are counted on the owning service
    (``note_client_disconnect``) and logged once; everything else still
    gets the stock traceback.
    """

    daemon_threads = True
    allow_reuse_address = True
    service: "HttpService"

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, DISCONNECT_ERRORS):
            self.service.note_client_disconnect(client_address, exc)
            return
        super().handle_error(request, client_address)


class HttpServiceHandler(BaseHTTPRequestHandler):
    """Request plumbing shared by the object store and the campaign API.

    Responses (optionally cut mid-body), request logging into the
    owning service's ``log_lines``, and the server-side half of the
    chaos harness: :meth:`_apply_pre_fault` consults the service's
    fault selector and acts on the network-class rule that fires.
    """

    protocol_version = "HTTP/1.1"
    #: Extra headers on every JSON response.
    json_headers: Dict[str, str] = {}

    @property
    def service(self) -> "HttpService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        self.service.log_lines.append(format % args)

    def _hang_up(self) -> None:
        """Drop the connection without sending anything more."""
        self.close_connection = True
        try:
            self.connection.shutdown(2)  # SHUT_RDWR
        except OSError:
            pass

    def _send(
        self,
        status: int,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
        truncate: bool = False,
    ) -> None:
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command == "HEAD":
            return
        if truncate:
            # Mid-body disconnect: declared Content-Length exceeds
            # what lands, so the client's read raises IncompleteRead.
            self.wfile.write(body[: len(body) // 2])
            self.wfile.flush()
            self._hang_up()
            return
        if body:
            self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, object],
        headers: Optional[Dict[str, str]] = None,
        truncate: bool = False,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(
            status,
            body,
            {**(headers or {}), **self.json_headers},
            truncate=truncate,
        )

    def _apply_pre_fault(self, op: str, key: str) -> str:
        """Consult the fault plan and apply a fault that acts
        before/instead of the operation.

        Returns ``"handled"`` when a response (or deliberate silence)
        was already produced, ``"truncate"`` when the operation should
        proceed but its response must be cut mid-body, ``"stale"``
        when a read should serve the previous committed state, and
        ``"proceed"`` otherwise.
        """
        selector = self.service.selector
        rule = selector.consult(op, key) if selector is not None else None
        if rule is None:
            return "proceed"
        if rule.kind == "refuse":
            # Drop the connection before any response bytes: the
            # client sees a reset/torn status line.
            self._hang_up()
            return "handled"
        if rule.kind == "http_error":
            headers = {}
            if rule.retry_after_s is not None:
                headers["Retry-After"] = f"{rule.retry_after_s:g}"
            self._send_json(
                rule.status,
                {"error": f"injected HTTP {rule.status}"},
                headers,
            )
            return "handled"
        if rule.kind == "delay":
            time.sleep(rule.hang_s)
            return "proceed"
        if rule.kind == "disconnect":
            return "truncate"
        return "stale"


class HttpService:
    """Lifecycle and bookkeeping shared by the two HTTP services.

    A context manager (``with Service() as service:``, as the CLI
    serves), or :meth:`start`/:meth:`stop`. A subclass names its
    ``handler`` (an :class:`HttpServiceHandler`) and passes its fault
    ``consumer`` (its column of :data:`~repro.campaign.faults.FIRES`);
    the plan's rules of other kinds are left to other consumers without
    advancing their counters.

    Mid-response client disconnects are counted
    (``n_client_disconnects``), noted in ``log_lines`` and logged once
    — never a traceback: chaos plans disconnect on purpose, hundreds of
    times per CI run.
    """

    handler: type
    thread_name: str
    server_class = DisconnectTolerantHTTPServer

    def __init__(
        self,
        host: str,
        port: int,
        fault_plan: Optional[FaultPlan],
        consumer: str,
    ) -> None:
        self._host = host
        self._port = int(port)
        self.selector = (
            FaultSelector(fault_plan, consumer)
            if fault_plan is not None and fault_plan.rules
            else None
        )
        self.log_lines: List[str] = []
        self.n_client_disconnects = 0
        self._disconnect_lock = threading.Lock()
        self._server: Optional[DisconnectTolerantHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def note_client_disconnect(self, client_address, exc) -> None:
        with self._disconnect_lock:
            self.n_client_disconnects += 1
            first = self.n_client_disconnects == 1
        self.log_lines.append(
            f"client disconnect from {client_address}: "
            f"{type(exc).__name__}"
        )
        if first:
            log.warning(
                "client %s disconnected mid-response (%s); further "
                "disconnects are counted silently",
                client_address,
                type(exc).__name__,
            )

    @property
    def url(self) -> str:
        """Base URL: ``http://host:port``."""
        if self._server is None:
            raise RuntimeError("service not started")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def _bind(self) -> DisconnectTolerantHTTPServer:
        if self._server is None:
            self._server = self.server_class(
                (self._host, self._port), self.handler
            )
            self._server.service = self
        return self._server

    def start(self):
        if self._server is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self._bind().serve_forever,
            kwargs={"poll_interval": 0.05},
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _Handler(HttpServiceHandler):
    server_version = "repro-objectstore/1"

    def _parse(self) -> Optional[Tuple[str, str, Dict[str, List[str]]]]:
        """(key, op, query) for this request, or None after a 404/400."""
        parts = urlsplit(self.path)
        segments = parts.path.lstrip("/").split("/", 1)
        if unquote(segments[0]) != self.service.bucket:
            self._send_json(404, {"error": "unknown bucket"})
            return None
        op = self.headers.get(OP_HEADER, "")
        if op not in DRIVER_OPS:
            self._send_json(
                400, {"error": f"{OP_HEADER} must name a driver op, got {op!r}"}
            )
            return None
        key = unquote(segments[1]) if len(segments) > 1 else ""
        return key, op, parse_qs(parts.query)

    def _read_body(self) -> Optional[bytes]:
        """Request body verified against its integrity header, or
        ``None`` after responding 400/422 (nothing was committed)."""
        length = int(self.headers.get("Content-Length", 0) or 0)
        body = self.rfile.read(length) if length else b""
        claimed = self.headers.get(SHA_HEADER, "")
        if len(body) != length or (claimed and _sha256(body) != claimed):
            self._send_json(
                422, {"error": "body integrity check failed"}
            )
            return None
        return body

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    def _handle(self) -> None:
        # One request per connection both sides (the driver opens a
        # fresh connection per op): never reuse a socket that may hold
        # an undrained request body or a truncated response.
        self.close_connection = True
        parsed = self._parse()
        if parsed is None:
            return
        key, op, query = parsed
        action = self._apply_pre_fault(op, key)
        if action == "handled":
            return
        truncate = action == "truncate"
        stale = action == "stale"
        try:
            if op == "list":
                prefix = (query.get("prefix") or [""])[0]
                keys = self.service.driver.list(unquote(prefix))
                body = json.dumps(keys).encode("utf-8")
                self._send(
                    200,
                    body,
                    {SHA_HEADER: _sha256(body)},
                    truncate=truncate,
                )
            elif op == "get":
                data = self.service.read_for(key, stale=stale)
                sha = _sha256(data)
                self._send(
                    200,
                    data,
                    {SHA_HEADER: sha, "ETag": f'"{sha}"'},
                    truncate=truncate,
                )
            elif op in ("exists", "stat"):
                if stale:
                    # Serve the historical view: size from the
                    # recorded bytes, mtime approximate (an emulation
                    # knob, not a durability promise).
                    data = self.service.read_for(key, stale=True)
                    size, mtime = len(data), time.time()
                else:
                    stat = self.service.driver.stat(key)
                    size, mtime = stat.size, stat.mtime
                self._send(
                    200,
                    b"",
                    {
                        SIZE_HEADER: str(size),
                        MTIME_HEADER: f"{mtime!r}",
                    },
                )
            elif op in ("put_atomic", "replace", "put_exclusive"):
                body = self._read_body()
                if body is None:
                    return
                self.service.note_write(key)
                if op == "put_exclusive":
                    created = self.service.driver.put_exclusive(key, body)
                    if not created:
                        self._send_json(
                            412, {"error": "key exists"}, truncate=truncate
                        )
                        return
                elif op == "replace":
                    self.service.driver.replace(key, body)
                else:
                    self.service.driver.put_atomic(key, body)
                sha = _sha256(body)
                self._send_json(
                    201 if op == "put_exclusive" else 200,
                    {"ok": True},
                    {"ETag": f'"{sha}"', SHA_HEADER: sha},
                    truncate=truncate,
                )
            elif op == "delete":
                self.service.note_write(key)
                removed = self.service.driver.delete(key)
                self._send_json(
                    200,
                    {"ok": True},
                    {DELETED_HEADER: "1" if removed else "0"},
                    truncate=truncate,
                )
            elif op == "rename":
                new_key = unquote(self.headers.get(RENAME_HEADER, ""))
                if not new_key:
                    self._send_json(
                        400, {"error": f"missing {RENAME_HEADER}"}
                    )
                    return
                self.service.note_write(key)
                self.service.note_write(new_key)
                self.service.driver.rename(key, new_key)
                self._send_json(200, {"ok": True}, truncate=truncate)
        except StorageMissingError:
            self._send_json(404, {"error": f"no value at {key!r}"})
        except ConfigurationError as error:
            self._send_json(400, {"error": str(error)})
        except TransientStorageError as error:
            self._send_json(503, {"error": str(error)})
        except PersistentStorageError as error:
            self._send_json(
                500, {"error": str(error)}, {PERSISTENT_HEADER: "1"}
            )

    do_GET = _handle
    do_HEAD = _handle
    do_PUT = _handle
    do_DELETE = _handle
    do_POST = _handle


class ObjectStoreService(HttpService):
    """Hermetic HTTP object-store service over a local driver.

    In-process for tests (``with ObjectStoreService() as service:``) and
    behind ``python -m repro.campaign serve`` for real deployments. The
    backing ``driver`` defaults to a fresh
    :class:`~repro.campaign.storage.MemoryDriver`; hand it a
    ``PosixDriver`` for a durable store. ``fault_plan``'s network-class
    rules are injected server-side (see the module docstring).
    """

    handler = _Handler
    thread_name = "repro-objectstore"

    def __init__(
        self,
        driver: Optional[StorageDriver] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        bucket: str = "campaign",
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if "/" in bucket or not bucket:
            raise ConfigurationError(
                f"bucket must be one path segment, got {bucket!r}"
            )
        super().__init__(host, port, fault_plan, "objectstore")
        self.driver = driver if driver is not None else MemoryDriver()
        self.bucket = bucket
        self._track_stale = fault_plan is not None and any(
            rule.kind == "stale_read" for rule in fault_plan.rules
        )
        self._history: Dict[str, bytes] = {}
        self._history_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # stale-read history (one-deep, recorded only when a plan wants it)
    # ------------------------------------------------------------------ #

    def note_write(self, key: str) -> None:
        """Record the pre-write committed state of ``key`` so a
        ``stale_read`` fault can serve it later."""
        if not self._track_stale:
            return
        with self._history_lock:
            try:
                self._history[key] = self.driver.get(key)
            except StorageMissingError:
                self._history.pop(key, None)

    def read_for(self, key: str, stale: bool = False) -> bytes:
        """Committed bytes at ``key`` — or, under a ``stale_read``
        fault, the previous committed state (absence raises, emulating
        a not-yet-visible write)."""
        if stale:
            with self._history_lock:
                if key in self._history:
                    return self._history[key]
            # No recorded history: the key predates tracking, so the
            # current state *is* the stale view — unless it was never
            # written through this server, in which case a fresh write
            # is simply not visible yet.
            raise StorageMissingError(
                f"stale read: {key!r} not yet visible"
            )
        return self.driver.get(key)

    @property
    def url(self) -> str:
        """Driver-ready spec: ``http://host:port/bucket``."""
        return f"{super().url}/{self.bucket}"


__all__ = [
    "DISCONNECT_ERRORS",
    "CircuitBreaker",
    "CircuitBreakerDriver",
    "DisconnectTolerantHTTPServer",
    "HttpDriver",
    "HttpService",
    "HttpServiceHandler",
    "ObjectStoreService",
    "transient_status_error",
]
