"""Fault injection for the campaign stack's recovery tests.

The campaign stack keeps its recovery paths in ``src/`` — leases,
retries, point timeouts, pool → serial degradation, torn-write
healing, quarantine, the circuit breaker, read-only degradation and the
client retry stack. This module injects the faults that drive them,
through the extension points the stack already has:

* **storage** — :class:`FaultyDriver`, a
  :class:`~repro.campaign.storage.WrappingDriver` handed to
  ``CampaignStore(driver=)``: ``error``, ``persistent``, ``hang`` and
  ``torn`` (writes only);
* **stale reads** — :class:`StaleReadDriver`, a wrapping driver handed
  to ``ObjectStoreService(driver=)``: it keeps each key's pre-write
  state and serves it on the selected ``get``/``exists``/``stat``,
  emulating an eventually-consistent backend;
* **the wire** — :class:`ChaosObjectStore` and :class:`ChaosService`
  set a chaos ``handler`` on the two HTTP services: ``refuse`` drops
  the connection cold, ``http_error`` answers ``status`` (with an
  optional ``Retry-After``), ``delay`` sleeps ``hang_s`` and
  ``disconnect`` performs the operation but cuts its response mid-body
  (a submit streams its points but never its ``done`` line);
* **execution** — :class:`ExecuteChaos` stands in for the module
  binding ``repro.campaign.runner.execute_point`` (the ``execute_chaos``
  fixture installs it; forked pool workers inherit it): ``crash``
  raises :class:`InjectedCrash`, ``kill`` hard-exits a child process (a
  crash in the main one), and ``hang`` blocks until the test releases
  it at teardown.

A :class:`Plan` is a seeded tuple of :class:`Rule` objects. A rule
names an ``op``, a ``kind``, a selector (``key_prefix`` on the call's
key — the point's content hash for ``execute`` — and, for ``execute``
only, ``match`` on point fields) and a trigger: ``calls``, 1-based
indices (default ``(1,)``), or a seeded per-call probability ``p``,
either one capped by ``max_fires``. Each consumer fires only its own
kinds, and a rule it skips does not advance its call counter, so one
plan can drive a client-side driver and a server side by side.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import urlsplit

import repro.campaign.runner as campaign_runner
from repro.campaign.objectstore import ObjectStoreService, _Handler
from repro.campaign.service import CampaignService, _ServiceHandler
from repro.campaign.storage import StorageStat, WrappingDriver
from repro.errors import (
    PersistentStorageError,
    StorageMissingError,
    TransientStorageError,
)

DISK_KINDS = ("error", "persistent", "hang")  # and "torn", on writes
WIRE_KINDS = ("refuse", "http_error", "disconnect", "delay")
EXECUTE_KINDS = ("crash", "hang", "kill")
WRITE_OPS = ("put_atomic", "put_exclusive", "replace")


class InjectedCrash(Exception):
    """A synthetic point failure — never raised by real physics."""


@dataclass(frozen=True)
class Rule:
    """One deterministic fault: which calls it selects, when it fires
    and what it does (module docstring)."""

    kind: str
    op: Optional[str] = None
    match: Mapping[str, object] = field(default_factory=dict)
    key_prefix: str = ""
    calls: Optional[Tuple[int, ...]] = None
    p: Optional[float] = None
    max_fires: Optional[int] = None
    hang_s: float = 0.05
    offset: Optional[int] = None  # torn: bytes kept (None = half)
    silent: bool = False  # torn lands without raising
    status: int = 503  # http_error: response status
    retry_after_s: Optional[float] = None  # http_error: Retry-After

    def __post_init__(self) -> None:
        calls = (1,) if self.calls is None and self.p is None else self.calls
        object.__setattr__(
            self, "calls", None if calls is None else tuple(calls)
        )
        object.__setattr__(self, "match", dict(self.match))

    def selects(self, op, key, fields=None) -> bool:
        if self.op is not None and self.op != op:
            return False
        if not key.startswith(self.key_prefix):
            return False
        fields = fields or {}
        return all(fields.get(k) == v for k, v in self.match.items())


@dataclass(frozen=True)
class Plan:
    """A seeded tuple of rules; ``seed`` drives the ``p`` rules' draws."""

    rules: Tuple[Rule, ...] = ()
    seed: int = 0

    def unit(self, op: str, key: str, index: int) -> float:
        """Seeded uniform draw in [0, 1) for one (op, key, index)."""
        digest = hashlib.sha256(
            f"{self.seed}:{op}:{key}:{index}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64


def plan(*rules, seed: int = 0) -> Plan:
    """A :class:`Plan` from rules given as :class:`Rule` or keyword dicts."""
    return Plan(
        tuple(r if isinstance(r, Rule) else Rule(**r) for r in rules), seed
    )


class Selector:
    """Thread-safe rule selection for one consumer of a plan.

    Only rules of ``kinds`` (a tuple, or a function of the op) are
    consulted; per-rule counters of matching calls advance
    deterministically, so a given call sequence reproduces the same
    injections.
    """

    def __init__(self, plan: Plan, kinds) -> None:
        self.plan = plan
        self._kinds = kinds if callable(kinds) else (lambda op: kinds)
        self._lock = threading.Lock()
        self._seen: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self.n_injected = 0

    def consult(self, op, key, index=None, fields=None) -> Optional[Rule]:
        """First rule firing on this call. ``index`` is the caller's
        1-based index for the call (the attempt, for ``execute``);
        ``None`` uses each rule's count of matching calls."""
        kinds = self._kinds(op)
        with self._lock:
            chosen = None
            for number, rule in enumerate(self.plan.rules):
                if rule.kind not in kinds:
                    continue
                if not rule.selects(op, key, fields):
                    continue
                if index is None:
                    self._seen[number] = n = self._seen.get(number, 0) + 1
                else:
                    n = index
                if chosen is not None:
                    continue  # still count later rules' matches
                if (
                    rule.max_fires is not None
                    and self._fired.get(number, 0) >= rule.max_fires
                ):
                    continue
                if rule.calls is not None:
                    fires = n in rule.calls
                else:
                    fires = self.plan.unit(op, key, n) < rule.p
                if fires:
                    self._fired[number] = self._fired.get(number, 0) + 1
                    self.n_injected += 1
                    chosen = rule
            return chosen


# ---------------------------------------------------------------------- #
# storage
# ---------------------------------------------------------------------- #


class FaultyDriver(WrappingDriver):
    """Storage faults around any driver: ``error``/``persistent`` raise
    before the operation, ``hang`` sleeps ``hang_s`` then performs it,
    and ``torn`` lands ``data[:offset]`` (default half) through the raw
    backend, then raises — or returns, when ``silent``, an undetected
    torn write the store's integrity checks must catch."""

    def __init__(self, inner, plan: Plan) -> None:
        super().__init__(inner, "faulty")
        self.selector = Selector(
            plan, lambda op: DISK_KINDS + ("torn",) if op in WRITE_OPS else DISK_KINDS
        )

    @property
    def n_injected(self) -> int:
        return self.selector.n_injected

    def _call(self, op, key, fn, data=None):
        rule = self.selector.consult(op, key)
        if rule is None:
            return fn()
        if rule.kind == "hang":
            time.sleep(rule.hang_s)
            return fn()
        if rule.kind == "persistent":
            raise PersistentStorageError(
                f"injected persistent storage fault at {op}({key!r})"
            )
        if rule.kind == "torn":
            offset = (
                len(data) // 2
                if rule.offset is None
                else min(rule.offset, len(data))
            )
            self.inner.replace(key, data[:offset])
            if rule.silent:
                return None
            raise TransientStorageError(
                f"injected torn write at {op}({key!r}) "
                f"(kept {offset} of {len(data)} bytes)"
            )
        raise TransientStorageError(
            f"injected transient storage fault at {op}({key!r})"
        )

    def stats(self):
        return {
            "driver": self.name,
            "n_injected_faults": self.n_injected,
            "inner": self.inner.stats(),
        }


class StaleReadDriver(WrappingDriver):
    """Serves the pre-write state of a key on the selected reads.

    Every write records the key's committed state before it (one deep);
    a ``stale_read`` rule on ``get``, ``exists`` or ``stat`` answers
    from that record, and a key with none is not yet visible.
    """

    def __init__(self, inner, plan: Plan) -> None:
        super().__init__(inner, "stale")
        self.selector = Selector(plan, ("stale_read",))
        self._history: Dict[str, bytes] = {}
        self._lock = threading.Lock()

    def _remember(self, key: str) -> None:
        with self._lock:
            try:
                self._history[key] = self.inner.get(key)
            except StorageMissingError:
                self._history.pop(key, None)

    def _call(self, op, key, fn, data=None):
        if op in ("get", "exists", "stat") and self.selector.consult(op, key):
            with self._lock:
                old = self._history.get(key)
            if op == "exists":
                return old is not None
            if old is None:
                raise StorageMissingError(f"stale read: {key!r} not yet visible")
            return old if op == "get" else StorageStat(len(old), time.time())
        if op in WRITE_OPS or op in ("delete", "rename"):
            self._remember(key)
        return fn()

    def rename(self, key: str, new_key: str) -> None:
        self._remember(new_key)
        return super().rename(key, new_key)


# ---------------------------------------------------------------------- #
# the wire
# ---------------------------------------------------------------------- #


class _ChaosHandler:
    """Server-side wire faults for an :class:`HttpServiceHandler`."""

    _cut = False

    def _hang_up(self) -> None:
        """Drop the connection without sending anything more."""
        self.close_connection = True
        try:
            self.connection.shutdown(2)  # SHUT_RDWR
        except OSError:
            pass

    def _inject(self, op: str, key: str) -> bool:
        """Apply the rule firing on this request; False when the
        request was answered (or dropped) already."""
        self._cut = False
        rule = self.service.selector.consult(op, key)
        if rule is None:
            return True
        if rule.kind == "refuse":
            self._hang_up()
            return False
        if rule.kind == "http_error":
            headers = {}
            if rule.retry_after_s is not None:
                headers["Retry-After"] = f"{rule.retry_after_s:g}"
            self._send_json(
                rule.status, {"error": f"injected HTTP {rule.status}"}, headers
            )
            return False
        if rule.kind == "delay":
            time.sleep(rule.hang_s)
        else:
            self._cut = True
        return True

    def _send(self, status, body=b"", headers=None) -> None:
        if not self._cut or self.command == "HEAD":
            return super()._send(status, body, headers)
        # Mid-body disconnect: the declared Content-Length exceeds what
        # lands, so the client's read raises IncompleteRead.
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body[: len(body) // 2])
        self.wfile.flush()
        self._hang_up()


class _ChaosObjectStoreHandler(_ChaosHandler, _Handler):
    def _parse(self):
        parsed = super()._parse()
        if parsed is not None and not self._inject(parsed[1], parsed[0]):
            return None
        return parsed


class ChaosObjectStore(ObjectStoreService):
    """An object store whose requests meet ``plan``'s wire rules and
    whose reads meet its ``stale_read`` rules."""

    handler = _ChaosObjectStoreHandler

    def __init__(self, plan: Plan, driver=None, **kwargs) -> None:
        super().__init__(driver=driver, **kwargs)
        self.driver = StaleReadDriver(self.driver, plan)
        self.selector = Selector(plan, WIRE_KINDS)

    @property
    def n_injected(self) -> int:
        return self.selector.n_injected + self.driver.selector.n_injected


class _ChaosServiceHandler(_ChaosHandler, _ServiceHandler):
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self._inject("submit", ""):
            super().do_POST()

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        segments = urlsplit(self.path).path.strip("/").split("/")
        if segments == ["healthz"]:
            op, key = "healthz", ""
        elif segments == ["campaigns"]:
            op, key = "list_campaigns", ""
        else:  # /campaigns/<id>[/status]
            op, key = "status", segments[1] if len(segments) > 1 else ""
        if self._inject(op, key):
            super().do_GET()

    def _write_chunk(self, data: bytes) -> None:
        if self._cut and b'"event":"done"' in data:
            # The points streamed; the ``done`` line and the terminal
            # chunk never arrive, for a computation that landed.
            self._hang_up()
            raise ConnectionAbortedError("injected disconnect before done")
        super()._write_chunk(data)


class ChaosService(CampaignService):
    """A campaign service whose requests meet ``plan``'s wire rules
    (ops ``submit``, ``status``, ``list_campaigns``, ``healthz``)."""

    handler = _ChaosServiceHandler

    def __init__(self, plan: Plan, store=None, **kwargs) -> None:
        super().__init__(store, **kwargs)
        self.selector = Selector(plan, WIRE_KINDS)


# ---------------------------------------------------------------------- #
# execution
# ---------------------------------------------------------------------- #


class ExecuteChaos:
    """``execute_point`` under ``plan``'s ``execute`` rules.

    Stateless across processes: the attempt number of a call is the
    first ``O_EXCL`` marker file ``attempts/<hash>.<n>`` it creates,
    each completed computation appends ``"<hash> <pid>"`` to
    ``exec.log`` (``O_APPEND``), and a hang polls for the ``released``
    file, so forked pool workers and runner processes behave alike (a
    killed waiter blocks nobody).
    """

    def __init__(self, plan: Plan, workdir) -> None:
        self.plan = plan
        self.workdir = Path(workdir)
        (self.workdir / "attempts").mkdir(parents=True, exist_ok=True)
        self.log_path = self.workdir / "exec.log"
        self.real = campaign_runner.execute_point
        self._released = self.workdir / "released"
        self._hung: List[threading.Thread] = []

    def attempt(self, content_hash: str) -> int:
        n = 1
        while True:
            marker = self.workdir / "attempts" / f"{content_hash}.{n}"
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return n
            except FileExistsError:
                n += 1

    def rule_for(self, point, attempt: int) -> Optional[Rule]:
        return Selector(self.plan, EXECUTE_KINDS).consult(
            "execute", point.content_hash(), attempt, point.to_dict()
        )

    def __call__(self, point):
        content_hash = point.content_hash()
        attempt = self.attempt(content_hash)
        rule = self.rule_for(point, attempt)
        if rule is not None:
            self._fire(rule, content_hash, attempt)
        result = self.real(point)
        line = f"{content_hash} {os.getpid()}\n".encode()
        fd = os.open(self.log_path, os.O_CREAT | os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        return result

    def _fire(self, rule: Rule, content_hash: str, attempt: int) -> None:
        where = f"point {content_hash[:12]}… attempt {attempt}"
        if rule.kind == "hang":
            self._hung.append(threading.current_thread())
            while not self._released.exists():
                time.sleep(0.02)
            raise InjectedCrash(f"released hang at {where}")
        if rule.kind == "kill" and multiprocessing.parent_process() is not None:
            os._exit(86)  # the parent sees a broken pool
        raise InjectedCrash(f"injected {rule.kind} at {where}")

    def executed(self) -> List[str]:
        """Content hashes of the completed computations, in log order."""
        if not self.log_path.exists():
            return []
        return [line.split()[0] for line in self.log_path.read_text().split("\n") if line]

    def release(self, timeout_s: float = 10.0) -> None:
        """Unblock every hang, then check that no hung thread and no
        child process (a pool worker, a runner) outlives the test."""
        self._released.touch()
        deadline = time.monotonic() + timeout_s
        for thread in self._hung:
            thread.join(max(0.0, deadline - time.monotonic()))
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "a child process outlived its test"
            time.sleep(0.02)
        assert not any(t.is_alive() for t in self._hung), "a hang outlived its test"
