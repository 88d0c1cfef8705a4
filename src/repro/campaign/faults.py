"""Deterministic fault injection for the campaign stack.

Every recovery path of the campaign runner, store, storage drivers and
HTTP services — retry after a worker crash, per-point timeout of a
hung worker, ``BrokenProcessPool`` → serial degradation, torn-chunk
healing, refused/503/truncated requests — is exercised in CI through
this harness rather than trusted. A :class:`FaultPlan` is a *seeded,
declarative* tuple of :class:`FaultRule`\\ s, and every consumer reads
it through one :class:`FaultSelector`.

One rule grammar. A rule names an ``op``, a ``kind``, a selector and
a trigger:

* ``op`` — ``execute`` (one point attempt in the runner), one of the
  nine driver ops (:data:`DRIVER_OPS`), or one of the four service
  request ops (:data:`SERVICE_OPS`); omitted (or ``"*"``) means any;
* selector — ``key_prefix`` on the call's key (for ``execute`` the key
  is the point's content hash) and, for ``execute`` only, ``match``
  on point fields (``n_devices``, ``engine``, …);
* trigger — ``calls``, explicit 1-based indices (default ``[1]``), or
  a seeded per-call probability ``p``, either one capped by
  ``max_fires``. For ``execute`` the caller passes the index (the
  attempt number), so pool workers stay stateless; for every other op
  the index is the selector's count of this rule's matching calls.

Where each kind may fire (:data:`FIRES`: op → consumer → kinds):

=====================  =====================  =======================
op                     consumer               kinds
=====================  =====================  =======================
``execute``            runner                 crash, hang, kill
driver op              ``FaultyDriver``       error, persistent, hang,
                                              torn (writes only)
driver op              object-store handler   refuse, http_error,
                                              disconnect, delay,
                                              stale_read (reads only)
service op             service handler        refuse, http_error,
                                              disconnect, delay
=====================  =====================  =======================

Each consumer fires only its own kinds; a rule it skips does not
advance its call counter, so one plan can drive a client-side driver
and a server without the two perturbing each other. ``hang`` injects
on the client side (the worker or the driver sleeps), ``delay`` on
the server side.

Kinds: ``crash`` raises :class:`~repro.errors.FaultInjectedError`;
``kill`` hard-exits a pool worker (a broken pool; in the main process
it degrades to ``crash``); ``hang``/``delay`` sleep ``hang_s``;
``error``/``persistent`` raise Transient-/PersistentStorageError
before the operation; ``torn`` lands ``offset`` bytes (default half)
and raises, unless ``silent``; ``refuse`` drops the connection,
``http_error`` answers ``status`` with an optional ``Retry-After:
retry_after_s``, ``disconnect`` truncates the response after the
operation, and ``stale_read`` serves the previous committed state.

Plans are JSON (``{"schema", "seed", "rules"}``) and reach consumers
by value: as constructor arguments, or through the ``--fault-plan``,
``--storage-fault-plan`` and ``--service-fault-plan`` flags (inline
JSON or a file path). Both v1 forms load:
``repro-storage-fault-plan-v1`` rules are already in this grammar, and
a ``repro-fault-plan-v1`` rule (``stage: "execute"``, ``attempts``,
``match.hash_prefix``, ``hang_s`` default 1 s) reads as ``op:
"execute"``, ``calls``, ``key_prefix``. The v1 ``write`` stage is
refused: chunks tear in the storage layer (``torn`` + ``silent``).

Doctest — a v1 plan fires only on its declared attempt, and a driver
rule only for the driver:

>>> from repro.campaign.faults import FaultPlan, FaultSelector
>>> plan = FaultPlan.from_json(
...     '{"schema": "repro-fault-plan-v1", "rules": ['
...     '{"stage": "execute", "kind": "crash",'
...     ' "match": {"n_devices": 8}, "attempts": [1]}]}')
>>> point = {"n_devices": 8, "engine": "analytic"}
>>> runner = FaultSelector(plan, "runner")
>>> runner.consult("execute", "abc123", index=2, fields=point) is None
True
>>> runner.consult("execute", "abc123", index=1, fields=point).kind
'crash'
>>> runner.consult("execute", "abc123", 1, {"n_devices": 4}) is None
True
>>> torn = FaultPlan.from_json(
...     '{"schema": "repro-storage-fault-plan-v1", "rules": ['
...     '{"op": "put_atomic", "key_prefix": "points/",'
...     ' "kind": "torn", "calls": [1]}]}')
>>> FaultSelector(torn, "objectstore").consult("put_atomic", "points/a")
>>> FaultSelector(torn, "driver").consult("put_atomic", "points/a").kind
'torn'
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    FaultInjectedError,
    require_integer,
)

PLAN_SCHEMA = "repro-fault-plan-v1"
STORAGE_PLAN_SCHEMA = "repro-storage-fault-plan-v1"

DRIVER_OPS = (
    "get",
    "put_atomic",
    "put_exclusive",
    "replace",
    "delete",
    "list",
    "exists",
    "stat",
    "rename",
)
SERVICE_OPS = ("submit", "status", "list_campaigns", "healthz")

_DISK_KINDS = ("error", "persistent", "hang")
_WIRE_KINDS = ("refuse", "http_error", "disconnect", "delay")
_WRITE_OPS = ("put_atomic", "put_exclusive", "replace")
_READ_OPS = ("get", "exists", "stat")

#: Where each kind may fire: op → consumer → the kinds that consumer
#: fires on that op. The one source of rule validation and of each
#: selector's kind filter.
FIRES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "execute": {"runner": ("crash", "hang", "kill")},
    **{
        op: {
            "driver": _DISK_KINDS
            + (("torn",) if op in _WRITE_OPS else ()),
            "objectstore": _WIRE_KINDS
            + (("stale_read",) if op in _READ_OPS else ()),
        }
        for op in DRIVER_OPS
    },
    **{op: {"service": _WIRE_KINDS} for op in SERVICE_OPS},
}

#: Point fields an ``execute`` rule's ``match`` may constrain.
_MATCH_FIELDS = (
    "n_devices",
    "n_rounds",
    "engine",
    "noise_mode",
    "fading",
    "seed",
)


def _seconds(name: str, value) -> None:
    """A duration must be a finite number >= 0 (checked here, not when
    the fault fires mid-run)."""
    if not (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value >= 0
    ):
        raise ConfigurationError(
            f"fault {name} must be finite and >= 0, got {value!r}"
        )


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: which calls it selects, when it fires,
    what it does (module docstring for the grammar)."""

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
        op = None if self.op in (None, "*") else self.op
        if not isinstance(op, (str, type(None))) or (
            op is not None and op not in FIRES
        ):
            raise ConfigurationError(
                f"fault op must be one of {tuple(FIRES)} or '*', "
                f"got {self.op!r}"
            )
        object.__setattr__(self, "op", op)
        tables = FIRES.values() if op is None else (FIRES[op],)
        kinds = sorted(
            {
                kind
                for table in tables
                for fired in table.values()
                for kind in fired
            }
        )
        if not isinstance(self.kind, str) or self.kind not in kinds:
            raise ConfigurationError(
                f"fault kind on op {op or '*'!r} must be one of {kinds}, "
                f"got {self.kind!r}"
            )
        if not isinstance(self.match, Mapping):
            raise ConfigurationError(
                f"fault match must be an object, got {self.match!r}"
            )
        object.__setattr__(self, "match", dict(self.match))
        unknown = [key for key in self.match if key not in _MATCH_FIELDS]
        if unknown:
            raise ConfigurationError(
                f"fault match keys {unknown} are not matchable; use "
                f"key_prefix or {_MATCH_FIELDS}"
            )
        if self.match and op != "execute":
            raise ConfigurationError(
                "fault match selects point fields: only op 'execute' "
                "sees a point"
            )
        if not isinstance(self.key_prefix, str):
            raise ConfigurationError(
                f"fault key_prefix must be a string, "
                f"got {self.key_prefix!r}"
            )
        if self.calls is not None and self.p is not None:
            raise ConfigurationError(
                "a fault rule takes 'calls' or 'p', not both"
            )
        if self.p is not None and not (
            isinstance(self.p, (int, float))
            and not isinstance(self.p, bool)
            and 0.0 <= self.p <= 1.0
        ):
            raise ConfigurationError(
                f"fault p must be in [0, 1], got {self.p!r}"
            )
        calls = (1,) if self.calls is None and self.p is None else self.calls
        if calls is not None:
            if not isinstance(calls, (list, tuple)):
                raise ConfigurationError(
                    f"fault calls must be a list of 1-based indices, "
                    f"got {calls!r}"
                )
            calls = tuple(
                require_integer("fault calls", index, 1) for index in calls
            )
        object.__setattr__(self, "calls", calls)
        if self.max_fires is not None:
            object.__setattr__(
                self,
                "max_fires",
                require_integer("fault max_fires", self.max_fires, 0),
            )
        _seconds("hang_s", self.hang_s)
        if self.offset is not None:
            object.__setattr__(
                self, "offset", require_integer("fault offset", self.offset, 0)
            )
        if not isinstance(self.silent, bool):
            raise ConfigurationError(
                f"fault silent must be true or false, got {self.silent!r}"
            )
        status = require_integer("fault status", self.status, 400)
        if status > 599:
            raise ConfigurationError(
                f"fault status must be a 4xx/5xx code, got {self.status!r}"
            )
        object.__setattr__(self, "status", status)
        if self.retry_after_s is not None:
            _seconds("retry_after_s", self.retry_after_s)

    def selects(
        self,
        op: str,
        key: str,
        point_fields: Optional[Mapping[str, object]] = None,
    ) -> bool:
        """True when this rule's (op, key prefix, match) selector
        matches the call."""
        if self.op is not None and self.op != op:
            return False
        if not key.startswith(self.key_prefix):
            return False
        point_fields = point_fields or {}
        return all(
            point_fields.get(name) == wanted
            for name, wanted in self.match.items()
        )


_RULE_KEYS = frozenset(item.name for item in fields(FaultRule))
_EXECUTE_V1_KEYS = frozenset(
    {"stage", "kind", "match", "attempts", "hang_s"}
)


def _execute_v1(entry: Dict[str, object]) -> Dict[str, object]:
    """A ``repro-fault-plan-v1`` rule in this module's grammar."""
    stage = entry["stage"]
    if stage == "write":
        raise ConfigurationError(
            "fault stage 'write' is gone: tear chunks in the storage "
            'layer, e.g. {"op": "put_atomic", "kind": "torn", '
            '"key_prefix": "points/", "silent": true} in '
            "--storage-fault-plan"
        )
    if stage != "execute":
        raise ConfigurationError(
            f"fault stage must be 'execute', got {stage!r}"
        )
    unknown = sorted(set(entry) - _EXECUTE_V1_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown fault rule keys {unknown}")
    match = entry.get("match", {})
    if not isinstance(match, Mapping):
        raise ConfigurationError(
            f"fault match must be an object, got {match!r}"
        )
    match = dict(match)
    rule = {
        "op": "execute",
        "kind": entry.get("kind"),
        "match": match,
        "calls": entry.get("attempts", [1]),
        "hang_s": entry.get("hang_s", 1.0),
    }
    if "hash_prefix" in match:
        rule["key_prefix"] = str(match.pop("hash_prefix"))
    return rule


def _rule(entry) -> FaultRule:
    """One JSON rule (either v1 form) as a :class:`FaultRule`."""
    if not isinstance(entry, Mapping):
        raise ConfigurationError(
            f"a fault rule must be an object, got {entry!r}"
        )
    entry = dict(entry)
    if "stage" in entry:
        entry = _execute_v1(entry)
    unknown = sorted(set(entry) - _RULE_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown fault rule keys {unknown}")
    return FaultRule(**entry)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded tuple of :class:`FaultRule`\\ s, and its one JSON and
    file loader.

    Frozen and picklable, so the runner ships it to pool workers by
    value; ``seed`` drives the per-call draws of ``p`` rules.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(
            self, "seed", require_integer("fault seed", self.seed)
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a fault plan must be an object, got {data!r}"
            )
        payload = dict(data)
        schema = payload.pop("schema", PLAN_SCHEMA)
        if schema not in (PLAN_SCHEMA, STORAGE_PLAN_SCHEMA):
            raise ConfigurationError(
                f"unsupported fault plan schema {schema!r}"
            )
        rules = payload.pop("rules", ())
        if not isinstance(rules, (list, tuple)):
            raise ConfigurationError(
                f"fault plan rules must be a list, got {rules!r}"
            )
        seed = payload.pop("seed", 0)
        if payload:
            raise ConfigurationError(
                f"unknown fault plan keys {sorted(payload)}"
            )
        return cls(rules=tuple(_rule(rule) for rule in rules), seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_spec(cls, raw: str) -> "FaultPlan":
        """Inline JSON when ``raw`` starts with ``{``, otherwise a path
        to a JSON file (the form the CLI flags take)."""
        raw = raw.strip()
        if raw.startswith("{"):
            return cls.from_json(raw)
        return cls.from_json(Path(raw).read_text())

    def unit(self, op: str, key: str, index: int) -> float:
        """Seeded uniform draw in [0, 1) for one (op, key, index)."""
        digest = hashlib.sha256(
            f"{self.seed}:{op}:{key}:{index}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def fire_execute(
        self,
        point_fields: Mapping[str, object],
        content_hash: str,
        attempt: int,
    ) -> None:
        """Inject the ``execute`` fault firing on this attempt, if any.

        Called by the runner (serial path) and the pool worker wrapper
        immediately before the real point computation. The attempt is
        the index, so a fresh selector per call keeps workers stateless.
        """
        rule = FaultSelector(self, "runner").consult(
            "execute", content_hash, attempt, point_fields
        )
        if rule is None:
            return
        if rule.kind == "hang":
            time.sleep(rule.hang_s)
            return
        if rule.kind == "kill":
            if multiprocessing.parent_process() is not None:
                # Hard-kill the worker: the parent sees a
                # BrokenProcessPool and must degrade to serial.
                os._exit(86)
            raise FaultInjectedError(
                f"injected kill (degraded to crash in main process) at "
                f"point {content_hash[:12]}… attempt {attempt}"
            )
        raise FaultInjectedError(
            f"injected {rule.kind} at point {content_hash[:12]}… "
            f"attempt {attempt}"
        )


class FaultSelector:
    """Stateful, thread-safe rule selection for one consumer of a plan.

    ``consumer`` is a consumer column of :data:`FIRES` (``runner``,
    ``driver``, ``objectstore`` or ``service``): rules of kinds it does
    not fire on the call's op are skipped without advancing their
    counters. Per-rule *matching-call* counters advance
    deterministically, so a given call sequence reproduces the same
    injections wherever the plan is consulted.
    """

    def __init__(self, plan: FaultPlan, consumer: str) -> None:
        self._plan = plan
        self._consumer = consumer
        self._lock = threading.Lock()
        self._seen: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._n_injected = 0

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def n_injected(self) -> int:
        with self._lock:
            return self._n_injected

    def consult(
        self,
        op: str,
        key: str,
        index: Optional[int] = None,
        fields: Optional[Mapping[str, object]] = None,
    ) -> Optional[FaultRule]:
        """First rule firing on this call, advancing counters.

        ``index`` is the caller's 1-based index for the call (the
        attempt, for ``execute``); ``None`` uses each rule's count of
        matching calls. ``fields`` are the point's, for ``match``.
        """
        kinds = FIRES[op].get(self._consumer, ())
        with self._lock:
            chosen = None
            for number, rule in enumerate(self._plan.rules):
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
                    fires = self._plan.unit(op, key, n) < rule.p
                if fires:
                    self._fired[number] = self._fired.get(number, 0) + 1
                    self._n_injected += 1
                    chosen = rule
            return chosen


__all__ = [
    "DRIVER_OPS",
    "FIRES",
    "PLAN_SCHEMA",
    "SERVICE_OPS",
    "STORAGE_PLAN_SCHEMA",
    "FaultPlan",
    "FaultRule",
    "FaultSelector",
]
