"""Point leases: atomic claim/heartbeat/expiry over a shared store.

This is the worker claim protocol the ROADMAP's multi-host campaign
direction calls for: N concurrent :class:`~repro.campaign.runner.
CampaignRunner`\\ s pointed at one :class:`~repro.campaign.store.
CampaignStore` partition the pending points without duplicating work,
and a killed worker's points become reclaimable once its lease expires.
Because points are content-addressed and execution is deterministic,
*correctness never depends on the leases* — a lost race at worst
recomputes a point whose chunk write is idempotent (bit-identical
content under the same hash). Leases only prevent wasted duplicate
computation and give ``status`` a live "running" view.

Protocol (one key per claimed point, ``<hash>.lease``), expressed
entirely in :class:`~repro.campaign.storage.StorageDriver` primitives
so it works unchanged over posix, memory, or a future remote backend:

* **Claim** — ``put_exclusive`` (atomic create-if-absent): exactly one
  worker wins a vacant point.
* **Heartbeat** — the owner periodically rewrites the lease with
  ``replace`` pushing the deadline forward; deadlines only ever move
  forward (monotone renewal), never backward.
* **Expiry/steal** — a lease whose deadline has passed (or that is
  unreadable) is dead: a claimant ``replace``\\ s it atomically and
  then reads the key back; whoever's owner id survived the replace
  owns the point. Replace-then-read-back means two simultaneous
  stealers resolve to exactly one winner (the driver contract's
  read-your-writes guarantee makes the read-back decisive).
* **Release** — the owner ``delete``\\ s the key after checkpointing
  the chunk (or on failure, so other workers may try).

Storage faults never corrupt the protocol: a claim that hits a
transient driver error is simply *not acquired* (the point is skipped
this pass and revisited), and a torn lease payload reads as expired.
The heartbeat thread survives transient faults too — it logs once and
retries every tick, giving up only after a full TTL of continuous
failure (at which point the lease is legitimately stealable anyway).

Deadlines are wall-clock (:func:`time.time`): lease payloads must be
comparable *across processes and hosts*, where monotonic clocks have
no common epoch. The TTL should comfortably exceed the heartbeat
interval (the runner heartbeats at ``ttl/3``), so ordinary clock skew
is absorbed by the margin.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
import uuid
from typing import Dict, List, Optional, Union

from repro.campaign.storage import PosixDriver, StorageDriver
from repro.errors import StorageError

log = logging.getLogger("repro.campaign.leases")

LEASE_SCHEMA = "repro-campaign-lease-v1"

#: Default lease time-to-live. Long enough that a healthy worker's
#: heartbeat (ttl/3) never lets its own lease lapse; short enough that
#: a killed worker's points come back quickly.
DEFAULT_TTL_S = 30.0


def default_owner_id() -> str:
    """A process-unique owner id: host, pid, and a random tail."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def _deadline(payload: Dict[str, object]) -> float:
    """A lease payload's deadline as a float; 0.0 (expired) when the
    field is missing or not a number — a mangled deadline must read as
    stealable, never crash the claim path."""
    value = payload.get("deadline", 0.0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0.0
    return float(value)


def parse_lease(data: bytes) -> Optional[Dict[str, object]]:
    """Decode one lease payload, or ``None`` when torn/foreign.

    An undecodable payload is treated as expired by callers — the
    claim protocol then replaces it atomically.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != LEASE_SCHEMA
    ):
        return None
    return payload


def _lease_key(content_hash: str) -> str:
    """The key of a point's lease in a lease-scoped driver."""
    return f"{content_hash}.lease"


def _read_lease(
    driver: StorageDriver, content_hash: str
) -> Optional[Dict[str, object]]:
    """A point's lease payload, or ``None`` when vacant/torn/unreadable."""
    try:
        return parse_lease(driver.get(_lease_key(content_hash)))
    except StorageError:
        return None


def live_lease(
    driver: StorageDriver, content_hash: str
) -> Optional[Dict[str, object]]:
    """The live lease on a point, or ``None`` if vacant, expired, torn
    or unreadable."""
    current = _read_lease(driver, content_hash)
    if current is None or _deadline(current) <= time.time():
        return None
    return current


def scan_lease_backend(driver: StorageDriver) -> List[Dict[str, object]]:
    """All readable leases in a lease-scoped driver (may include
    expired). Torn or concurrently-deleted entries are skipped."""
    leases = []
    try:
        keys = driver.list()
    except StorageError:
        return []
    for key in keys:
        if not key.endswith(".lease"):
            continue
        try:
            payload = parse_lease(driver.get(key))
        except StorageError:
            continue
        if payload is not None:
            leases.append(payload)
    return leases


class LeaseManager:
    """Claim, renew, and release point leases in one backend.

    Parameters
    ----------
    backend:
        Either a lease-scoped :class:`~repro.campaign.storage.
        StorageDriver` (the store hands out its ``lease_backend``), or
        a filesystem directory (``<store>/leases``) which is wrapped
        in a :class:`~repro.campaign.storage.PosixDriver` — the
        pre-driver call sites keep working.
    owner:
        Stable id stamped into every lease this manager writes.
    ttl_s:
        Seconds a lease stays valid past its last (re)write.
    """

    def __init__(
        self,
        backend: Union[StorageDriver, str, "os.PathLike[str]"],
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_TTL_S,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl_s}")
        if isinstance(backend, StorageDriver):
            self._driver = backend
        else:
            self._driver = PosixDriver(backend)
        self._owner = owner or default_owner_id()
        self._ttl_s = float(ttl_s)
        self._held: Dict[str, int] = {}  # hash -> renewal count
        self._lock = threading.Lock()

    @property
    def owner(self) -> str:
        return self._owner

    @property
    def ttl_s(self) -> float:
        return self._ttl_s

    @property
    def backend(self) -> StorageDriver:
        return self._driver

    @property
    def held(self) -> List[str]:
        with self._lock:
            return sorted(self._held)

    def _payload(self, content_hash: str, renewals: int) -> bytes:
        now = time.time()
        text = json.dumps(
            {
                "schema": LEASE_SCHEMA,
                "content_hash": content_hash,
                "owner": self._owner,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "acquired_at": now,
                "deadline": now + self._ttl_s,
                "renewals": renewals,
            },
            sort_keys=True,
        )
        return (text + "\n").encode("utf-8")

    def _read(self, content_hash: str) -> Optional[Dict[str, object]]:
        """Current lease payload, or ``None`` when vacant/torn/unreadable."""
        return _read_lease(self._driver, content_hash)

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #

    def acquire(self, content_hash: str) -> bool:
        """Try to claim ``content_hash``; True when this owner now holds it.

        Vacant points are claimed with an exclusive create. A live
        lease by another owner loses the claim. An expired or
        unreadable lease is stolen with replace-then-read-back: after
        the atomic replace the key is read back, and only the owner
        whose payload survived wins — simultaneous stealers resolve to
        one. A storage fault mid-claim simply loses the claim (the
        point is revisited on a later pass); it never corrupts state.
        """
        key = _lease_key(content_hash)
        try:
            if self._driver.put_exclusive(
                key, self._payload(content_hash, 0)
            ):
                with self._lock:
                    self._held[content_hash] = 0
                return True

            current = self._read(content_hash)
            if (
                current is not None
                and _deadline(current) > time.time()
                and current.get("owner") != self._owner
            ):
                return False  # live lease held elsewhere
            # Expired, torn, or our own stale entry: steal and verify.
            self._driver.replace(key, self._payload(content_hash, 0))
            winner = self._read(content_hash)
        except StorageError as error:
            log.debug(
                "lease claim on %s lost to storage fault: %s",
                content_hash,
                error,
            )
            return False
        if winner is not None and winner.get("owner") == self._owner:
            with self._lock:
                self._held[content_hash] = 0
            return True
        return False

    def renew(self, content_hash: str) -> bool:
        """Heartbeat one held lease; False when it was lost (stolen).

        Storage faults propagate to the caller (the heartbeat thread
        absorbs and retries them) — a fault is *not* evidence the
        lease was lost.
        """
        current = self._read(content_hash)
        if current is None or current.get("owner") != self._owner:
            with self._lock:
                self._held.pop(content_hash, None)
            return False
        with self._lock:
            renewals = self._held.get(content_hash, 0) + 1
            self._held[content_hash] = renewals
        self._driver.replace(
            _lease_key(content_hash), self._payload(content_hash, renewals)
        )
        return True

    def renew_held(self) -> None:
        """Heartbeat every lease this manager still holds.

        Every held lease is attempted even when some fail; the last
        storage fault (if any) is re-raised so the heartbeat thread
        can track continuous-failure duration.
        """
        last_error: Optional[StorageError] = None
        for content_hash in self.held:
            try:
                self.renew(content_hash)
            except StorageError as error:
                last_error = error
        if last_error is not None:
            raise last_error

    def release(self, content_hash: str) -> None:
        """Drop a held lease (after checkpoint or failure record)."""
        with self._lock:
            self._held.pop(content_hash, None)
        current = self._read(content_hash)
        if current is not None and current.get("owner") == self._owner:
            try:
                self._driver.delete(_lease_key(content_hash))
            except StorageError:
                pass  # expires on its own; never block completion on it

    def release_all(self) -> None:
        for content_hash in self.held:
            self.release(content_hash)

    def holder(self, content_hash: str) -> Optional[Dict[str, object]]:
        """The live lease on a point, or ``None`` if vacant/expired."""
        return live_lease(self._driver, content_hash)


class HeartbeatThread:
    """Daemon thread renewing a :class:`LeaseManager`'s held leases.

    Runs at ``ttl/3`` so a healthy worker never lets its own leases
    lapse, even while a long point computes; stops promptly when asked.

    Transient storage faults do not kill the thread: the first failure
    is logged once, and renewal is retried on every subsequent tick.
    Only after a full lease TTL of *continuous* failure does the
    thread give up — by then the leases have expired and are fair game
    for other workers, so continuing would only spam the backend.
    """

    def __init__(self, leases: LeaseManager) -> None:
        self._leases = leases
        self._stop = threading.Event()
        self._gave_up = False
        self._thread = threading.Thread(
            target=self._run, name="campaign-lease-heartbeat", daemon=True
        )

    @property
    def gave_up(self) -> bool:
        """True when the thread exited after TTL-long storage failure."""
        return self._gave_up

    def _run(self) -> None:
        interval = self._leases.ttl_s / 3.0
        failing_since: Optional[float] = None
        while not self._stop.wait(interval):
            try:
                self._leases.renew_held()
            except StorageError as error:
                now = time.monotonic()
                if failing_since is None:
                    failing_since = now
                    log.warning(
                        "lease heartbeat hit a storage fault (%s); "
                        "will keep retrying every %.1fs tick",
                        error,
                        interval,
                    )
                if now - failing_since >= self._leases.ttl_s:
                    log.error(
                        "lease heartbeat failing continuously for a "
                        "full ttl (%.1fs); giving up — held leases "
                        "have expired and may be stolen",
                        self._leases.ttl_s,
                    )
                    self._gave_up = True
                    return
            else:
                failing_since = None

    def __enter__(self) -> "HeartbeatThread":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self._leases.ttl_s)


__all__ = [
    "DEFAULT_TTL_S",
    "LEASE_SCHEMA",
    "HeartbeatThread",
    "LeaseManager",
    "default_owner_id",
    "live_lease",
    "parse_lease",
    "scan_lease_backend",
]
