"""Pluggable fault-tolerant storage drivers for the campaign store.

Every byte of campaign state — point chunks, the manifest, lease
files, failure records, quarantine stamps — flows through a
:class:`StorageDriver`. The driver layer is where I/O faults
are absorbed: bounded retries with seeded-jitter backoff and optional
per-operation timeouts live in :class:`RetryingDriver`, crash-consistent
durability lives in :class:`PosixDriver` (fsync-on-commit). Faults
reach the stack through :class:`WrappingDriver`: the test harness
(``tests/chaos.py``) wraps a driver to inject I/O errors, torn writes
and latency, the way :class:`RetryingDriver` wraps one to absorb them.
A remote/object-store driver only has to honour the same contract to
inherit the campaign layer's entire fault story (HSDS's ``storUtil``
posix/S3/Azure split is the model).

The driver contract
===================

Keys are relative POSIX-style paths (``"points/<hash>.json"``). All
operations are synchronous. The guarantees below are what the store and
the lease protocol are built on — any new driver MUST provide them. The
lease protocol (:mod:`repro.campaign.leases`) runs on the store's own
retrying driver and names its keys in full, ``leases/<hash>.lease``, so
fault rules and retry keys see the same key the backend stores:

``get(key) -> bytes``
    Returns the *complete* value most recently committed at ``key``;
    raises :class:`~repro.errors.StorageMissingError` when absent. A
    reader never observes a torn value from a committed
    ``put_atomic``/``replace``.
``put_atomic(key, data)``
    All-or-nothing publication: after it returns, every subsequent
    ``get`` observes exactly ``data`` (visible-after-return); if the
    caller crashes mid-operation, readers observe the previous value
    (or absence), never a prefix. On durable backends the committed
    value also survives a host crash (fsync-on-commit).
``put_exclusive(key, data) -> bool``
    Atomic create-if-absent — the lease *claim* primitive. Exactly one
    of N concurrent callers on a vacant key returns ``True``, and no
    reader sees the key before its whole value.
``replace(key, data)``
    Atomic unconditional overwrite — the lease *steal/heartbeat*
    primitive. Visible-after-return with read-your-writes: a ``get``
    issued by any process after ``replace`` returns sees the new value
    (or a strictly later one), which is what makes
    replace-then-read-back resolve simultaneous stealers to one winner.
``delete(key) -> bool`` / ``exists(key)`` / ``stat(key)`` /
``list(prefix)`` / ``rename(key, new_key)``
    Bookkeeping; ``delete`` is idempotent, ``list`` never shows
    uncommitted temporaries, ``rename`` atomically moves a committed
    value (the quarantine primitive).

Errors are typed: :class:`~repro.errors.TransientStorageError` may
succeed on retry; :class:`~repro.errors.PersistentStorageError` will
not (the campaign runner degrades to read-only serving when a write
reaches it); :class:`~repro.errors.StorageMissingError` is an answer,
not a fault, and is never retried.

Doctest — the contract in miniature, on the in-process driver:

>>> from repro.campaign.storage import MemoryDriver
>>> driver = MemoryDriver()
>>> driver.put_atomic("points/a.json", b'{"x": 1}')
>>> driver.get("points/a.json")
b'{"x": 1}'
>>> driver.put_exclusive("leases/a.lease", b"owner-1")  # claim wins
True
>>> driver.put_exclusive("leases/a.lease", b"owner-2")  # claim loses
False
>>> driver.replace("leases/a.lease", b"owner-2")        # steal
>>> driver.get("leases/a.lease")                        # read-back
b'owner-2'
>>> driver.list("points/")
['points/a.json']
>>> driver.delete("leases/a.lease")
True
>>> driver.exists("leases/a.lease")
False
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Dict, List, Optional
from urllib.parse import urlsplit

from repro.campaign.retry import (
    STORAGE_RETRY,
    RetryPolicy,
    TransientRetry,
    call_with_timeout,
)
from repro.errors import (
    ConfigurationError,
    StorageMissingError,
    TransientStorageError,
)

#: The driver contract's operations (the names the object-store wire
#: protocol carries in ``X-Repro-Op``).
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


@dataclass(frozen=True)
class StorageStat:
    """Size and modification time of one committed value."""

    size: int
    mtime: float


def _check_key(key: str) -> str:
    """Validate a driver key: relative, normalised, no traversal."""
    if not key or key.startswith("/") or "\\" in key:
        raise ConfigurationError(
            f"storage keys are relative POSIX paths, got {key!r}"
        )
    path = PurePosixPath(key)
    if ".." in path.parts or str(path) != key:
        # str(path) != key catches the forms PurePosixPath would
        # silently normalise ("./x", "a//b", trailing "/"): a key must
        # name its object the same way list() will report it.
        raise ConfigurationError(
            f"storage keys must be normalised relative POSIX paths "
            f"without traversal, got {key!r}"
        )
    return key


class StorageDriver(ABC):
    """Abstract storage backend; see the module docstring contract.

    Concrete drivers record lightweight operation statistics
    (:meth:`stats`) so ``python -m repro.campaign status`` can report
    per-driver I/O counts without instrumentation.
    """

    name = "abstract"

    def __init__(self) -> None:
        self._stats_lock = threading.Lock()
        self._op_counts: Dict[str, int] = {}
        self._bytes_read = 0
        self._bytes_written = 0
        self._n_errors = 0

    # ------------------------------------------------------------------ #
    # contract
    # ------------------------------------------------------------------ #

    @abstractmethod
    def get(self, key: str) -> bytes:
        """Complete committed value at ``key``; StorageMissingError if absent."""

    @abstractmethod
    def put_atomic(self, key: str, data: bytes) -> None:
        """All-or-nothing durable publication of ``data`` at ``key``."""

    @abstractmethod
    def put_exclusive(self, key: str, data: bytes) -> bool:
        """Atomic create-if-absent; True iff this call created the key."""

    @abstractmethod
    def replace(self, key: str, data: bytes) -> None:
        """Atomic unconditional overwrite, visible-after-return."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key`` if present (idempotent); True iff removed."""

    @abstractmethod
    def list(self, prefix: str = "") -> List[str]:
        """Sorted committed keys starting with ``prefix``."""

    @abstractmethod
    def exists(self, key: str) -> bool:
        """True when ``key`` holds a committed value."""

    @abstractmethod
    def stat(self, key: str) -> StorageStat:
        """Size/mtime of ``key``; StorageMissingError if absent."""

    @abstractmethod
    def rename(self, key: str, new_key: str) -> None:
        """Atomically move ``key`` to ``new_key`` (replacing it)."""

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def _record(
        self, op: str, read: int = 0, wrote: int = 0, error: bool = False
    ) -> None:
        with self._stats_lock:
            self._op_counts[op] = self._op_counts.get(op, 0) + 1
            self._bytes_read += read
            self._bytes_written += wrote
            if error:
                self._n_errors += 1

    def stats(self) -> Dict[str, object]:
        """Operation counts and byte totals since construction."""
        with self._stats_lock:
            return {
                "driver": self.name,
                "ops": dict(sorted(self._op_counts.items())),
                "bytes_read": self._bytes_read,
                "bytes_written": self._bytes_written,
                "n_errors": self._n_errors,
            }


class PosixDriver(StorageDriver):
    """Local-filesystem driver: today's store layout, made durable.

    Writes commit via a temporary file in ``<root>/.tmp/`` followed by
    ``os.replace`` — readers and :meth:`list` never observe
    temporaries. Every commit fsyncs the file contents *and* the
    destination directory entry, so a host crash immediately after
    :meth:`put_atomic` returns can no longer leave a zero-length or
    missing chunk behind a manifest that saw it.
    """

    name = "posix"

    def __init__(self, root) -> None:
        super().__init__()
        self._root = Path(root)
        self._tmp_dir = self._root / ".tmp"
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    @property
    def spec(self) -> str:
        """URL spec reproducing this driver via :func:`build_driver`."""
        return f"posix://{self._root.resolve()}"

    def _path(self, key: str) -> Path:
        return self._root / PurePosixPath(_check_key(key))

    def _fsync_dir(self, directory: Path) -> None:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _write_tmp(self, key: str, data: bytes) -> Path:
        """Write ``data`` to a unique tmp file and fsync it."""
        self._tmp_dir.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_dir / (
            f"{PurePosixPath(key).name}.{os.getpid()}."
            f"{threading.get_ident()}.tmp"
        )
        fd = os.open(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o644)
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        return tmp

    def _commit(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._write_tmp(key, data)
        os.replace(tmp, path)
        self._fsync_dir(path.parent)

    def get(self, key: str) -> bytes:
        try:
            data = self._path(key).read_bytes()
        except FileNotFoundError:
            self._record("get", error=True)
            raise StorageMissingError(f"no value at {key!r}") from None
        except OSError as error:
            self._record("get", error=True)
            raise TransientStorageError(f"get({key!r}): {error}") from error
        self._record("get", read=len(data))
        return data

    def put_atomic(self, key: str, data: bytes) -> None:
        try:
            self._commit(key, data)
        except OSError as error:
            self._record("put_atomic", error=True)
            raise TransientStorageError(
                f"put_atomic({key!r}): {error}"
            ) from error
        self._record("put_atomic", wrote=len(data))

    def put_exclusive(self, key: str, data: bytes) -> bool:
        path = self._path(key)
        try:
            # Outside the link's handler: a parent that exists as a file
            # is a broken store, not a taken key.
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._write_tmp(key, data)
        except OSError as error:
            self._record("put_exclusive", error=True)
            raise TransientStorageError(
                f"put_exclusive({key!r}): {error}"
            ) from error
        try:
            # The key appears whole or not at all: an O_EXCL create
            # would show it empty until written, and a concurrent
            # claimer would steal that as a torn lease.
            os.link(tmp, path)
            self._fsync_dir(path.parent)
        except FileExistsError:
            self._record("put_exclusive")
            return False
        except OSError as error:
            self._record("put_exclusive", error=True)
            raise TransientStorageError(
                f"put_exclusive({key!r}): {error}"
            ) from error
        finally:
            tmp.unlink(missing_ok=True)
        self._record("put_exclusive", wrote=len(data))
        return True

    def replace(self, key: str, data: bytes) -> None:
        try:
            self._commit(key, data)
        except OSError as error:
            self._record("replace", error=True)
            raise TransientStorageError(
                f"replace({key!r}): {error}"
            ) from error
        self._record("replace", wrote=len(data))

    def delete(self, key: str) -> bool:
        self._record("delete")
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            return False
        except OSError as error:
            raise TransientStorageError(
                f"delete({key!r}): {error}"
            ) from error
        return True

    def list(self, prefix: str = "") -> List[str]:
        self._record("list")
        keys = []
        try:
            for dirpath, dirnames, filenames in os.walk(self._root):
                rel = Path(dirpath).relative_to(self._root)
                if rel.parts[:1] == (".tmp",):
                    dirnames[:] = []
                    continue
                for name in filenames:
                    key = str(PurePosixPath(*(rel.parts + (name,))))
                    if key.startswith(prefix):
                        keys.append(key)
        except OSError as error:
            raise TransientStorageError(
                f"list({prefix!r}): {error}"
            ) from error
        return sorted(keys)

    def exists(self, key: str) -> bool:
        self._record("exists")
        return self._path(key).is_file()

    def stat(self, key: str) -> StorageStat:
        self._record("stat")
        try:
            info = os.stat(self._path(key))
        except FileNotFoundError:
            raise StorageMissingError(f"no value at {key!r}") from None
        except OSError as error:
            raise TransientStorageError(
                f"stat({key!r}): {error}"
            ) from error
        return StorageStat(size=info.st_size, mtime=info.st_mtime)

    def rename(self, key: str, new_key: str) -> None:
        self._record("rename")
        src, dst = self._path(key), self._path(new_key)
        try:
            dst.parent.mkdir(parents=True, exist_ok=True)
            os.replace(src, dst)
            self._fsync_dir(dst.parent)
        except FileNotFoundError:
            raise StorageMissingError(f"no value at {key!r}") from None
        except OSError as error:
            raise TransientStorageError(
                f"rename({key!r} -> {new_key!r}): {error}"
            ) from error


class MemoryDriver(StorageDriver):
    """In-process driver: a dict under one lock.

    Hermetic and fast — the campaign test suite runs unchanged on it —
    and the template for remote drivers: every contract guarantee is
    trivially explicit here (exclusivity and replace-then-read-back are
    one lock acquisition), so a new backend can be diffed against it
    operation by operation.
    """

    name = "memory"
    spec = "memory://"

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()
        self._data: Dict[str, bytes] = {}
        self._mtimes: Dict[str, float] = {}

    def get(self, key: str) -> bytes:
        _check_key(key)
        with self._lock:
            if key not in self._data:
                self._record("get", error=True)
                raise StorageMissingError(f"no value at {key!r}")
            data = self._data[key]
        self._record("get", read=len(data))
        return data

    def put_atomic(self, key: str, data: bytes) -> None:
        _check_key(key)
        with self._lock:
            self._data[key] = bytes(data)
            self._mtimes[key] = time.time()
        self._record("put_atomic", wrote=len(data))

    def put_exclusive(self, key: str, data: bytes) -> bool:
        _check_key(key)
        with self._lock:
            if key in self._data:
                created = False
            else:
                self._data[key] = bytes(data)
                self._mtimes[key] = time.time()
                created = True
        self._record("put_exclusive", wrote=len(data) if created else 0)
        return created

    def replace(self, key: str, data: bytes) -> None:
        self.put_atomic(key, data)

    def delete(self, key: str) -> bool:
        _check_key(key)
        self._record("delete")
        with self._lock:
            self._mtimes.pop(key, None)
            return self._data.pop(key, None) is not None

    def list(self, prefix: str = "") -> List[str]:
        self._record("list")
        with self._lock:
            return sorted(k for k in self._data if k.startswith(prefix))

    def exists(self, key: str) -> bool:
        _check_key(key)
        self._record("exists")
        with self._lock:
            return key in self._data

    def stat(self, key: str) -> StorageStat:
        _check_key(key)
        self._record("stat")
        with self._lock:
            if key not in self._data:
                raise StorageMissingError(f"no value at {key!r}")
            return StorageStat(
                size=len(self._data[key]), mtime=self._mtimes[key]
            )

    def rename(self, key: str, new_key: str) -> None:
        _check_key(key)
        _check_key(new_key)
        self._record("rename")
        with self._lock:
            if key not in self._data:
                raise StorageMissingError(f"no value at {key!r}")
            self._data[new_key] = self._data.pop(key)
            self._mtimes[new_key] = self._mtimes.pop(key)


class WrappingDriver(StorageDriver):
    """Base of the drivers that wrap another driver and intercept calls.

    Every contract operation becomes one call of :meth:`_call` with the
    operation name, its key (the prefix for ``list``, the source for
    ``rename``) and a thunk performing it on :attr:`inner`; write
    operations also pass their payload as ``data``. A subclass supplies
    only that hook and its :meth:`stats`, which nest the inner layer's
    under ``"inner"`` so a stack such as ``retrying(breaker(http))``
    reports every layer without key collisions.
    """

    def __init__(self, inner: StorageDriver, label: str) -> None:
        super().__init__()
        self._inner = inner
        self.name = f"{label}({inner.name})"

    @property
    def inner(self) -> StorageDriver:
        return self._inner

    @abstractmethod
    def _call(self, op: str, key: str, fn, data: Optional[bytes] = None):
        """Perform ``fn()`` — the ``op`` on ``key`` — with this layer's
        behaviour around it."""

    def get(self, key: str) -> bytes:
        return self._call("get", key, lambda: self._inner.get(key))

    def put_atomic(self, key: str, data: bytes) -> None:
        return self._call(
            "put_atomic", key, lambda: self._inner.put_atomic(key, data), data
        )

    def put_exclusive(self, key: str, data: bytes) -> bool:
        return self._call(
            "put_exclusive",
            key,
            lambda: self._inner.put_exclusive(key, data),
            data,
        )

    def replace(self, key: str, data: bytes) -> None:
        return self._call(
            "replace", key, lambda: self._inner.replace(key, data), data
        )

    def delete(self, key: str) -> bool:
        return self._call("delete", key, lambda: self._inner.delete(key))

    def list(self, prefix: str = "") -> List[str]:
        return self._call("list", prefix, lambda: self._inner.list(prefix))

    def exists(self, key: str) -> bool:
        return self._call("exists", key, lambda: self._inner.exists(key))

    def stat(self, key: str) -> StorageStat:
        return self._call("stat", key, lambda: self._inner.stat(key))

    def rename(self, key: str, new_key: str) -> None:
        return self._call(
            "rename", key, lambda: self._inner.rename(key, new_key)
        )


class RetryingDriver(WrappingDriver):
    """Per-operation bounded retries + timeouts over any driver.

    Transient errors retry under ``policy`` (default
    :data:`~repro.campaign.retry.STORAGE_RETRY`) with the seeded-jitter
    backoff of each ``"<op>:<key>"``; exhaustion escalates to
    :class:`~repro.errors.PersistentStorageError` (which the campaign
    runner treats as "degrade to read-only"). Missing keys and
    already-persistent errors pass straight through. ``op_timeout_s``
    bounds each underlying operation's wall clock: a hung backend
    surfaces as a transient error and is retried instead of wedging
    the campaign.
    """

    def __init__(
        self,
        inner: StorageDriver,
        policy: Optional[RetryPolicy] = None,
        op_timeout_s: Optional[float] = None,
    ) -> None:
        super().__init__(inner, "retrying")
        if op_timeout_s is not None and op_timeout_s <= 0:
            raise ConfigurationError("op_timeout_s must be positive")
        self._retry = TransientRetry(
            policy if policy is not None else STORAGE_RETRY
        )
        self._op_timeout_s = op_timeout_s

    @property
    def policy(self) -> RetryPolicy:
        return self._retry.policy

    @property
    def n_retries(self) -> int:
        return self._retry.n_retries

    def _call(self, op: str, key: str, fn, data: Optional[bytes] = None):
        result, _ = self._retry.call(
            f"{op}:{key}",
            lambda: call_with_timeout(
                fn,
                self._op_timeout_s,
                TransientStorageError,
                "storage operation",
            ),
            f"{op}({key!r}) still failing",
        )
        return result

    def stats(self) -> Dict[str, object]:
        return {
            "driver": self.name,
            "n_retries": self.n_retries,
            "inner": self._inner.stats(),
        }


#: URL schemes :func:`parse_driver_spec` understands.
DRIVER_SCHEMES = ("posix", "memory", "http", "https")


def parse_driver_spec(spec: str) -> Dict[str, object]:
    """Parse a ``--storage-driver`` URL spec into its constituent parts:

    * ``posix:///abs/path`` — posix driver rooted at ``/abs/path``
      (overrides the store path for driver state);
    * ``memory://`` — hermetic in-process driver;
    * ``http://host:port/bucket`` — remote object-store driver
      talking to ``python -m repro.campaign serve``.

    Returns a dict with ``scheme`` plus scheme-specific fields
    (``root`` for posix, ``url`` for http). Round-trips: feeding a
    driver's ``spec`` attribute back through here reproduces the same
    configuration.

    >>> parse_driver_spec("memory://")["scheme"]
    'memory'
    >>> parse_driver_spec("posix:///tmp/store")["root"]
    '/tmp/store'
    >>> parse_driver_spec("http://127.0.0.1:8123/campaign")["url"]
    'http://127.0.0.1:8123/campaign'
    """
    if "://" not in spec:
        raise ConfigurationError(
            f"storage driver {spec!r} is not a URL spec; use "
            "posix:///path, memory:// or http(s)://host:port/bucket"
        )
    parts = urlsplit(spec)
    scheme = parts.scheme.lower()
    if scheme not in DRIVER_SCHEMES:
        raise ConfigurationError(
            f"unknown storage driver scheme {scheme!r} in {spec!r}; "
            f"supported schemes: {DRIVER_SCHEMES}"
        )
    if scheme == "memory":
        if parts.netloc or parts.path.strip("/"):
            raise ConfigurationError(
                f"memory:// takes no host or path, got {spec!r}"
            )
        return {"scheme": "memory"}
    if scheme == "posix":
        if parts.netloc:
            raise ConfigurationError(
                f"posix:// is local-only (use posix:///path), got {spec!r}"
            )
        if not parts.path:
            raise ConfigurationError(f"posix:// needs a path, got {spec!r}")
        return {"scheme": "posix", "root": parts.path}
    # http / https: host plus a single-segment bucket path.
    if not parts.netloc:
        raise ConfigurationError(
            f"{scheme}:// needs host[:port]/bucket, got {spec!r}"
        )
    bucket = parts.path.strip("/")
    if not bucket or "/" in bucket:
        raise ConfigurationError(
            f"{scheme}:// needs exactly one bucket path segment, "
            f"got {spec!r}"
        )
    return {
        "scheme": scheme,
        "url": f"{scheme}://{parts.netloc}/{bucket}",
        "netloc": parts.netloc,
        "bucket": bucket,
    }


def build_driver(spec: Optional[str] = None, root=None) -> StorageDriver:
    """Construct a driver from a ``--storage-driver`` spec.

    ``spec`` is a URL spec (see :func:`parse_driver_spec`), or ``None``
    for posix at ``root``. ``http(s)://`` specs come wrapped in the
    circuit breaker
    (:class:`~repro.campaign.objectstore.CircuitBreakerDriver`) so
    persistent network failure degrades instead of wedging.
    """
    parsed = (
        {"scheme": "posix", "root": root}
        if spec is None
        else parse_driver_spec(spec)
    )
    if parsed["scheme"] == "memory":
        return MemoryDriver()
    if parsed["scheme"] == "posix":
        if parsed["root"] is None:
            raise ConfigurationError(
                "a posix driver needs a store root (a directory, or a "
                "posix:///path spec)"
            )
        return PosixDriver(parsed["root"])
    # Imported lazily: objectstore builds on this module.
    from repro.campaign.objectstore import CircuitBreakerDriver, HttpDriver

    return CircuitBreakerDriver(HttpDriver(parsed["url"]))


__all__ = [
    "DRIVER_OPS",
    "DRIVER_SCHEMES",
    "MemoryDriver",
    "PosixDriver",
    "RetryingDriver",
    "StorageDriver",
    "StorageStat",
    "WrappingDriver",
    "build_driver",
    "parse_driver_spec",
]
