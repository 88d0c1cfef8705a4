"""Content-hash-keyed persistent campaign results store.

Layout (one key namespace per store, identical on every backend)::

    <root>/
      manifest.json          index: {hash: summary row}, rebuildable
      points/<hash>.json     one chunk per completed point (source of
                             truth: point + metrics + provenance)
      points/<hash>.npz      optional array payload for the point
      leases/<hash>.lease    live worker claims (repro.campaign.leases)
      failures/<hash>.json   per-point failure record (attempts, errors)
      quarantine/            corrupt chunks moved aside, with a reason
                             stamp per chunk (never served, recomputed)

Every byte flows through a :class:`~repro.campaign.storage.
StorageDriver` — posix (the default, now fsync-on-commit durable),
memory (hermetic tests), or a fault-injecting wrapper — wrapped in a
:class:`~repro.campaign.storage.RetryingDriver` so transient I/O
errors are absorbed with bounded seeded-jitter backoff before the
store ever sees them. Retry exhaustion surfaces as
:class:`~repro.errors.PersistentStorageError`, which the runner turns
into read-only degradation.

The chunk files are the durable record; the manifest is a *derived*
index, regenerated by :meth:`CampaignStore.rebuild_manifest` whenever
:meth:`manifest` finds it missing or disagreeing with the chunks on
disk (so checkpointing a point costs one chunk write, independent of
store size, and a run killed at any moment leaves a store that heals
itself). Everything is written atomically (``put_atomic``). That is
what makes campaign runs resumable: re-running a campaign loads every
completed point bit-for-bit (floats survive the JSON round trip
exactly — ``json`` emits shortest round-trip reprs) and computes only
what is missing.

Integrity: every chunk read re-verifies the record — the JSON must
decode, carry the store schema, embed a point whose recomputed
``content_hash`` equals the key, and any referenced ``.npz`` payload
must be a readable archive. A chunk failing any check is moved to
``quarantine/`` with a reason stamp and treated as missing, so a torn
write that *landed silently* (a non-atomic backend, a bad disk, or
manual tampering) can never poison the bit-for-bit warm-rerun
contract: the runner simply recomputes the point and the store heals.
A torn write that raises is healed by the writer's driver-level retry;
a reader that sees its prefix in between, under the writer's live
lease, re-reads instead of quarantining (:meth:`CampaignStore.
verify_chunk`).

Doctest — save, hit, reload:

>>> import tempfile
>>> from repro.campaign.spec import CampaignPoint
>>> from repro.campaign.store import CampaignStore
>>> point = CampaignPoint(
...     deployment={"kind": "paper", "n_devices": 4, "seed": 3},
...     config={}, n_devices=2, n_rounds=1, query_bits=32,
...     engine="analytic", noise_mode="payload", fading=False,
...     readout_dtype=None, seed=99)
>>> store = CampaignStore(tempfile.mkdtemp())
>>> store.has(point)
False
>>> _ = store.save(point, {"phy_rate_bps": 1250.0},
...                {"backend": "analytic"})
>>> store.has(point)
True
>>> store.load(point)["metrics"]["phy_rate_bps"]
1250.0
"""

from __future__ import annotations

import io
import json
import logging
import time
import zipfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.campaign.leases import live_lease, scan_lease_backend
from repro.campaign.retry import RetryPolicy
from repro.campaign.spec import CampaignPoint
from repro.campaign.storage import (
    PosixDriver,
    PrefixDriver,
    RetryingDriver,
    StorageDriver,
)
from repro.errors import (
    CampaignIntegrityError,
    ReproError,
    StorageError,
    StorageMissingError,
)

log = logging.getLogger("repro.campaign.store")

#: Schema stamped on the manifest and on every chunk.
STORE_SCHEMA = "repro-campaign-store-v1"

#: Schema stamped on per-point failure records.
FAILURE_SCHEMA = "repro-campaign-failure-v1"

#: Point-summary fields the manifest indexes (all scalar, all drawn
#: from the chunk, so the manifest is always rebuildable). Nothing
#: driver- or host-specific ever enters a row: manifests built over
#: different storage backends are byte-identical for the same points.
_SUMMARY_AXES = (
    "n_devices",
    "n_rounds",
    "query_bits",
    "engine",
    "noise_mode",
    "fading",
    "seed",
)


class CampaignStore:
    """Persistent, resumable, content-addressed campaign results.

    Parameters
    ----------
    root:
        Store directory for the default posix backend (created if
        missing). Ignored when ``driver`` is given a non-posix backend.
    driver:
        Storage backend; defaults to ``PosixDriver(root)``. Always
        wrapped in a :class:`~repro.campaign.storage.RetryingDriver`
        (unless it already is one) so the store only ever sees
        missing-key or persistent errors.
    retry:
        Retry policy for the wrapping retrying driver.
    """

    def __init__(
        self,
        root=None,
        *,
        driver: Optional[StorageDriver] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if driver is None:
            if root is None:
                raise ValueError(
                    "CampaignStore needs a root directory or a driver"
                )
            driver = PosixDriver(root)
        if isinstance(driver, RetryingDriver):
            retrying = driver
        else:
            retrying = RetryingDriver(driver, retry)
        self._driver = retrying
        self._root = Path(root) if root is not None else None
        if self._root is None:
            base = retrying.inner
            inner = getattr(base, "inner", base)
            posix_root = getattr(inner, "root", None)
            if posix_root is not None:
                self._root = Path(posix_root)

    @property
    def root(self) -> Optional[Path]:
        """Posix store directory, or ``None`` on non-filesystem backends."""
        return self._root

    @property
    def driver(self) -> RetryingDriver:
        """The (retry-wrapped) storage driver all store I/O goes through."""
        return self._driver

    @property
    def lease_backend(self) -> StorageDriver:
        """A lease-scoped view of the driver for :class:`~repro.
        campaign.leases.LeaseManager` — same backend, ``leases/``
        namespace, same retry envelope."""
        return PrefixDriver(self._driver, "leases/")

    # ------------------------------------------------------------------ #
    # chunk access
    # ------------------------------------------------------------------ #

    def _chunk_key(self, content_hash: str) -> str:
        return f"points/{content_hash}.json"

    def _npz_key(self, content_hash: str) -> str:
        return f"points/{content_hash}.npz"

    def has(self, point: CampaignPoint, owner: Optional[str] = None) -> bool:
        """True when a *verified* chunk exists for this exact content.

        A chunk that exists but fails integrity verification is
        quarantined and reported missing, so the runner recomputes it.
        ``owner`` is the reader's lease owner (see :meth:`verify_chunk`).
        """
        content_hash = point.content_hash()
        if not self._driver.exists(self._chunk_key(content_hash)):
            return False
        try:
            self.verify_chunk(content_hash, owner)
        except CampaignIntegrityError:
            return False
        return True

    def save(
        self,
        point: CampaignPoint,
        metrics: Mapping[str, object],
        provenance: Mapping[str, object],
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        elapsed_s: Optional[float] = None,
    ):
        """Persist one completed point; returns the chunk location
        (a filesystem path on posix backends, the driver key otherwise).

        Only the chunk is written — O(1) in store size, so per-point
        checkpointing stays cheap on large stores. The manifest is
        re-derived lazily by :meth:`manifest` when next consulted. A
        successful save clears any failure record left by earlier
        attempts.
        """
        content_hash = point.content_hash()
        chunk_key = self._chunk_key(content_hash)
        payload: Dict[str, object] = {
            "schema": STORE_SCHEMA,
            "content_hash": content_hash,
            "point": point.to_dict(),
            "metrics": dict(metrics),
            "provenance": dict(provenance),
        }
        if elapsed_s is not None:
            payload["elapsed_s"] = float(elapsed_s)
        payload["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        if arrays:
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **dict(arrays))
            self._driver.put_atomic(
                self._npz_key(content_hash), buffer.getvalue()
            )
            payload["arrays_file"] = f"{content_hash}.npz"
        chunk_data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self._driver.put_atomic(chunk_key, chunk_data)
        self.clear_failure(content_hash)
        if self._root is not None:
            return self._root / chunk_key
        return chunk_key

    def load(
        self, point: CampaignPoint, owner: Optional[str] = None
    ) -> Dict[str, object]:
        """Full stored payload for ``point`` (metrics, provenance, …).

        Array payloads saved alongside the chunk are loaded back under
        the ``"arrays"`` key. ``owner`` is the reader's lease owner (see
        :meth:`verify_chunk`).
        """
        return self.load_hash(point.content_hash(), owner)

    # ------------------------------------------------------------------ #
    # integrity + quarantine
    # ------------------------------------------------------------------ #

    def quarantine_chunk(self, content_hash: str, reason: str) -> str:
        """Move a chunk (and its npz) out of ``points/`` with a reason
        stamp; returns the quarantined chunk key. Idempotent."""
        moved = f"quarantine/{content_hash}.json"
        try:
            self._driver.rename(self._chunk_key(content_hash), moved)
        except StorageMissingError:
            pass
        try:
            self._driver.rename(
                self._npz_key(content_hash),
                f"quarantine/{content_hash}.npz",
            )
        except StorageMissingError:
            pass
        stamp = json.dumps(
            {
                "schema": STORE_SCHEMA,
                "content_hash": content_hash,
                "reason": reason,
                "quarantined_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            indent=2,
            sort_keys=True,
        )
        self._driver.put_atomic(
            f"quarantine/{content_hash}.reason.json",
            (stamp + "\n").encode("utf-8"),
        )
        return moved

    def quarantined(self) -> Dict[str, str]:
        """``{content_hash: reason}`` for every quarantined chunk."""
        reasons: Dict[str, str] = {}
        suffix = ".reason.json"
        for key in self._driver.list("quarantine/"):
            if not key.endswith(suffix):
                continue
            stem = key[len("quarantine/") : -len(suffix)]
            try:
                payload = json.loads(self._driver.get(key).decode("utf-8"))
                reasons[payload["content_hash"]] = payload["reason"]
            except (ValueError, KeyError, StorageError):
                reasons[stem] = "unknown"
        return reasons

    def verify_chunk(
        self, content_hash: str, owner: Optional[str] = None
    ) -> Dict[str, object]:
        """Verified chunk payload; quarantines and raises on corruption.

        Checks, in order: the JSON decodes to a dict, carries the store
        schema, names its own hash, embeds a point whose *recomputed*
        content hash equals the key (so a renamed or tampered chunk can
        never serve the wrong physics), and any referenced array
        payload is a readable archive.

        A chunk that does not decode while another holder's lease on
        it is live is a write in progress, not corruption: a torn
        attempt that raised lands its prefix at the key until the
        holder's retry replaces it. It is re-read under the driver's
        retry policy, and quarantined only once no other holder's live
        lease is left. If the lease outlives the re-reads, the chunk
        stays in place and reads as missing (``CampaignIntegrityError``).
        ``owner`` is the reader's own lease owner, whose leases do not
        count; ``None`` counts every live lease.
        """
        chunk_key = self._chunk_key(content_hash)
        policy = self._driver.policy
        attempt = 1
        while True:
            try:
                raw = self._driver.get(chunk_key)
            except StorageMissingError:
                raise ReproError(
                    f"campaign store has no point {content_hash[:12]}… "
                    f"under {self._root or self._driver.name}"
                ) from None
            try:
                payload = json.loads(raw.decode("utf-8"))
                break
            except (UnicodeDecodeError, ValueError):
                holder = live_lease(self.lease_backend, content_hash)
                if holder is None or holder.get("owner") == owner:
                    raise self._quarantine_and_raise(
                        content_hash, "undecodable-json"
                    )
            if attempt >= policy.max_attempts:
                raise CampaignIntegrityError(
                    f"chunk {content_hash[:12]}… is still undecodable "
                    f"under {holder.get('owner')}'s live lease after "
                    f"{attempt} reads; left in place"
                )
            time.sleep(policy.backoff_s(f"verify:{chunk_key}", attempt))
            attempt += 1
        if not isinstance(payload, dict):
            raise self._quarantine_and_raise(content_hash, "not-an-object")
        if payload.get("schema") != STORE_SCHEMA:
            raise self._quarantine_and_raise(
                content_hash,
                f"schema-mismatch:{payload.get('schema')!r}",
            )
        if payload.get("content_hash") != content_hash:
            raise self._quarantine_and_raise(
                content_hash, "content-hash-field-mismatch"
            )
        try:
            recomputed = CampaignPoint.from_dict(
                dict(payload["point"])
            ).content_hash()
        except Exception:
            raise self._quarantine_and_raise(content_hash, "invalid-point")
        if recomputed != content_hash:
            raise self._quarantine_and_raise(
                content_hash, "content-hash-mismatch"
            )
        if "arrays_file" in payload:
            try:
                npz_raw = self._driver.get(self._npz_key(content_hash))
            except StorageMissingError:
                raise self._quarantine_and_raise(
                    content_hash, "torn-array-payload"
                )
            if not zipfile.is_zipfile(io.BytesIO(npz_raw)):
                raise self._quarantine_and_raise(
                    content_hash, "torn-array-payload"
                )
        return payload

    def _quarantine_and_raise(
        self, content_hash: str, reason: str
    ) -> CampaignIntegrityError:
        self.quarantine_chunk(content_hash, reason)
        return CampaignIntegrityError(
            f"chunk {content_hash[:12]}… failed integrity check "
            f"({reason}); moved to quarantine/"
        )

    def _read_chunk(self, content_hash: str) -> Dict[str, object]:
        """The chunk's verified JSON payload, without loading arrays."""
        return self.verify_chunk(content_hash)

    def load_hash(
        self, content_hash: str, owner: Optional[str] = None
    ) -> Dict[str, object]:
        payload = self.verify_chunk(content_hash, owner)
        if "arrays_file" in payload:
            try:
                raw = self._driver.get(self._npz_key(content_hash))
                with np.load(io.BytesIO(raw)) as data:
                    payload["arrays"] = {k: data[k] for k in data.files}
            except Exception:
                raise self._quarantine_and_raise(
                    content_hash, "unreadable-array-payload"
                )
        return payload

    # ------------------------------------------------------------------ #
    # failure records
    # ------------------------------------------------------------------ #

    def _failure_key(self, content_hash: str) -> str:
        return f"failures/{content_hash}.json"

    def record_failure(
        self,
        point: CampaignPoint,
        attempts: List[Mapping[str, object]],
        status: str,
        owner: Optional[str] = None,
    ) -> str:
        """Persist the failure history of a point (atomic, idempotent).

        ``status`` is ``"retrying"`` while attempts remain and
        ``"failed"`` once the retry budget is exhausted; the record is
        removed by the next successful :meth:`save`.
        """
        content_hash = point.content_hash()
        key = self._failure_key(content_hash)
        text = json.dumps(
            {
                "schema": FAILURE_SCHEMA,
                "content_hash": content_hash,
                "point": point.to_dict(),
                "status": status,
                "owner": owner,
                "attempts": [dict(a) for a in attempts],
                "updated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            indent=2,
            sort_keys=True,
        )
        self._driver.put_atomic(key, (text + "\n").encode("utf-8"))
        return key

    def clear_failure(self, content_hash: str) -> None:
        try:
            self._driver.delete(self._failure_key(content_hash))
        except StorageError:
            pass  # a stale record only costs a later clear

    def load_failure(
        self, content_hash: str
    ) -> Optional[Dict[str, object]]:
        try:
            payload = json.loads(
                self._driver.get(
                    self._failure_key(content_hash)
                ).decode("utf-8")
            )
        except (StorageError, UnicodeDecodeError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def failures(self) -> List[Dict[str, object]]:
        """Every persisted failure record, sorted by content hash."""
        records = []
        for key in self._driver.list("failures/"):
            if not key.endswith(".json"):
                continue
            record = self.load_failure(
                key[len("failures/") : -len(".json")]
            )
            if record is not None:
                records.append(record)
        return records

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #

    def _summary_row(self, payload: Mapping[str, object]) -> Dict:
        point = dict(payload["point"])
        row = {axis: point[axis] for axis in _SUMMARY_AXES}
        row["file"] = f"points/{payload['content_hash']}.json"
        provenance = dict(payload.get("provenance", {}))
        for key in ("backend", "noise_version"):
            if key in provenance:
                row[key] = provenance[key]
        return row

    def _read_manifest(self) -> Dict[str, object]:
        """Best-effort read of the persisted index.

        The manifest is *derived* state: a missing, torn, or
        stale-schema value is simply discarded (the caller rebuilds
        from the chunks) rather than raised on.
        """
        try:
            data = json.loads(
                self._driver.get("manifest.json").decode("utf-8")
            )
        except StorageMissingError:
            return {"schema": STORE_SCHEMA, "points": {}}
        except (StorageError, UnicodeDecodeError, ValueError):
            return {"schema": STORE_SCHEMA, "points": None}
        if (
            not isinstance(data, dict)
            or data.get("schema") != STORE_SCHEMA
        ):
            return {"schema": STORE_SCHEMA, "points": None}
        data.setdefault("points", {})
        return data

    def _chunk_hashes(self) -> List[str]:
        return sorted(
            key[len("points/") : -len(".json")]
            for key in self._driver.list("points/")
            if key.endswith(".json")
        )

    def rebuild_manifest(self) -> Dict[str, object]:
        """Re-derive the manifest from the chunks (the truth).

        Corrupt chunks discovered during the sweep are quarantined and
        left out of the index instead of aborting the rebuild. Because
        the manifest is derived state, a storage fault while persisting
        it is logged and swallowed — the in-memory copy is still
        returned and the next consult re-derives again.
        """
        manifest: Dict[str, object] = {
            "schema": STORE_SCHEMA,
            "points": {},
        }
        for content_hash in self._chunk_hashes():
            try:
                payload = self._read_chunk(content_hash)
            except CampaignIntegrityError:
                continue
            manifest["points"][content_hash] = self._summary_row(payload)
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        try:
            self._driver.put_atomic(
                "manifest.json", text.encode("utf-8")
            )
        except StorageError as error:
            log.warning(
                "could not persist rebuilt manifest (%s); serving the "
                "in-memory copy — it re-derives on next consult",
                error,
            )
        return manifest

    def manifest(self) -> Dict[str, object]:
        """The store index, self-healing against chunk/index drift."""
        manifest = self._read_manifest()
        if manifest["points"] is None or sorted(
            manifest["points"]
        ) != self._chunk_hashes():
            manifest = self.rebuild_manifest()
        return manifest

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._chunk_hashes())

    def active_leases(self) -> List[Dict[str, object]]:
        """Live (unexpired) worker claims on this store's points."""
        now = time.time()
        return [
            lease
            for lease in scan_lease_backend(self.lease_backend)
            if float(lease.get("deadline", 0.0)) > now
        ]

    def status(self) -> Dict[str, object]:
        """Aggregate summary for ``python -m repro.campaign status``."""
        manifest = self.manifest()
        points = manifest["points"]
        by_engine: Dict[str, int] = {}
        by_backend: Dict[str, int] = {}
        by_noise: Dict[str, int] = {}
        for row in points.values():
            by_engine[row["engine"]] = by_engine.get(row["engine"], 0) + 1
            backend = row.get("backend", "?")
            by_backend[backend] = by_backend.get(backend, 0) + 1
            by_noise[row["noise_mode"]] = (
                by_noise.get(row["noise_mode"], 0) + 1
            )
        size = 0
        for key in self._driver.list("points/"):
            try:
                size += self._driver.stat(key).size
            except StorageError:
                continue
        failures = self.failures()
        return {
            "root": str(self._root) if self._root else self._driver.name,
            "schema": STORE_SCHEMA,
            "n_points": len(points),
            "by_engine": by_engine,
            "by_backend": by_backend,
            "by_noise_mode": by_noise,
            "store_bytes": int(size),
            "n_leased": len(self.active_leases()),
            "n_failed": sum(
                1 for r in failures if r.get("status") == "failed"
            ),
            "n_retrying": sum(
                1 for r in failures if r.get("status") == "retrying"
            ),
            "n_quarantined": len(self.quarantined()),
            "quarantine_reasons": self.quarantined(),
            "storage": self._driver.stats(),
        }

    def export_rows(self) -> List[Dict[str, object]]:
        """One merged flat row per stored point (axes + metrics +
        provenance), sorted by (engine, noise_mode, fading, n_devices)
        so exports are stable regardless of completion order."""
        rows = []
        for content_hash in self._chunk_hashes():
            try:
                payload = self._read_chunk(content_hash)
            except CampaignIntegrityError:
                continue
            row: Dict[str, object] = {"content_hash": content_hash}
            point = dict(payload["point"])
            for axis in _SUMMARY_AXES:
                row[axis] = point[axis]
            for key, value in dict(payload["metrics"]).items():
                row[key] = value
            for key, value in dict(payload["provenance"]).items():
                row.setdefault(key, value)
            rows.append(row)
        rows.sort(
            key=lambda r: (
                str(r["engine"]),
                str(r["noise_mode"]),
                bool(r["fading"]),
                int(r["n_devices"]),
                int(r["seed"]),
            )
        )
        return rows


__all__ = ["FAILURE_SCHEMA", "STORE_SCHEMA", "CampaignStore"]
