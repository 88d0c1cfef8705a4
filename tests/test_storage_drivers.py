"""Pluggable fault-tolerant storage drivers under the campaign store.

The load-bearing pins:

* **driver contract** — posix and memory drivers provide identical
  get/put-atomic/put-exclusive/replace/delete/list/exists/stat/rename
  semantics (atomic publication, exclusive create, visible-after-
  return), so the store and the lease protocol are backend-agnostic;
* **durability** — ``PosixDriver.put_atomic`` fsyncs both the file and
  the directory entry on commit, and temporaries never appear in
  listings or reads;
* **fault absorption** — transient driver errors (including torn
  writes that raise) heal inside ``RetryingDriver`` with bounded
  seeded-jitter backoff and zero recomputation; retry exhaustion
  escalates to ``PersistentStorageError`` and the runner degrades to
  read-only serving under ``allow_partial``;
* **torn-write sweep** — a silent torn chunk at every interesting
  offset is quarantined by integrity verification and the campaign
  converges byte-identical to a clean run;
* **acceptance** — two concurrent runners over ``FaultyDriver``
  (seeded transient errors, torn writes, one injected hang) converge
  to a manifest byte-identical to a single-shot clean ``PosixDriver``
  run with zero duplicated computations; the campaign behaves
  identically on ``MemoryDriver``.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

import repro.campaign.cli as cli_module
from repro.campaign.cli import entrypoint as campaign_entrypoint
from repro.campaign.cli import main as campaign_cli
from repro.campaign.faults import (
    FaultPlan,
    FaultRule,
)
from repro.campaign.leases import HeartbeatThread, LeaseManager, live_lease
from repro.campaign.presets import fig17_campaign
from repro.campaign.runner import (
    EXEC_LOG_ENV,
    CampaignRunner,
    RetryPolicy,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.storage import (
    FaultyDriver,
    MemoryDriver,
    PosixDriver,
    RetryingDriver,
    WrappingDriver,
    build_driver,
)
from repro.campaign.store import CampaignStore
from repro.errors import (
    ConfigurationError,
    PersistentStorageError,
    StorageMissingError,
    TransientStorageError,
)

#: Fast storage retry policy for tests (real backoffs, tiny delays).
FAST_STORAGE_RETRY = RetryPolicy(
    max_attempts=5, base_delay_s=0.002, max_delay_s=0.01
)


def small_spec(counts=(1, 2), **overrides):
    kwargs = dict(
        rng=0, device_counts=counts, n_rounds=1, engine="analytic"
    )
    kwargs.update(overrides)
    return fig17_campaign(**kwargs)


def storage_plan_json(rules, seed=0):
    return json.dumps(
        {"schema": "repro-storage-fault-plan-v1", "seed": seed, "rules": rules}
    )


def storage_plan(rules, seed=0):
    return FaultPlan(
        rules=tuple(FaultRule(**rule) for rule in rules),
        seed=seed,
    )


def make_driver(kind, tmp_path):
    if kind == "posix":
        return PosixDriver(tmp_path / "driver")
    return MemoryDriver()


@pytest.fixture(params=["posix", "memory", "http"])
def driver(request, tmp_path):
    """Every backend through the same contract suite — the remote
    driver rides along against a per-test in-process server."""
    if request.param == "http":
        from repro.campaign.objectstore import (
            HttpDriver,
            ObjectStoreService,
        )

        service = ObjectStoreService()
        service.start()
        request.addfinalizer(service.stop)
        return HttpDriver(service.url)
    return make_driver(request.param, tmp_path)


class TestDriverContract:
    """Same observable semantics on every backend."""

    def test_get_missing_raises_missing(self, driver):
        with pytest.raises(StorageMissingError):
            driver.get("points/absent.json")
        assert not driver.exists("points/absent.json")

    def test_put_atomic_roundtrip_and_overwrite(self, driver):
        driver.put_atomic("points/a.json", b"one")
        assert driver.get("points/a.json") == b"one"
        driver.put_atomic("points/a.json", b"two")
        assert driver.get("points/a.json") == b"two"

    def test_put_exclusive_single_winner(self, driver):
        assert driver.put_exclusive("leases/a.lease", b"w1") is True
        assert driver.put_exclusive("leases/a.lease", b"w2") is False
        assert driver.get("leases/a.lease") == b"w1"

    def test_replace_then_read_back(self, driver):
        driver.put_exclusive("leases/a.lease", b"w1")
        driver.replace("leases/a.lease", b"w2")
        assert driver.get("leases/a.lease") == b"w2"

    def test_delete_is_idempotent(self, driver):
        driver.put_atomic("x", b"1")
        assert driver.delete("x") is True
        assert driver.delete("x") is False
        assert not driver.exists("x")

    def test_list_by_prefix_sorted(self, driver):
        driver.put_atomic("points/b.json", b"1")
        driver.put_atomic("points/a.json", b"1")
        driver.put_atomic("failures/c.json", b"1")
        assert driver.list("points/") == [
            "points/a.json",
            "points/b.json",
        ]
        assert "failures/c.json" in driver.list("")

    def test_stat_size_and_missing(self, driver):
        driver.put_atomic("x", b"12345")
        assert driver.stat("x").size == 5
        with pytest.raises(StorageMissingError):
            driver.stat("absent")

    def test_rename_moves_atomically(self, driver):
        driver.put_atomic("points/a.json", b"payload")
        driver.rename("points/a.json", "quarantine/a.json")
        assert not driver.exists("points/a.json")
        assert driver.get("quarantine/a.json") == b"payload"
        with pytest.raises(StorageMissingError):
            driver.rename("points/a.json", "quarantine/b.json")

    @pytest.mark.parametrize(
        "key", ["/abs", "a/../b", "./x", "", "a\\b"]
    )
    def test_traversal_keys_rejected(self, driver, key):
        with pytest.raises(ConfigurationError):
            driver.put_atomic(key, b"x")

    def test_stats_count_operations(self, driver):
        driver.put_atomic("x", b"abc")
        driver.get("x")
        stats = driver.stats()
        assert stats["ops"]["put_atomic"] == 1
        assert stats["ops"]["get"] == 1
        assert stats["bytes_written"] == 3
        assert stats["bytes_read"] == 3


class TestPosixDurability:
    def test_temporaries_never_listed_or_read(self, tmp_path):
        posix = PosixDriver(tmp_path)
        posix.put_atomic("points/a.json", b"1")
        (tmp_path / ".tmp").mkdir(exist_ok=True)
        (tmp_path / ".tmp" / "junk.tmp").write_bytes(b"partial")
        assert posix.list("") == ["points/a.json"]

    def test_put_atomic_fsyncs_file_and_directory(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        PosixDriver(tmp_path).put_atomic("points/a.json", b"1")
        # One fsync for the tmp file's contents, one for the
        # destination directory entry after the rename.
        assert len(synced) >= 2

    def test_exclusive_create_also_synced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        PosixDriver(tmp_path).put_exclusive("leases/a.lease", b"1")
        assert len(synced) >= 2


class TestFaultyDriver:
    def test_error_fires_on_selected_calls_only(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan([{"kind": "error", "op": "get", "calls": [2]}]),
        )
        faulty.put_atomic("x", b"1")
        assert faulty.get("x") == b"1"  # call 1: clean
        with pytest.raises(TransientStorageError):
            faulty.get("x")  # call 2: injected
        assert faulty.get("x") == b"1"  # call 3: clean again
        assert faulty.n_injected == 1

    def test_key_prefix_scopes_injection(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [
                    {
                        "kind": "error",
                        "op": "put_atomic",
                        "key_prefix": "points/",
                        "calls": [1],
                    }
                ]
            ),
        )
        faulty.put_atomic("manifest.json", b"ok")  # not selected
        with pytest.raises(TransientStorageError):
            faulty.put_atomic("points/a.json", b"boom")

    def test_probabilistic_rule_is_seeded_and_capped(self):
        rules = [{"kind": "error", "op": "get", "p": 0.5, "max_fires": 2}]

        def run_sequence():
            faulty = FaultyDriver(
                MemoryDriver(), storage_plan(rules, seed=7)
            )
            faulty.inner.put_atomic("x", b"1")
            outcomes = []
            for _ in range(12):
                try:
                    faulty.get("x")
                    outcomes.append("ok")
                except TransientStorageError:
                    outcomes.append("err")
            return outcomes

        first, second = run_sequence(), run_sequence()
        assert first == second  # seeded: reproducible
        assert first.count("err") == 2  # max_fires cap

    def test_torn_write_lands_prefix_and_raises(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [
                    {
                        "kind": "torn",
                        "op": "put_atomic",
                        "calls": [1],
                        "offset": 3,
                    }
                ]
            ),
        )
        with pytest.raises(TransientStorageError):
            faulty.put_atomic("points/a.json", b"0123456789")
        # The partial payload landed through the raw backend.
        assert faulty.inner.get("points/a.json") == b"012"
        # The retry (call 2) commits the full payload.
        faulty.put_atomic("points/a.json", b"0123456789")
        assert faulty.get("points/a.json") == b"0123456789"

    def test_silent_torn_write_reports_success(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [
                    {
                        "kind": "torn",
                        "op": "put_atomic",
                        "calls": [1],
                        "offset": 0,
                        "silent": True,
                    }
                ]
            ),
        )
        faulty.put_atomic("points/a.json", b"full")  # no raise
        assert faulty.inner.get("points/a.json") == b""

    def test_hang_delays_then_succeeds(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [
                    {
                        "kind": "hang",
                        "op": "get",
                        "calls": [1],
                        "hang_s": 0.1,
                    }
                ]
            ),
        )
        faulty.put_atomic("x", b"1")
        started = time.perf_counter()
        assert faulty.get("x") == b"1"
        assert time.perf_counter() - started >= 0.1

    def test_persistent_kind_raises_persistent(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [{"kind": "persistent", "op": "put_atomic", "calls": [1]}]
            ),
        )
        with pytest.raises(PersistentStorageError):
            faulty.put_atomic("x", b"1")

    def test_invalid_rules_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(kind="torn", op="get")
        with pytest.raises(ConfigurationError):
            FaultRule(kind="error", calls=(1,), p=0.5)
        with pytest.raises(ConfigurationError):
            FaultRule(kind="error", p=1.5)
        with pytest.raises(ConfigurationError):
            FaultRule(kind="nope")


class TestRetryingDriver:
    def test_transient_errors_heal_within_budget(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [{"kind": "error", "op": "get", "calls": [1, 2]}]
            ),
        )
        retrying = RetryingDriver(faulty, FAST_STORAGE_RETRY)
        retrying.put_atomic("x", b"1")
        assert retrying.get("x") == b"1"  # healed after 2 retries
        assert retrying.n_retries == 2

    def test_exhaustion_escalates_to_persistent(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan([{"kind": "error", "op": "get", "p": 1.0}]),
        )
        retrying = RetryingDriver(
            faulty,
            RetryPolicy(max_attempts=3, base_delay_s=0.001),
        )
        faulty.inner.put_atomic("x", b"1")
        with pytest.raises(PersistentStorageError):
            retrying.get("x")

    def test_missing_and_persistent_pass_through_unretried(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [{"kind": "persistent", "op": "put_atomic", "calls": [1]}]
            ),
        )
        retrying = RetryingDriver(faulty, FAST_STORAGE_RETRY)
        with pytest.raises(StorageMissingError):
            retrying.get("absent")
        with pytest.raises(PersistentStorageError):
            retrying.put_atomic("x", b"1")
        assert retrying.n_retries == 0

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.01, max_delay_s=0.05
        )
        a = policy.backoff_s("get:points/x.json", 1)
        assert a == policy.backoff_s("get:points/x.json", 1)
        assert a != policy.backoff_s("get:points/y.json", 1)
        for attempt in range(1, 10):
            assert policy.backoff_s("get:k", attempt) <= 0.05 * 1.25

    def test_op_timeout_turns_hang_into_retry(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [
                    {
                        "kind": "hang",
                        "op": "get",
                        "calls": [1],
                        "hang_s": 5.0,
                    }
                ]
            ),
        )
        retrying = RetryingDriver(
            faulty,
            RetryPolicy(max_attempts=3, base_delay_s=0.001),
            op_timeout_s=0.05,
        )
        faulty.inner.put_atomic("x", b"1")
        started = time.perf_counter()
        assert retrying.get("x") == b"1"  # timed out once, then clean
        assert time.perf_counter() - started < 2.0
        assert retrying.n_retries == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -1.0},
            {"max_delay_s": 0.0, "base_delay_s": 1.0},
            {"op_timeout_s": 0.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        op_timeout_s = kwargs.pop("op_timeout_s", None)
        with pytest.raises(ConfigurationError):
            RetryingDriver(
                MemoryDriver(), RetryPolicy(**kwargs), op_timeout_s
            )


class TestBuildDriver:
    def test_default_posix_and_fault_plan_wrapping(self, tmp_path):
        assert isinstance(build_driver(None, tmp_path / "s"), PosixDriver)
        wrapped = build_driver(
            "memory://",
            storage_fault_plan=storage_plan([{"kind": "error"}]),
        )
        assert isinstance(wrapped, FaultyDriver)
        with pytest.raises(ConfigurationError, match="store root"):
            build_driver(None)

    @pytest.mark.parametrize("name", ["posix", "memory", "faulty", "s3"])
    def test_bare_names_are_refused(self, name, tmp_path):
        with pytest.raises(
            ConfigurationError,
            match="posix:///path, memory:// or http\\(s\\)://",
        ):
            build_driver(name, tmp_path)

    RUN = [
        "run", "--spec", "fig17", "--counts", "1", "--rounds", "1",
        "--engine", "analytic", "--no-leases",
    ]
    BOTH = ["--store", "STORE", "--storage-driver", "memory://"]

    @pytest.mark.parametrize(
        "argv, built",
        [
            (RUN + ["--storage-driver", "posix"], "posix:///path"),
            (RUN + ["--store", "STORE"], PosixDriver),
            (
                RUN + ["--store", "STORE", "--storage-fault-plan",
                       '{"rules": []}'],
                FaultyDriver,
            ),
            (RUN + BOTH, "--store and --storage-driver"),
            (["status"] + BOTH, "--store and --storage-driver"),
            (["export"] + BOTH, "--store and --storage-driver"),
            (["serve-api", "--port", "0"] + BOTH,
             "--store and --storage-driver"),
        ],
        ids=[
            "bare-name-exits-2", "no-flag-posix", "fault-plan-wraps",
            "run-refuses-both", "status-refuses-both",
            "export-refuses-both", "serve-api-refuses-both",
        ],
    )
    def test_cli_driver_selection(
        self, argv, built, tmp_path, monkeypatch, capsys
    ):
        """A refused command (``built`` is the error it names) exits 2
        before it builds any driver or store."""
        drivers = []

        def recording_build_driver(*args, **kwargs):
            drivers.append(build_driver(*args, **kwargs))
            return drivers[-1]

        monkeypatch.setattr(cli_module, "build_driver", recording_build_driver)
        # A serve-api that is not refused returns instead of serving.
        monkeypatch.setattr(cli_module, "_serve_until_interrupted", lambda: None)
        store = tmp_path / "s"
        code = campaign_entrypoint(
            [str(store) if arg == "STORE" else arg for arg in argv]
        )
        err = capsys.readouterr().err
        if isinstance(built, str):
            assert code == 2 and drivers == []
            assert err.startswith("error: ") and built in err
            assert not store.exists()
        else:
            assert code == 0
            assert [type(driver) for driver in drivers] == [built]

    def test_url_specs_parse_and_round_trip(self, tmp_path):
        from repro.campaign.storage import parse_driver_spec

        posix = build_driver(f"posix://{tmp_path / 'via-url'}", None)
        assert isinstance(posix, PosixDriver)
        assert posix.root == tmp_path / "via-url"
        # spec -> build_driver -> .spec is a fixed point.
        again = build_driver(posix.spec, None)
        assert again.root == posix.root and again.spec == posix.spec

        memory = build_driver("memory://", tmp_path)
        assert isinstance(memory, MemoryDriver)
        assert memory.spec == "memory://"
        assert parse_driver_spec(memory.spec) == {"scheme": "memory"}

        parsed = parse_driver_spec("http://127.0.0.1:8123/campaign")
        assert parsed["scheme"] == "http"
        assert parsed["bucket"] == "campaign"
        assert (
            parse_driver_spec(parsed["url"]) == parsed
        )  # round trip through the canonical url

    def test_http_spec_builds_breaker_wrapped_driver(self):
        from repro.campaign.objectstore import (
            CircuitBreakerDriver,
            HttpDriver,
        )

        driver = build_driver("http://127.0.0.1:1/campaign", None)
        assert isinstance(driver, CircuitBreakerDriver)
        assert isinstance(driver.inner, HttpDriver)
        assert driver.spec == "http://127.0.0.1:1/campaign"
        rebuilt = build_driver(driver.spec, None)
        assert rebuilt.spec == driver.spec

    @pytest.mark.parametrize(
        "bad",
        [
            "memory:///with/path",
            "posix://host/path",
            "posix://",
            "http://127.0.0.1:8123",
            "http://127.0.0.1:8123/a/b",
            "ftp://host/bucket",
        ],
    )
    def test_malformed_url_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            build_driver(bad, None)

    def test_posix_spec_without_root_rejected(self):
        # Rootless specs (memory://, http://) omit the root; a bare
        # posix driver still needs one, loudly.
        with pytest.raises(ConfigurationError):
            build_driver("posix")


class TestHeartbeatResilience:
    """Satellite: the heartbeat survives transient I/O faults."""

    def test_heartbeat_retries_through_transient_faults(self, caplog):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [{"kind": "error", "op": "replace", "calls": [1, 2]}]
            ),
        )
        leases = LeaseManager(faulty, owner="w1", ttl_s=0.6)
        assert leases.acquire("h1")
        with caplog.at_level("WARNING", logger="repro.campaign.leases"):
            with HeartbeatThread(leases) as heartbeat:
                # Two ticks fail on injected faults, later ticks heal;
                # the lease deadline must keep moving forward.
                deadline = time.monotonic() + 5.0
                renewed = False
                while time.monotonic() < deadline:
                    holder = live_lease(faulty, "h1")
                    if holder is not None and int(holder["renewals"]) >= 1:
                        renewed = True
                        break
                    time.sleep(0.05)
        assert renewed, "heartbeat never recovered from transient faults"
        assert not heartbeat.gave_up
        # Logged once, not once per failing tick.
        warnings = [
            r for r in caplog.records if "storage fault" in r.message
        ]
        assert len(warnings) == 1

    def test_heartbeat_gives_up_after_ttl_of_failure(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan([{"kind": "error", "op": "replace", "p": 1.0}]),
        )
        leases = LeaseManager(faulty, owner="w1", ttl_s=0.5)
        assert leases.acquire("h1")
        with HeartbeatThread(leases) as heartbeat:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not heartbeat.gave_up:
                time.sleep(0.05)
        assert heartbeat.gave_up

    def test_claim_lost_on_storage_fault_not_corrupted(self):
        faulty = FaultyDriver(
            MemoryDriver(),
            storage_plan(
                [{"kind": "error", "op": "put_exclusive", "calls": [1]}]
            ),
        )
        leases = LeaseManager(faulty, owner="w1", ttl_s=5.0)
        assert leases.acquire("h1") is False  # fault → claim lost
        assert leases.acquire("h1") is True  # clean retry wins
        assert live_lease(faulty, "h1")["owner"] == "w1"


def _faulty_store(root, plan, retry=FAST_STORAGE_RETRY):
    return CampaignStore(
        driver=FaultyDriver(PosixDriver(root), plan),
        retry=retry,
    )


class TestTornWriteSweep:
    """Satellite: truncate puts at every interesting offset and assert
    the store heals/quarantines and the campaign converges
    byte-identical to a clean run."""

    # 0 = empty file, 1 = one byte, 40 = mid-JSON header, large =
    # everything but the closing brace/newline.
    OFFSETS = (0, 1, 40, 400)

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_silent_torn_chunk_heals_on_rerun(self, tmp_path, offset):
        spec = small_spec(counts=(1,))
        clean_root = tmp_path / "clean"
        CampaignRunner(
            store=CampaignStore(clean_root),
            use_leases=False,
        ).run(spec)

        root = tmp_path / "store"
        torn_store = _faulty_store(
            root,
            storage_plan(
                [
                    {
                        "kind": "torn",
                        "op": "put_atomic",
                        "key_prefix": "points/",
                        "calls": [1],
                        "offset": offset,
                        "silent": True,
                    }
                ]
            ),
        )
        CampaignRunner(store=torn_store, use_leases=False).run(spec)

        # The torn chunk landed "successfully"; a clean rerun must
        # quarantine it, recompute, and converge byte-identically.
        healed = CampaignStore(root)
        CampaignRunner(store=healed, use_leases=False).run(spec)
        assert list(healed.quarantined().values()) == ["undecodable-json"]
        healed.manifest()
        clean_store = CampaignStore(clean_root)
        clean_store.manifest()
        assert (root / "manifest.json").read_bytes() == (
            clean_root / "manifest.json"
        ).read_bytes()

    def test_raised_torn_write_heals_without_recompute(
        self, tmp_path, monkeypatch
    ):
        """Pre-rename torn write (the crash-mid-commit case) raises:
        driver-level retry heals it with zero recomputation."""
        exec_log = tmp_path / "exec.log"
        monkeypatch.setenv(EXEC_LOG_ENV, str(exec_log))
        spec = small_spec(counts=(1, 2))
        root = tmp_path / "store"
        store = _faulty_store(
            root,
            storage_plan(
                [
                    {
                        "kind": "torn",
                        "op": "put_atomic",
                        "key_prefix": "points/",
                        "calls": [1, 2],
                    }
                ]
            ),
        )
        run = CampaignRunner(store=store, use_leases=False).run(spec)
        assert run.n_computed == 2 and not run.storage_degraded
        assert store.quarantined() == {}
        # Zero duplicated computations: the torn attempts were healed
        # below the execution layer.
        logged = exec_log.read_text().split()
        hashes = [p.content_hash() for p in spec.points()]
        assert sorted(logged[::2]) == sorted(hashes)


class _GatedChunkReads(WrappingDriver):
    """A reader's driver that reads chunks at forced moments: it waits
    for ``landed`` before touching ``points/``, sets ``first_read``
    once the first chunk read returns, and holds every later chunk read
    until ``retried``."""

    def __init__(self, inner, landed, first_read, retried):
        super().__init__(inner, "gated")
        self._landed = landed
        self._first_read = first_read
        self._retried = retried

    def _call(self, op, key, fn, data=None):
        if not key.startswith("points/"):
            return fn()
        if op == "get" and self._first_read.is_set():
            self._retried.wait(10.0)
        else:
            self._landed.wait(10.0)
        result = fn()
        if op == "get":
            self._first_read.set()
        return result

    def stats(self):
        return {"driver": self.name, "inner": self._inner.stats()}


class TestTornWriteUnderLiveLease:
    """An undecodable chunk under another holder's live lease is a
    write in progress: readers wait for the holder's retry instead of
    quarantining it."""

    READER_RETRY = RetryPolicy(
        max_attempts=6, base_delay_s=0.005, max_delay_s=0.03
    )

    def _point(self):
        return next(iter(small_spec(counts=(1,)).points()))

    def _reader(self, root, driver=None):
        return CampaignStore(
            driver=driver or PosixDriver(root),
            retry=self.READER_RETRY,
        )

    def _torn_chunk(self, root, point):
        """Save ``point`` cleanly, then leave only its first 40 bytes."""
        store = CampaignStore(root)
        store.save(point, {"m": 1.0}, {"backend": "x"})
        key = f"points/{point.content_hash()}.json"
        PosixDriver(root).replace(key, PosixDriver(root).get(key)[:40])

    def test_read_between_torn_write_and_retry_waits_for_the_retry(
        self, tmp_path
    ):
        """The writer's raising torn write lands a prefix at the chunk
        key; a second store reads it before the writer's retry rewrites
        the key, and gets the retried chunk."""
        root = tmp_path / "store"
        point = self._point()
        content_hash = point.content_hash()
        landed, first_read, retried = (threading.Event() for _ in range(3))

        class ReadBeforeRetry(RetryPolicy):
            def backoff_s(self, key, attempt):
                if key.startswith("put_atomic:points/"):
                    landed.set()
                    assert first_read.wait(10.0)
                    return 0.0
                return super().backoff_s(key, attempt)

        writer = _faulty_store(
            root,
            storage_plan(
                [
                    {
                        "kind": "torn",
                        "op": "put_atomic",
                        "key_prefix": "points/",
                        "calls": [1],
                    }
                ]
            ),
            retry=ReadBeforeRetry(max_attempts=4, base_delay_s=0.001),
        )
        assert LeaseManager(writer.driver, owner="w1").acquire(
            content_hash
        )
        reader = self._reader(
            root,
            _GatedChunkReads(
                PosixDriver(root), landed, first_read, retried
            ),
        )
        seen = {}
        thread = threading.Thread(
            target=lambda: seen.update(has=reader.has(point))
        )
        thread.start()
        try:
            writer.save(point, {"m": 1.0}, {"backend": "x"})
        finally:
            retried.set()
            thread.join(10.0)
        assert first_read.is_set()
        assert seen == {"has": True}
        assert reader.quarantined() == {}
        assert reader.load(point)["metrics"] == {"m": 1.0}

    def test_lasting_lease_leaves_the_torn_chunk_in_place(self, tmp_path):
        """Re-reads spent under a live lease: reported missing, not
        quarantined; once the lease is gone the chunk is quarantined."""
        root = tmp_path / "store"
        point = self._point()
        self._torn_chunk(root, point)
        reader = self._reader(root)
        leases = LeaseManager(reader.driver, owner="w1")
        assert leases.acquire(point.content_hash())
        assert reader.has(point, owner="w2") is False
        assert reader.quarantined() == {}
        assert len(reader) == 1
        leases.release(point.content_hash())
        assert reader.has(point, owner="w2") is False
        assert reader.quarantined() == {
            point.content_hash(): "undecodable-json"
        }

    @pytest.mark.parametrize("lease", ["vacant", "expired", "own"])
    def test_torn_chunk_without_another_live_lease_is_quarantined(
        self, tmp_path, lease
    ):
        root = tmp_path / "store"
        point = self._point()
        self._torn_chunk(root, point)
        reader = self._reader(root)
        if lease != "vacant":
            ttl_s = 0.01 if lease == "expired" else 30.0
            assert LeaseManager(
                reader.driver, owner="w1", ttl_s=ttl_s
            ).acquire(point.content_hash())
            time.sleep(0.05)
        owner = "w1" if lease == "own" else "w2"
        started = time.monotonic()
        assert reader.has(point, owner=owner) is False
        assert time.monotonic() - started < 0.5  # no re-reads
        assert reader.quarantined() == {
            point.content_hash(): "undecodable-json"
        }


class TestReadOnlyDegradation:
    """Persistent write failure degrades to read-only serving."""

    def _dead_writes_store(self, root):
        return _faulty_store(
            root,
            storage_plan(
                [
                    {
                        "kind": "persistent",
                        "op": "put_atomic",
                        "key_prefix": "points/",
                        "p": 1.0,
                    }
                ]
            ),
        )

    def test_allow_partial_computes_without_persisting(
        self, tmp_path, caplog
    ):
        spec = small_spec(counts=(1, 2))
        store = self._dead_writes_store(tmp_path / "store")
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            run = CampaignRunner(
                store=store, allow_partial=True
            ).run(spec)
        assert run.storage_degraded
        assert len(run.results) == 2 and run.failures == []
        assert len(store) == 0  # nothing persisted
        assert any("read-only" in r.message for r in caplog.records)

    def test_without_allow_partial_surfaces_the_fault(self, tmp_path):
        spec = small_spec(counts=(1,))
        store = self._dead_writes_store(tmp_path / "store")
        with pytest.raises(PersistentStorageError):
            CampaignRunner(store=store, allow_partial=False).run(spec)

    def test_degraded_run_still_serves_cached_points(self, tmp_path):
        spec = small_spec(counts=(1, 2))
        root = tmp_path / "store"
        CampaignRunner(
            store=CampaignStore(root),
            use_leases=False,
        ).run(spec)
        # Reads work, writes are dead: cached points still serve.
        run = CampaignRunner(
            store=self._dead_writes_store(root), allow_partial=True
        ).run(spec)
        assert run.n_cached == 2 and not run.storage_degraded


class TestMemoryDriverCampaign:
    """The campaign behaves identically on the in-process backend."""

    def test_end_to_end_with_caching_and_manifest_parity(self, tmp_path):
        spec = small_spec(counts=(1, 2))
        memory_store = CampaignStore(driver=MemoryDriver())
        first = CampaignRunner(store=memory_store).run(spec)
        assert first.n_computed == 2
        second = CampaignRunner(store=memory_store).run(spec)
        assert second.n_cached == 2 and second.n_computed == 0
        assert memory_store.active_leases() == []
        assert memory_store.failures() == []

        # Manifest bytes equal the posix store's for the same points.
        posix_root = tmp_path / "posix"
        posix_store = CampaignStore(posix_root)
        CampaignRunner(store=posix_store).run(spec)
        memory_store.manifest()
        posix_store.manifest()
        assert memory_store.driver.get("manifest.json") == (
            posix_root / "manifest.json"
        ).read_bytes()

    def test_two_threaded_runners_partition_one_memory_store(
        self, tmp_path, monkeypatch
    ):
        exec_log = tmp_path / "exec.log"
        monkeypatch.setenv(EXEC_LOG_ENV, str(exec_log))
        spec = small_spec(counts=(1, 2, 3, 4))
        hashes = [p.content_hash() for p in spec.points()]
        store = CampaignStore(driver=MemoryDriver())

        def run_one(owner):
            CampaignRunner(
                store=store,
                owner=owner,
                lease_ttl_s=5.0,
                fault_plan=FaultPlan(),
            ).run(spec)

        threads = [
            threading.Thread(target=run_one, args=(name,))
            for name in ("w1", "w2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert sorted(store.manifest()["points"]) == sorted(hashes)
        logged = [
            line.split()[0]
            for line in exec_log.read_text().splitlines()
            if line.strip()
        ]
        assert sorted(logged) == sorted(hashes)

    def test_store_status_reports_driver_stats(self):
        store = CampaignStore(driver=MemoryDriver())
        status = store.status()
        assert status["storage"]["driver"].startswith("retrying(")
        # Wrapper stats nest per layer instead of merging by overwrite.
        assert "n_retries" in status["storage"]
        assert "ops" in status["storage"]["inner"]

    def test_stacked_wrapper_stats_nest_without_collisions(self):
        # retrying(faulty(posix-or-memory)): every layer's counters
        # must be reported under its own level, never clobbered.
        inner = MemoryDriver()
        faulty = FaultyDriver(
            inner,
            storage_plan(
                [{"kind": "error", "op": "get", "calls": [1]}]
            ),
        )
        retrying = RetryingDriver(faulty, FAST_STORAGE_RETRY)
        retrying.put_atomic("points/a.json", b"x")
        assert retrying.get("points/a.json") == b"x"  # heals one error
        stats = retrying.stats()
        assert stats["driver"] == "retrying(faulty(memory))"
        assert stats["n_retries"] == 1
        layer = stats["inner"]
        assert layer["driver"] == "faulty(memory)"
        assert layer["n_injected_faults"] == 1
        base = layer["inner"]
        assert base["driver"] == "memory"
        assert base["ops"]["put_atomic"] == 1
        # The injected error never reached the base driver: one real
        # get, one injected failure absorbed a layer above.
        assert base["ops"]["get"] == 1


def _child_run_faulty(root, spec_dict, plan_json, owner, lease_ttl_s):
    """One campaign over FaultyDriver(Posix) in a forked child."""
    store = CampaignStore(
        driver=FaultyDriver(
            PosixDriver(root), FaultPlan.from_json(plan_json)
        ),
        retry=RetryPolicy(
            max_attempts=6, base_delay_s=0.005, max_delay_s=0.03
        ),
    )
    CampaignRunner(
        store=store,
        workers=None,
        fault_plan=FaultPlan(),
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        owner=owner,
        lease_ttl_s=lease_ttl_s,
    ).run(CampaignSpec.from_dict(spec_dict))


class TestFaultyDriverAcceptance:
    """The PR's acceptance bar: two concurrent runners over
    ``FaultyDriver`` (seeded transient I/O errors, torn writes, one
    injected hang) converge to a manifest byte-identical to a
    single-shot clean ``PosixDriver`` run, with zero duplicated
    computations."""

    def test_two_runners_over_faulty_driver_converge(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec(counts=(1, 2, 3, 4))
        hashes = [p.content_hash() for p in spec.points()]
        store_root = tmp_path / "store"

        clean_root = tmp_path / "clean"
        CampaignRunner(
            store=CampaignStore(clean_root),
            use_leases=False,
        ).run(spec)
        CampaignStore(clean_root).manifest()

        exec_log = tmp_path / "exec.log"
        monkeypatch.setenv(EXEC_LOG_ENV, str(exec_log))

        # w1: torn chunk writes (raising — driver retry heals them)
        # plus one injected storage hang; w2: seeded transient errors
        # across reads and lease claims. All within the retry budget,
        # so no attempt ever escalates or recomputes.
        w1_plan = storage_plan_json(
            [
                {
                    "kind": "torn",
                    "op": "put_atomic",
                    "key_prefix": "points/",
                    "calls": [1, 3],
                },
                {
                    "kind": "hang",
                    "op": "get",
                    "calls": [2],
                    "hang_s": 0.2,
                },
            ],
            seed=1,
        )
        w2_plan = storage_plan_json(
            [
                {
                    "kind": "error",
                    "op": "get",
                    "p": 0.1,
                    "max_fires": 4,
                },
                {
                    "kind": "error",
                    "op": "put_exclusive",
                    "key_prefix": "leases/",
                    "calls": [2],
                },
            ],
            seed=2,
        )

        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_child_run_faulty,
                args=(
                    str(store_root),
                    spec.to_dict(),
                    plan,
                    name,
                    5.0,
                ),
            )
            for name, plan in (("w1", w1_plan), ("w2", w2_plan))
        ]
        try:
            for process in workers:
                process.start()
            for process in workers:
                process.join(timeout=120.0)
                assert process.exitcode == 0
        finally:
            for process in workers:
                if process.is_alive():
                    process.kill()
                    process.join(timeout=10.0)

        store = CampaignStore(store_root)
        assert sorted(store.manifest()["points"]) == sorted(hashes)
        assert store.active_leases() == []
        assert store.failures() == []
        assert store.quarantined() == {}

        # Byte-identical to the clean single-shot posix manifest.
        assert (store_root / "manifest.json").read_bytes() == (
            clean_root / "manifest.json"
        ).read_bytes()

        # Zero duplicated computations despite every injected fault.
        logged = [
            line.split()[0]
            for line in exec_log.read_text().splitlines()
            if line.strip()
        ]
        assert sorted(logged) == sorted(hashes)
        assert len(logged) == len(set(logged))


class TestCliStorageFlags:
    def test_run_on_memory_driver(self, tmp_path, capsys):
        code = campaign_cli(
            [
                "run",
                "--spec",
                "fig17",
                "--counts",
                "1",
                "--rounds",
                "1",
                "--storage-driver",
                "memory://",
                "--no-leases",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 points" in out and "memory" in out

    def test_run_with_storage_fault_plan_heals(self, tmp_path, capsys):
        plan = storage_plan_json(
            [
                {
                    "kind": "error",
                    "op": "put_atomic",
                    "key_prefix": "points/",
                    "calls": [1],
                }
            ]
        )
        code = campaign_cli(
            [
                "run",
                "--spec",
                "fig17",
                "--counts",
                "1",
                "--rounds",
                "1",
                "--store",
                str(tmp_path / "store"),
                "--storage-fault-plan",
                plan,
                "--no-leases",
            ]
        )
        assert code == 0
        store = CampaignStore(tmp_path / "store")
        assert len(store) == 1

    def test_status_json_is_one_machine_readable_line(
        self, tmp_path, capsys
    ):
        spec = small_spec(counts=(1,))
        CampaignRunner(
            store=CampaignStore(tmp_path / "store"),
            use_leases=False,
        ).run(spec)
        code = campaign_cli(
            ["status", "--store", str(tmp_path / "store"), "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 1
        status = json.loads(out)
        assert status["n_points"] == 1
        assert status["storage"]["driver"] == "retrying(posix)"
