"""Fault-tolerant campaign execution: leases, retries, quarantine.

The load-bearing pins:

* **leases** — concurrent runners on one store partition the pending
  points; a killed runner's leases expire and its points are
  reclaimed; the converged store manifest is byte-identical to a
  single-shot clean run's, with zero duplicated point computations;
* **retries** — a crashed or timed-out attempt retries with bounded,
  deterministic backoff; permanent failures surface as
  ``CampaignExecutionError`` (or as ``CampaignRun.failures`` under
  ``allow_partial``) and leave a persisted failure record;
* **quarantine** — a torn chunk or array payload is never served: it
  moves to ``quarantine/`` with a reason stamp and the point is
  recomputed, healing the store;
* **degradation** — a broken process pool downgrades the campaign (and
  the direct network sweep) to serial execution instead of dying.

The faults come from ``tests/chaos.py``: execute faults through the
``execute_chaos`` fixture, storage faults through its wrapping driver.
"""

import json
import logging
import multiprocessing
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import chaos
import repro.campaign.retry as retry_module
import repro.campaign.runner as campaign_runner
from repro.campaign.leases import (
    HeartbeatThread,
    LeaseManager,
    live_lease,
    parse_lease,
    scan_lease_backend,
)
from repro.campaign.presets import fig17_campaign
from repro.campaign.runner import CampaignRunner, RetryPolicy
from repro.campaign.spec import CampaignPoint, CampaignSpec
from repro.campaign.storage import PosixDriver, WrappingDriver
from repro.campaign.store import CampaignStore
from repro.errors import (
    CampaignExecutionError,
    CampaignIntegrityError,
    ConfigurationError,
)

COUNTS = (1, 2)
ROUNDS = 1

#: Fast retry policy for tests (real backoffs, tiny delays).
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05)


def small_spec(counts=COUNTS, **overrides):
    kwargs = dict(
        rng=0, device_counts=counts, n_rounds=ROUNDS, engine="analytic"
    )
    kwargs.update(overrides)
    return fig17_campaign(**kwargs)


def make_point(**overrides):
    kwargs = dict(
        deployment={"kind": "paper", "n_devices": 16, "seed": 7},
        config={"n_association_shifts": 0},
        n_devices=8,
        n_rounds=1,
        query_bits=32,
        engine="analytic",
        noise_mode="payload",
        fading=False,
        seed=1234,
    )
    kwargs.update(overrides)
    return CampaignPoint(**kwargs)


def tear(store, key):
    """Commit the first half of ``key``'s bytes in its place through the
    store's driver: a torn write for the integrity checks to catch."""
    data = store.driver.get(key)
    store.driver.replace(key, data[: max(1, len(data) // 2)])


def execute_rule(kind, attempts=(1,), **match):
    return chaos.Rule(kind, op="execute", match=match, calls=attempts)


def crash_rule(attempts=(1,), **match):
    return execute_rule("crash", attempts, **match)


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff_s("abc", 1) == policy.backoff_s("abc", 1)
        assert policy.backoff_s("abc", 1) == RetryPolicy().backoff_s(
            "abc", 1
        )

    def test_backoff_varies_with_seed_and_hash(self, monkeypatch):
        a = RetryPolicy().backoff_s("abc", 1)
        assert a != RetryPolicy().backoff_s("abd", 1)
        monkeypatch.setattr(retry_module, "BACKOFF_SEED", 1)
        assert a != RetryPolicy().backoff_s("abc", 1)

    def test_backoff_grows_and_stays_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0)
        delays = [policy.backoff_s("deadbeef", a) for a in range(1, 10)]
        assert delays[1] > delays[0]
        for attempt, delay in enumerate(delays, start=1):
            assert delay >= min(1.0, 0.1 * 2 ** (attempt - 1))
            assert delay <= 1.0 * 1.25

    def test_zero_jitter_is_pure_exponential(self, monkeypatch):
        monkeypatch.setattr(retry_module, "JITTER", 0.0)
        policy = RetryPolicy(base_delay_s=0.5, max_delay_s=64.0)
        assert policy.backoff_s("x", 1) == 0.5
        assert policy.backoff_s("x", 3) == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -1.0},
            {"base_delay_s": 2.0, "max_delay_s": 1.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestFaultPlan:
    def test_matches_on_fields_attempts_and_hash_prefix(self):
        point = make_point()
        fields = point.to_dict()
        content = point.content_hash()
        plan = chaos.plan(
            crash_rule(attempts=(2,), n_devices=8),
            chaos.Rule("hang", op="execute", key_prefix=content[:6]),
        )
        runner = chaos.Selector(plan, chaos.EXECUTE_KINDS)
        assert runner.consult("execute", content, 2, fields).kind == "crash"
        assert runner.consult("execute", content, 1, fields).kind == "hang"
        assert runner.consult("execute", "ffff", 1, fields) is None
        driver = chaos.Selector(plan, chaos.DISK_KINDS)
        assert driver.consult("put_atomic", content) is None
        other = make_point(n_devices=4).to_dict()
        assert runner.consult("execute", "ffff", 2, other) is None

    def test_fire_execute_crash_raises(self, execute_chaos):
        injector = execute_chaos(crash_rule(n_devices=8))
        injector.real = lambda point: ({}, {})
        point = make_point()
        with pytest.raises(chaos.InjectedCrash):
            injector(point)
        # Off-attempt: no fault, and the completion is logged.
        assert injector(point) == ({}, {})
        assert injector.executed() == [point.content_hash()]

    def test_fire_execute_hang_sleeps(self, execute_chaos):
        # A hang blocks until the test releases it, then fails the
        # attempt instead of computing.
        injector = execute_chaos(execute_rule("hang"))
        errors = []

        def call():
            try:
                injector(make_point())
            except chaos.InjectedCrash as error:
                errors.append(str(error))

        thread = threading.Thread(target=call)
        thread.start()
        thread.join(0.1)
        assert thread.is_alive()
        injector.release()
        assert not thread.is_alive()
        assert "released hang" in errors[0] and injector.executed() == []

    def test_kill_degrades_to_crash_in_main_process(self, execute_chaos):
        injector = execute_chaos(execute_rule("kill"))
        with pytest.raises(chaos.InjectedCrash, match="kill"):
            injector(make_point())

    def test_kill_hard_exits_in_pool_worker(self, execute_chaos, monkeypatch):
        monkeypatch.setattr(
            chaos.multiprocessing, "parent_process", object
        )
        calls = []

        def fake_exit(code):
            calls.append(code)
            raise SystemExit(code)

        monkeypatch.setattr(chaos.os, "_exit", fake_exit)
        injector = execute_chaos(execute_rule("kill"))
        with pytest.raises(SystemExit):
            injector(make_point())
        assert calls == [86]


class TestLeaseManager:
    def test_acquire_vacant_and_conflict(self, tmp_path):
        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=10.0)
        b = LeaseManager(PosixDriver(tmp_path), owner="b", ttl_s=10.0)
        assert a.acquire("h1")
        assert not b.acquire("h1")
        assert a.held == ["h1"]
        assert b.held == []
        lease = parse_lease(PosixDriver(tmp_path).get("leases/h1.lease"))
        assert lease["owner"] == "a"

    def test_expired_lease_is_stolen(self, tmp_path):
        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=0.05)
        b = LeaseManager(PosixDriver(tmp_path), owner="b", ttl_s=10.0)
        assert a.acquire("h1")
        time.sleep(0.1)
        assert b.acquire("h1")
        assert live_lease(PosixDriver(tmp_path), "h1")["owner"] == "b"

    def test_torn_lease_file_is_stolen(self, tmp_path):
        (tmp_path / "leases").mkdir()
        (tmp_path / "leases" / "h1.lease").write_text("{ not json")
        b = LeaseManager(PosixDriver(tmp_path), owner="b", ttl_s=10.0)
        assert b.acquire("h1")
        assert live_lease(PosixDriver(tmp_path), "h1")["owner"] == "b"

    def test_renew_pushes_deadline_forward(self, tmp_path):
        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=5.0)
        assert a.acquire("h1")
        first = live_lease(PosixDriver(tmp_path), "h1")["deadline"]
        time.sleep(0.02)
        assert a.renew("h1")
        renewed = live_lease(PosixDriver(tmp_path), "h1")
        assert renewed["deadline"] > first
        assert renewed["renewals"] == 1

    def test_renew_after_steal_reports_loss(self, tmp_path):
        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=0.05)
        b = LeaseManager(PosixDriver(tmp_path), owner="b", ttl_s=10.0)
        assert a.acquire("h1")
        time.sleep(0.1)
        assert b.acquire("h1")
        assert not a.renew("h1")
        assert a.held == []

    def test_release_only_unlinks_own_lease(self, tmp_path):
        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=10.0)
        b = LeaseManager(PosixDriver(tmp_path), owner="b", ttl_s=10.0)
        assert a.acquire("h1")
        b.release("h1")  # not b's lease: must stay
        assert (tmp_path / "leases" / "h1.lease").exists()
        a.release("h1")
        assert not (tmp_path / "leases" / "h1.lease").exists()

    def test_live_lease_none_when_vacant_or_expired(self, tmp_path):
        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=0.05)
        assert live_lease(PosixDriver(tmp_path), "h1") is None
        assert a.acquire("h1")
        assert live_lease(PosixDriver(tmp_path), "h1")["owner"] == "a"
        time.sleep(0.1)
        assert live_lease(PosixDriver(tmp_path), "h1") is None

    def test_scan_skips_torn_leases(self, tmp_path):
        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=10.0)
        assert a.acquire("h1")
        (tmp_path / "leases" / "h2.lease").write_text("not json")
        leases = scan_lease_backend(PosixDriver(tmp_path))
        assert [lease["content_hash"] for lease in leases] == ["h1"]

    def test_heartbeat_keeps_short_ttl_alive(self, tmp_path):
        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=0.3)
        assert a.acquire("h1")
        with HeartbeatThread(a):
            time.sleep(0.8)
            assert live_lease(PosixDriver(tmp_path), "h1") is not None  # renewed past 2x ttl
        a.release("h1")

    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ConfigurationError, match="ttl_s"):
            LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=0.0)

    def test_concurrent_claims_on_a_vacant_point_have_one_winner(
        self, tmp_path, monkeypatch
    ):
        # b claims while a's exclusive create is still writing its
        # payload: b must not find the key empty, take it for a torn
        # lease and steal it, or both would compute the point.
        import os

        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=10.0)
        b = LeaseManager(PosixDriver(tmp_path), owner="b", ttl_s=10.0)
        real_write = os.write
        b_claimed = []

        def write_while_b_claims(fd, data):
            if not b_claimed and b'"owner": "a"' in data:
                claim = threading.Thread(
                    target=lambda: b_claimed.append(b.acquire("h1"))
                )
                claim.start()
                claim.join()
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write_while_b_claims)
        a_claimed = a.acquire("h1")
        monkeypatch.undo()
        assert sorted([a_claimed, b_claimed[0]]) == [False, True]
        winner = "a" if a_claimed else "b"
        assert live_lease(PosixDriver(tmp_path), "h1")["owner"] == winner

    def test_release_survives_a_failed_delete(self, tmp_path):
        # The lease is dropped from the holder's books at once; its
        # file stays until it expires, never blocking completion.
        driver = chaos.FaultyDriver(
            PosixDriver(tmp_path),
            chaos.plan(chaos.Rule("persistent", op="delete")),
        )
        a = LeaseManager(driver, owner="a", ttl_s=10.0)
        assert a.acquire("h1")
        a.release("h1")
        assert a.held == [] and driver.n_injected == 1
        assert live_lease(PosixDriver(tmp_path), "h1")["owner"] == "a"

    def test_release_all_drops_every_held_lease(self, tmp_path):
        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=10.0)
        assert a.acquire("h1") and a.acquire("h2")
        a.release_all()
        assert a.held == []
        assert scan_lease_backend(PosixDriver(tmp_path)) == []

    def test_steal_lost_at_read_back_is_refused(self, tmp_path):
        # Two stealers replace an expired lease at once; the read-back
        # shows the other one's payload, so this claim loses.
        rival = LeaseManager(PosixDriver(tmp_path), owner="c", ttl_s=10.0)

        class RivalLandsLast(WrappingDriver):
            def _call(self, op, key, fn, data=None):
                result = fn()
                if op == "replace":
                    self.inner.replace(key, rival._payload("h1", 0))
                return result

        a = LeaseManager(PosixDriver(tmp_path), owner="a", ttl_s=0.05)
        assert a.acquire("h1")
        time.sleep(0.1)
        b = LeaseManager(
            RivalLandsLast(PosixDriver(tmp_path), "rival"),
            owner="b",
            ttl_s=10.0,
        )
        assert not b.acquire("h1")
        assert b.held == []
        assert live_lease(PosixDriver(tmp_path), "h1")["owner"] == "c"


class TestStoreIntegrity:
    def test_torn_chunk_is_quarantined_not_served(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        chunk = store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"})
        tear(store, f"points/{point.content_hash()}.json")
        assert not store.has(point)
        reasons = store.quarantined()
        assert reasons == {point.content_hash(): "undecodable-json"}
        assert not chunk.exists()
        assert (
            tmp_path / "quarantine" / f"{point.content_hash()}.json"
        ).exists()

    def test_tampered_point_content_is_rejected(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        chunk = store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"})
        payload = json.loads(chunk.read_text())
        payload["point"]["seed"] = 9999  # physics swap under same name
        chunk.write_text(json.dumps(payload))
        with pytest.raises(CampaignIntegrityError):
            store.verify_chunk(point.content_hash())
        assert (
            store.quarantined()[point.content_hash()]
            == "content-hash-mismatch"
        )

    def test_schema_and_hash_field_mismatches_quarantine(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        chunk = store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"})
        payload = json.loads(chunk.read_text())
        payload["content_hash"] = "f" * 64
        chunk.write_text(json.dumps(payload))
        assert not store.has(point)
        assert store.quarantined() == {
            point.content_hash(): "content-hash-field-mismatch"
        }

    def test_quarantined_chunk_heals_on_resave(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"})
        tear(store, f"points/{point.content_hash()}.json")
        assert not store.has(point)
        store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"})
        assert store.has(point)
        assert len(store) == 1
        assert point.content_hash() in store.manifest()["points"]

    def test_corrupt_manifest_is_rebuilt(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"})
        manifest_path = tmp_path / "manifest.json"
        store.manifest()
        manifest_path.write_text("{ torn")
        healed = store.manifest()
        assert sorted(healed["points"]) == [point.content_hash()]
        manifest_path.write_text(json.dumps({"schema": "other"}))
        assert sorted(store.manifest()["points"]) == [
            point.content_hash()
        ]

    def test_export_rows_skip_quarantined_chunks(self, tmp_path):
        store = CampaignStore(tmp_path)
        good, bad = make_point(), make_point(seed=4321)
        store.save(good, {"phy_rate_bps": 1.0}, {"backend": "x"})
        store.save(bad, {"phy_rate_bps": 2.0}, {"backend": "x"})
        tear(store, f"points/{bad.content_hash()}.json")
        rows = store.export_rows()
        assert [row["content_hash"] for row in rows] == [
            good.content_hash()
        ]

    def test_status_counts_failures_and_quarantine(self, tmp_path):
        store = CampaignStore(tmp_path)
        ok, torn_pt, failed = (
            make_point(),
            make_point(seed=4321),
            make_point(seed=5678),
        )
        store.save(ok, {"phy_rate_bps": 1.0}, {"backend": "x"})
        store.save(torn_pt, {"phy_rate_bps": 2.0}, {"b": 1})
        tear(store, f"points/{torn_pt.content_hash()}.json")
        assert not store.has(torn_pt)
        store.record_failure(
            failed,
            [{"attempt": 1, "error": "E", "message": "m"}],
            status="failed",
            owner="w1",
        )
        store.record_failure(
            make_point(seed=8765),
            [{"attempt": 1, "error": "E", "message": "m"}],
            status="retrying",
        )
        status = store.status()
        assert status["n_points"] == 1
        assert status["n_failed"] == 1
        assert status["n_retrying"] == 1
        assert status["n_quarantined"] == 1
        assert status["n_leased"] == 0

    def test_failure_record_cleared_by_save(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        store.record_failure(
            point,
            [{"attempt": 1, "error": "E", "message": "m"}],
            status="retrying",
        )
        record = store.load_failure(point.content_hash())
        assert record["status"] == "retrying"
        assert record["attempts"][0]["error"] == "E"
        store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"})
        assert store.load_failure(point.content_hash()) is None
        assert store.failures() == []


def persistent_on(tmp_path, op, key_prefix=""):
    """A store over ``tmp_path`` whose every ``op`` on ``key_prefix``
    keys fails persistently (never retried)."""
    return CampaignStore(
        driver=chaos.FaultyDriver(
            PosixDriver(tmp_path),
            chaos.plan(
                chaos.Rule(
                    "persistent", op=op, key_prefix=key_prefix, p=1.0
                )
            ),
        )
    )


class TestStoreDegradation:
    """Store bookkeeping that a storage fault must not turn into a
    failed run: each path serves what it can and heals later."""

    def test_failure_record_survives_a_failed_clear(self, tmp_path):
        point = make_point()
        CampaignStore(tmp_path).record_failure(
            point,
            [{"attempt": 1, "error": "E", "message": "m"}],
            status="retrying",
        )
        store = persistent_on(tmp_path, "delete", "failures/")
        store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"})
        assert store.has(point)
        # The stale record only costs a later clear.
        assert store.load_failure(point.content_hash())["status"] == "retrying"
        CampaignStore(tmp_path).clear_failure(point.content_hash())
        assert CampaignStore(tmp_path).failures() == []

    def test_failures_skip_keys_that_are_not_records(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        store.record_failure(
            point,
            [{"attempt": 1, "error": "E", "message": "m"}],
            status="failed",
        )
        store.driver.put_atomic("failures/README.txt", b"notes\n")
        store.driver.put_atomic("failures/torn.json", b"{ torn")
        assert [r["content_hash"] for r in store.failures()] == [
            point.content_hash()
        ]

    def test_rebuilt_manifest_is_served_when_it_cannot_be_written(
        self, tmp_path, caplog
    ):
        point = make_point()
        CampaignStore(tmp_path).save(
            point, {"phy_rate_bps": 1.0}, {"backend": "x"}
        )
        (tmp_path / "manifest.json").write_text("{ torn")
        store = persistent_on(tmp_path, "put_atomic", "manifest.json")
        with caplog.at_level(logging.WARNING, "repro.campaign.store"):
            manifest = store.manifest()
        assert sorted(manifest["points"]) == [point.content_hash()]
        assert "could not persist rebuilt manifest" in caplog.text
        assert (tmp_path / "manifest.json").read_text() == "{ torn"

    def test_status_skips_a_chunk_it_cannot_stat(self, tmp_path):
        point = make_point()
        CampaignStore(tmp_path).save(
            point, {"phy_rate_bps": 1.0}, {"backend": "x"}
        )
        status = persistent_on(tmp_path, "stat", "points/").status()
        assert status["n_points"] == 1
        assert status["store_bytes"] == 0


class TestRunnerRetries:
    def test_crash_then_success_records_attempts(self, tmp_path, execute_chaos):
        spec = small_spec()
        execute_chaos(crash_rule(n_devices=1))
        runner = CampaignRunner(
            store=tmp_path / "store",
            retry=FAST_RETRY,
            use_leases=False,
        )
        run = runner.run(spec)
        assert run.n_computed == 2 and not run.failures
        by_count = {r.point.n_devices: r for r in run.results}
        assert by_count[1].attempts == 2  # crashed once, then succeeded
        assert by_count[2].attempts == 1
        # The transient failure record was cleared by the checkpoint.
        assert runner.store.failures() == []

    def test_retry_budget_exhaustion_raises(self, tmp_path, execute_chaos):
        spec = small_spec()
        execute_chaos(crash_rule(attempts=(1, 2, 3), n_devices=1))
        runner = CampaignRunner(
            store=tmp_path / "store",
            retry=FAST_RETRY,
            use_leases=False,
        )
        with pytest.raises(CampaignExecutionError, match="InjectedCrash"):
            runner.run(spec)
        # The good point still checkpointed; the bad one left a record.
        store = runner.store
        assert len(store) == 1
        records = store.failures()
        assert len(records) == 1
        assert records[0]["status"] == "failed"
        assert len(records[0]["attempts"]) == 3
        assert store.status()["n_failed"] == 1

    def test_allow_partial_reports_failures(self, tmp_path, execute_chaos):
        spec = small_spec()
        execute_chaos(crash_rule(attempts=(1, 2, 3), n_devices=1))
        runner = CampaignRunner(
            store=tmp_path / "store",
            retry=FAST_RETRY,
            use_leases=False,
            allow_partial=True,
        )
        run = runner.run(spec)
        assert run.n_failed == 1 and run.n_computed == 1
        failure = run.failures[0]
        assert failure.point.n_devices == 1
        assert [a["attempt"] for a in failure.attempts] == [1, 2, 3]
        assert all(
            a["error"] == "InjectedCrash" for a in failure.attempts
        )

    def test_failed_point_recovers_on_clean_rerun(
        self, tmp_path, execute_chaos
    ):
        spec = small_spec()
        injector = execute_chaos(crash_rule(attempts=(1, 2, 3), n_devices=1))
        store_root = tmp_path / "store"
        with pytest.raises(CampaignExecutionError):
            CampaignRunner(
                store=store_root,
                retry=FAST_RETRY,
                use_leases=False,
            ).run(spec)
        injector.plan = chaos.Plan()  # the clean rerun
        clean = CampaignRunner(store=store_root, use_leases=False)
        run = clean.run(spec)
        assert run.n_cached == 1 and run.n_computed == 1
        assert clean.store.failures() == []
        assert clean.store.status()["n_failed"] == 0

    def test_hang_is_timed_out_and_retried(self, tmp_path, execute_chaos):
        spec = small_spec()
        execute_chaos(execute_rule("hang", n_devices=1))
        runner = CampaignRunner(
            store=tmp_path / "store",
            retry=FAST_RETRY,
            point_timeout_s=0.3,
            use_leases=False,
        )
        started = time.perf_counter()
        run = runner.run(spec)
        elapsed = time.perf_counter() - started
        assert not run.failures
        by_count = {r.point.n_devices: r for r in run.results}
        assert by_count[1].attempts == 2
        assert elapsed < 5.0  # never waited out the hang

    def test_torn_write_quarantined_and_recomputed(self, tmp_path):
        """Satellite: kill-mid-write healing. A silent storage fault
        tears the chunk as it lands; the next run quarantines it,
        recomputes the point, and converges to a manifest byte-identical
        to a store that never saw the fault."""
        spec = small_spec()
        store_root = tmp_path / "store"
        (torn_hash,) = [
            point.content_hash()
            for point in spec.points()
            if point.n_devices == 1
        ]
        plan = chaos.plan(
            chaos.Rule(
                "torn",
                op="put_atomic",
                key_prefix=f"points/{torn_hash}.json",
                silent=True,
            )
        )
        torn_store = CampaignStore(
            driver=chaos.FaultyDriver(PosixDriver(store_root), plan)
        )
        CampaignRunner(store=torn_store, use_leases=False).run(spec)
        healer = CampaignRunner(store=store_root, use_leases=False)
        run = healer.run(spec)
        assert run.n_computed == 1 and run.n_cached == 1
        store = healer.store
        assert len(store.quarantined()) == 1
        assert set(store.manifest()["points"]) == {
            point.content_hash() for point in spec.points()
        }

        clean_root = tmp_path / "clean"
        clean = CampaignRunner(store=clean_root, use_leases=False)
        clean.run(spec)
        store.manifest(), clean.store.manifest()
        assert (store_root / "manifest.json").read_bytes() == (
            clean_root / "manifest.json"
        ).read_bytes()

    def test_leased_run_cleans_up_lease_files(self, tmp_path):
        spec = small_spec()
        runner = CampaignRunner(
            store=tmp_path / "store",
            lease_ttl_s=5.0,
        )
        run = runner.run(spec)
        assert run.n_computed == 2
        assert runner.store.active_leases() == []
        assert list((tmp_path / "store" / "leases").glob("*.lease")) == []


class _ExplodingPool:
    """Stands in for ProcessPoolExecutor; every future is broken."""

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(BrokenProcessPool("injected worker death"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _Worker:
    def __init__(self):
        self.terminated = False

    def terminate(self):
        self.terminated = True


class _TablePool:
    """A pool whose ``shutdown`` drops its process table, as CPython's
    ``ProcessPoolExecutor.shutdown`` does."""

    def __init__(self, processes):
        self._processes = processes

    def shutdown(self, wait=True, cancel_futures=False):
        self._processes = None


class TestTerminatePool:
    def test_pool_without_process_table(self):
        pool = _TablePool(None)
        campaign_runner._terminate_pool(pool)
        assert pool._processes is None

    def test_workers_terminated_although_shutdown_drops_table(self):
        workers = [_Worker(), _Worker()]
        pool = _TablePool(dict(enumerate(workers)))
        campaign_runner._terminate_pool(pool)
        assert all(worker.terminated for worker in workers)


class TestPoolDegradation:
    def test_runner_degrades_broken_pool_to_serial(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            campaign_runner, "ProcessPoolExecutor", _ExplodingPool
        )
        monkeypatch.setattr(
            campaign_runner, "resolve_pool_workers", lambda w: 2
        )
        spec = small_spec()
        runner = CampaignRunner(
            store=tmp_path / "store",
            workers=2,
            retry=FAST_RETRY,
            use_leases=False,
        )
        run = runner.run(spec)
        assert run.n_computed == 2 and not run.failures
        # Each point burned its pool attempt before the serial retry.
        assert all(r.attempts == 2 for r in run.results)
        assert runner.store.failures() == []

    @pytest.mark.parametrize("fault", ["broken", "timeout"])
    def test_result_finished_before_the_pool_broke_is_kept(
        self, tmp_path, monkeypatch, fault
    ):
        """The first point's future breaks (or never finishes); the
        second finished before that, so its result is kept and only the
        first is computed again, serially."""

        class ScriptedPool:
            def __init__(self, max_workers=None):
                self.n_submitted = 0

            def submit(self, fn, *args):
                future = Future()
                if self.n_submitted == 0:
                    if fault == "broken":
                        future.set_exception(BrokenProcessPool("died"))
                else:
                    future.set_result(fn(*args))
                self.n_submitted += 1
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        executed = []
        real = campaign_runner.execute_point

        def counting(point):
            executed.append(point.n_devices)
            return real(point)

        monkeypatch.setattr(campaign_runner, "execute_point", counting)
        monkeypatch.setattr(campaign_runner, "ProcessPoolExecutor", ScriptedPool)
        monkeypatch.setattr(campaign_runner, "resolve_pool_workers", lambda w: 2)
        runner = CampaignRunner(
            store=tmp_path / "store",
            workers=2,
            retry=FAST_RETRY,
            point_timeout_s=0.5 if fault == "timeout" else None,
            use_leases=False,
        )
        run = runner.run(small_spec())
        assert not run.failures
        assert sorted(executed) == [1, 2]  # nothing computed twice
        attempts = {r.point.n_devices: r.attempts for r in run.results}
        assert attempts == {1: 2, 2: 1}

    def test_injected_worker_kill_completes_campaign(
        self, tmp_path, execute_chaos
    ):
        """End to end: a kill fault in a real pool worker (or, on a
        1-CPU host, its crash degradation in the serial path) never
        loses the campaign."""
        spec = small_spec()
        execute_chaos(execute_rule("kill", n_devices=1))
        runner = CampaignRunner(
            store=tmp_path / "store",
            workers=2,
            retry=FAST_RETRY,
            use_leases=False,
        )
        run = runner.run(spec)
        assert not run.failures
        assert {r.point.n_devices for r in run.results} == {1, 2}
        assert len(runner.store) == 2


def _child_run(store_root, spec_dict, plan, owner, lease_ttl_s, workdir):
    """Run one campaign in a forked child (acceptance-test worker) under
    ``plan``'s execute faults; completions log to ``workdir/exec.log``."""
    campaign_runner.execute_point = chaos.ExecuteChaos(plan, workdir)
    spec = CampaignSpec.from_dict(spec_dict)
    CampaignRunner(
        store=store_root,
        workers=None,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        owner=owner,
        lease_ttl_s=lease_ttl_s,
    ).run(spec)


class TestConcurrentRunners:
    """The PR's acceptance bar: two concurrent runners on one store,
    one killed mid-run under an injected hang, converge to a manifest
    byte-identical to a single-shot clean run with zero duplicated
    point computations."""

    def test_killed_runner_is_reclaimed_and_store_converges(self, tmp_path):
        spec = small_spec(counts=(1, 2, 3))
        spec_dict = spec.to_dict()
        points = list(spec.points())
        hashes = [point.content_hash() for point in points]
        store_root = tmp_path / "store"

        # Reference: single-shot clean run (no exec log, no faults).
        clean_root = tmp_path / "clean"
        CampaignRunner(store=clean_root, use_leases=False).run(spec)
        CampaignStore(clean_root).manifest()

        # Victim A hangs until killed on the first point while holding
        # its lease (heartbeat keeps it live until A dies).
        victim_plan = chaos.plan(
            execute_rule("hang", attempts=(1, 2, 3), n_devices=1)
        )
        # Survivor B also weathers a transient crash of its own.
        survivor_plan = chaos.plan(crash_rule(n_devices=2))

        workdir = tmp_path / "chaos"
        context = multiprocessing.get_context("fork")
        victim = context.Process(
            target=_child_run,
            args=(
                str(store_root), spec_dict, victim_plan, "victim", 1.0, workdir
            ),
        )
        survivor = context.Process(
            target=_child_run,
            args=(
                str(store_root),
                spec_dict,
                survivor_plan,
                "survivor",
                1.0,
                workdir,
            ),
        )
        survivor_started = False
        try:
            victim.start()
            observer = PosixDriver(store_root)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                lease = live_lease(observer, hashes[0])
                if lease is not None and lease["owner"] == "victim":
                    break
                time.sleep(0.02)
            else:
                pytest.fail("victim never claimed its point")

            survivor.start()
            survivor_started = True
            store = CampaignStore(store_root)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                done = {
                    p.stem
                    for p in (store_root / "points").glob("*.json")
                }
                if {hashes[1], hashes[2]} <= done:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("survivor never checkpointed its points")

            # Kill A mid-run: its heartbeat dies with it, the lease on
            # the hung point expires, and B reclaims it.
            victim.terminate()
            victim.join(timeout=30.0)
            survivor.join(timeout=120.0)
            assert survivor.exitcode == 0
        finally:
            for process in (victim, survivor):
                if process.is_alive():
                    process.kill()
                    process.join(timeout=10.0)

        assert survivor_started
        store = CampaignStore(store_root)
        assert sorted(store.manifest()["points"]) == sorted(hashes)
        assert store.active_leases() == []
        assert store.failures() == []

        # Byte-identical to the clean single-shot store's manifest.
        assert (store_root / "manifest.json").read_bytes() == (
            clean_root / "manifest.json"
        ).read_bytes()

        # Zero duplicated computations: every completed execution
        # logged exactly once, all by the surviving runner.
        logged = (workdir / "exec.log").read_text().split()[::2]
        assert sorted(logged) == sorted(hashes)

    def test_two_live_runners_partition_without_duplicates(self, tmp_path):
        spec = small_spec(counts=(1, 2, 3, 4))
        hashes = [point.content_hash() for point in spec.points()]
        store_root = tmp_path / "store"
        workdir = tmp_path / "chaos"

        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_child_run,
                args=(
                    str(store_root),
                    spec.to_dict(),
                    chaos.Plan(),
                    name,
                    5.0,
                    workdir,
                ),
            )
            for name in ("w1", "w2")
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
        logged = (workdir / "exec.log").read_text().split()[::2]
        assert sorted(logged) == sorted(hashes)
        assert len(logged) == len(set(logged))


class TestCliFaultFlags:
    def test_run_with_fault_plan_retries_and_reports(
        self, tmp_path, capsys, execute_chaos
    ):
        from repro.campaign.cli import main as campaign_cli

        execute_chaos(crash_rule(n_devices=1))
        code = campaign_cli(
            [
                "run",
                "--spec",
                "fig17",
                "--counts",
                "1,2",
                "--rounds",
                "1",
                "--engine",
                "analytic",
                "--store",
                str(tmp_path / "store"),
                "--max-attempts",
                "3",
                "--no-leases",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(0 cached, 2 computed)" in out
        assert "attempts=2" in out

    def test_run_permanent_failure_exits_nonzero(
        self, tmp_path, capsys, execute_chaos
    ):
        from repro.campaign.cli import main as campaign_cli

        execute_chaos(crash_rule(attempts=(1, 2), n_devices=1))
        code = campaign_cli(
            [
                "run",
                "--spec",
                "fig17",
                "--counts",
                "1,2",
                "--rounds",
                "1",
                "--engine",
                "analytic",
                "--store",
                str(tmp_path / "store"),
                "--max-attempts",
                "2",
                "--no-leases",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err
        assert "--allow-partial" in captured.err

    def test_run_allow_partial_lists_failures(
        self, tmp_path, capsys, execute_chaos
    ):
        from repro.campaign.cli import main as campaign_cli

        execute_chaos(crash_rule(attempts=(1, 2), n_devices=1))
        code = campaign_cli(
            [
                "run",
                "--spec",
                "fig17",
                "--counts",
                "1,2",
                "--rounds",
                "1",
                "--engine",
                "analytic",
                "--store",
                str(tmp_path / "store"),
                "--max-attempts",
                "2",
                "--no-leases",
                "--allow-partial",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "1 failed" in out
        assert "[FAIL" in out

    def test_status_reports_fault_columns(self, tmp_path, capsys):
        from repro.campaign.cli import main as campaign_cli

        store = CampaignStore(tmp_path / "store")
        store.save(make_point(), {"phy_rate_bps": 1.0}, {"backend": "x"})
        code = campaign_cli(
            ["status", "--store", str(tmp_path / "store")]
        )
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        for key in (
            "n_leased",
            "n_failed",
            "n_retrying",
            "n_quarantined",
            "quarantine_reasons",
        ):
            assert key in status
