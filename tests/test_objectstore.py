"""Remote object-store driver + chaos-hardened HTTP storage service.

The load-bearing pins:

* **wire protocol** — integrity headers are verified in both
  directions (a corrupt body or lost ETag surfaces as a transient,
  retryable error, never silent corruption), writes to an unknown
  bucket fail loudly, and backend faults map onto retryable 5xx;
* **network chaos** — every network-class fault kind (``refuse``,
  ``http_error`` + Retry-After, ``disconnect`` mid-body, ``delay``,
  ``stale_read``) injected server-side by ``tests/chaos.py`` heals
  inside the client retry stack with zero recomputation;
* **circuit breaker** — consecutive transport failures trip the
  breaker into fail-fast ``CircuitOpenError``; a half-open probe
  closes it again once the endpoint heals; missing keys are answers,
  not failures;
* **delayed-landing writes** — a write that times out client-side but
  lands server-side is reconciled by the idempotent retry (ETag
  read-back) and by the lease protocol's own-owner steal path;
* **acceptance** — two concurrent forked runners over ``HttpDriver``
  against one chaos-injected server converge to a manifest
  byte-identical to a clean single-shot posix run with zero
  duplicated computations.
"""

import json
import multiprocessing
import subprocess
import sys
import time

import pytest

import chaos
from repro.campaign.cli import main as campaign_cli
from repro.campaign.leases import LeaseManager, live_lease
import repro.campaign.objectstore as objectstore_module
import repro.campaign.retry as retry_module
from repro.campaign.objectstore import (
    CircuitBreakerDriver,
    HttpDriver,
    ObjectStoreService,
)
from repro.campaign.presets import fig17_campaign
from repro.campaign.runner import CampaignRunner, RetryPolicy
from repro.campaign.spec import CampaignSpec
from repro.campaign.storage import (
    MemoryDriver,
    PosixDriver,
    RetryingDriver,
    build_driver,
)
from repro.campaign.store import CampaignStore
from repro.errors import (
    CircuitOpenError,
    PersistentStorageError,
    StorageMissingError,
    TransientStorageError,
)

#: Fast client retry policy (real backoffs, tiny delays).
FAST_RETRY = RetryPolicy(
    max_attempts=5, base_delay_s=0.002, max_delay_s=0.01
)


def small_spec(counts=(1, 2), **overrides):
    kwargs = dict(
        rng=0, device_counts=counts, n_rounds=1, engine="analytic"
    )
    kwargs.update(overrides)
    return fig17_campaign(**kwargs)


def network_plan(rules, seed=0):
    return chaos.plan(*rules, seed=seed)


@pytest.fixture
def service(request):
    """A live in-process object-store service over a memory driver."""
    svc = ObjectStoreService()
    svc.start()
    request.addfinalizer(svc.stop)
    return svc


def chaos_service(request, rules, driver=None, seed=0):
    svc = chaos.ChaosObjectStore(network_plan(rules, seed=seed), driver=driver)
    svc.start()
    request.addfinalizer(svc.stop)
    return svc


def dead_url(request):
    """A URL whose endpoint refuses connections (bound, then closed)."""
    svc = ObjectStoreService()
    svc.start()
    url = svc.url
    svc.stop()
    return url


class TestWireProtocol:
    """Integrity and error-mapping pins beyond the shared contract
    suite (which already runs the full driver contract over HTTP)."""

    def test_writes_to_unknown_bucket_fail_loudly(self, service):
        driver = HttpDriver(service.url.rsplit("/", 1)[0] + "/wrong-bucket")
        with pytest.raises(PersistentStorageError):
            driver.put_atomic("points/a.json", b"x")

    def test_corrupt_response_body_is_transient(self, service):
        driver = HttpDriver(service.url)
        with pytest.raises(TransientStorageError):
            driver._verify(
                "get", "points/a.json", b"body", "0" * 64
            )

    def test_lost_etag_readback_retries_the_write(self, service):
        driver = HttpDriver(service.url)
        driver._request = lambda *a, **k: (200, {"etag": '"bogus"'}, b"")
        with pytest.raises(TransientStorageError) as info:
            driver.put_atomic("points/a.json", b"payload")
        assert "ETag" in str(info.value)

    def test_server_rejects_torn_request_body(self, service):
        # A PUT whose body disagrees with its integrity header must be
        # refused (422) with nothing committed.
        from http.client import HTTPConnection
        from urllib.parse import urlsplit

        from repro.campaign.objectstore import OP_HEADER, SHA_HEADER

        netloc = urlsplit(service.url).netloc
        conn = HTTPConnection(netloc, timeout=5.0)
        try:
            conn.request(
                "PUT",
                "/campaign/points/torn.json",
                body=b"actual bytes",
                headers={OP_HEADER: "put_atomic", SHA_HEADER: "0" * 64},
            )
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        assert response.status == 422
        assert not service.driver.exists("points/torn.json")

    @pytest.mark.parametrize("op", [None, "", "bogus"])
    def test_server_refuses_a_request_without_a_driver_op(self, service, op):
        # A request from outside the driver (say, curl) must name its op;
        # the service answers 400 before it touches the store.
        from http.client import HTTPConnection
        from urllib.parse import urlsplit

        from repro.campaign.objectstore import OP_HEADER

        conn = HTTPConnection(urlsplit(service.url).netloc, timeout=5.0)
        try:
            headers = {} if op is None else {OP_HEADER: op}
            conn.request("PUT", "/campaign/points/a.json", body=b"x", headers=headers)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 400
        assert b"must name a driver op" in body
        assert not service.driver.exists("points/a.json")

    def test_backend_transient_fault_maps_to_retryable_503(self, request):
        # The service's *backing* driver hiccups -> 503 on the wire ->
        # TransientStorageError client-side -> the retry wrapper heals.
        backing = chaos.FaultyDriver(
            MemoryDriver(), chaos.plan(chaos.Rule("error", op="get"))
        )
        svc = ObjectStoreService(driver=backing)
        svc.start()
        request.addfinalizer(svc.stop)
        retrying = RetryingDriver(
            HttpDriver(svc.url), FAST_RETRY
        )
        retrying.put_atomic("points/a.json", b"x")
        assert retrying.get("points/a.json") == b"x"
        assert retrying.n_retries == 1

    def test_backend_persistent_fault_is_not_retried(self, request):
        # The backend gave up (500 + X-Repro-Persistent): the client
        # raises at once instead of spending its own retry budget.
        inner = MemoryDriver()
        inner.put_atomic("points/a.json", b"x")
        backing = chaos.FaultyDriver(
            inner, chaos.plan(chaos.Rule("persistent", op="get"))
        )
        svc = ObjectStoreService(driver=backing)
        svc.start()
        request.addfinalizer(svc.stop)
        retrying = RetryingDriver(HttpDriver(svc.url), FAST_RETRY)
        with pytest.raises(PersistentStorageError, match="persistent backend"):
            retrying.get("points/a.json")
        assert retrying.n_retries == 0
        assert retrying.get("points/a.json") == b"x"  # one call fired

    def test_server_refuses_a_rename_without_its_target(self, service):
        from http.client import HTTPConnection
        from urllib.parse import urlsplit

        from repro.campaign.objectstore import OP_HEADER

        service.driver.put_atomic("points/a.json", b"x")
        conn = HTTPConnection(urlsplit(service.url).netloc, timeout=5.0)
        try:
            conn.request(
                "POST",
                "/campaign/points/a.json",
                body=b"",
                headers={OP_HEADER: "rename"},
            )
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 400
        assert b"missing X-Repro-Rename-To" in body
        assert service.driver.get("points/a.json") == b"x"

    def test_server_answers_a_malformed_key_with_400(self, service):
        # The key check runs in the backing driver; its
        # ConfigurationError is the client's mistake, not a fault.
        from http.client import HTTPConnection
        from urllib.parse import urlsplit

        from repro.campaign.objectstore import OP_HEADER

        conn = HTTPConnection(urlsplit(service.url).netloc, timeout=5.0)
        try:
            conn.request(
                "GET", "/campaign/points//a.json", headers={OP_HEADER: "get"}
            )
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "normalised" in body["error"]


#: One call per driver op, for the answers every op must map alike.
DRIVER_CALLS = {
    "get": lambda d: d.get("points/a.json"),
    "put_atomic": lambda d: d.put_atomic("points/a.json", b"x"),
    "replace": lambda d: d.replace("points/a.json", b"x"),
    "put_exclusive": lambda d: d.put_exclusive("leases/a.lease", b"x"),
    "delete": lambda d: d.delete("points/a.json"),
    "list": lambda d: d.list("points/"),
    "exists": lambda d: d.exists("points/a.json"),
    "stat": lambda d: d.stat("points/a.json"),
    "rename": lambda d: d.rename("points/a.json", "quarantine/a.json"),
}


class TestUnexpectedAnswers:
    """A status the protocol never sends is a definitive failure
    (never retried); a 200 whose body or headers do not parse is a
    transport fault (retried)."""

    @pytest.mark.parametrize("op", sorted(DRIVER_CALLS))
    def test_unexpected_status_is_persistent_and_not_retried(
        self, request, op
    ):
        svc = chaos_service(
            request, [chaos.Rule("http_error", op=op, status=409)]
        )
        retrying = RetryingDriver(HttpDriver(svc.url), FAST_RETRY)
        with pytest.raises(PersistentStorageError) as info:
            DRIVER_CALLS[op](retrying)
        assert f"{op}(" in str(info.value)
        assert "unexpected HTTP 409" in str(info.value)
        assert retrying.n_retries == 0
        assert svc.selector.n_injected == 1

    def test_put_exclusive_etag_readback_mismatch_is_transient(self):
        driver = HttpDriver("http://127.0.0.1:9/campaign")
        driver._request = lambda *a, **k: (201, {"etag": '"bogus"'}, b"")
        with pytest.raises(TransientStorageError, match="ETag"):
            driver.put_exclusive("leases/a.lease", b"owner")

    def test_undecodable_listing_is_transient(self):
        driver = HttpDriver("http://127.0.0.1:9/campaign")
        driver._request = lambda *a, **k: (200, {}, b"[not json")
        with pytest.raises(TransientStorageError, match="undecodable"):
            driver.list("points/")

    @pytest.mark.parametrize(
        "headers",
        [
            {"x-repro-mtime": "1.0"},
            {"x-repro-size": "3", "x-repro-mtime": "yesterday"},
        ],
        ids=["size-missing", "mtime-not-a-number"],
    )
    def test_malformed_stat_headers_are_transient(self, headers):
        driver = HttpDriver("http://127.0.0.1:9/campaign")
        driver._request = lambda *a, **k: (200, headers, b"")
        with pytest.raises(TransientStorageError, match="stat headers"):
            driver.stat("points/a.json")


class TestNetworkChaosKinds:
    """Each network-class fault kind, injected server-side from a
    seeded plan, heals inside the client retry stack."""

    def test_refused_connection_heals_on_retry(self, request):
        svc = chaos_service(
            request, [{"kind": "refuse", "op": "get", "calls": [1]}]
        )
        retrying = RetryingDriver(
            HttpDriver(svc.url), FAST_RETRY
        )
        retrying.put_atomic("points/a.json", b"x")
        assert retrying.get("points/a.json") == b"x"
        assert retrying.n_retries == 1
        assert svc.selector.n_injected == 1

    def test_http_error_carries_retry_after_hint(self, request):
        svc = chaos_service(
            request,
            [
                {
                    "kind": "http_error",
                    "op": "get",
                    "calls": [1],
                    "status": 503,
                    "retry_after_s": 0.05,
                }
            ],
        )
        driver = HttpDriver(svc.url)
        driver.put_atomic("points/a.json", b"x")
        with pytest.raises(TransientStorageError) as info:
            driver.get("points/a.json")
        assert info.value.retry_after_s == 0.05

    def test_retry_after_floors_the_backoff(self, request):
        # A 429 with Retry-After: retrying sooner is pointless, so the
        # hint stretches the (otherwise ~1ms) backoff.
        svc = chaos_service(
            request,
            [
                {
                    "kind": "http_error",
                    "op": "get",
                    "calls": [1],
                    "status": 429,
                    "retry_after_s": 0.08,
                }
            ],
        )
        retrying = RetryingDriver(
            HttpDriver(svc.url),
            RetryPolicy(
                max_attempts=3, base_delay_s=0.001, max_delay_s=0.5
            ),
        )
        retrying.put_atomic("points/a.json", b"x")
        start = time.monotonic()
        assert retrying.get("points/a.json") == b"x"
        assert time.monotonic() - start >= 0.08

    def test_disconnect_mid_body_lands_the_write(self, request):
        # The canonical eventually-landing write: the server commits,
        # then truncates the response. The raw client sees a failure;
        # the retry reconciles via the idempotent replace + ETag
        # read-back, with the committed value intact throughout.
        svc = chaos_service(
            request,
            [{"kind": "disconnect", "op": "replace", "calls": [1]}],
        )
        raw = HttpDriver(svc.url)
        raw.put_atomic("points/a.json", b"old")
        with pytest.raises(TransientStorageError):
            raw.replace("points/a.json", b"new")
        assert raw.get("points/a.json") == b"new"  # it landed
        retrying = RetryingDriver(raw, FAST_RETRY)
        retrying.replace("points/a.json", b"newer")
        assert retrying.get("points/a.json") == b"newer"

    def test_delay_slows_but_does_not_fail(self, request):
        svc = chaos_service(
            request,
            [
                {
                    "kind": "delay",
                    "op": "get",
                    "calls": [1],
                    "hang_s": 0.05,
                }
            ],
        )
        driver = HttpDriver(svc.url)
        driver.put_atomic("points/a.json", b"x")
        start = time.monotonic()
        assert driver.get("points/a.json") == b"x"
        assert time.monotonic() - start >= 0.05

    def test_stale_read_serves_previous_committed_state(self, request):
        svc = chaos_service(
            request,
            [{"kind": "stale_read", "op": "get", "calls": [2]}],
        )
        driver = HttpDriver(svc.url)
        driver.put_atomic("points/a.json", b"v1")
        assert driver.get("points/a.json") == b"v1"
        driver.replace("points/a.json", b"v2")
        assert driver.get("points/a.json") == b"v1"  # stale view
        assert driver.get("points/a.json") == b"v2"  # converged

    def test_stale_read_hides_a_fresh_write(self, request):
        # A never-before-written key under a stale read is simply not
        # visible yet — Missing, the answer an eventually-consistent
        # backend would give.
        svc = chaos_service(
            request,
            [{"kind": "stale_read", "op": "get", "calls": [1]}],
        )
        driver = HttpDriver(svc.url)
        driver.put_atomic("points/a.json", b"v1")
        with pytest.raises(StorageMissingError):
            driver.get("points/a.json")
        assert driver.get("points/a.json") == b"v1"


def breaker_settings(monkeypatch, threshold, reset_after_s):
    """For this test, breakers trip after ``threshold`` consecutive
    failures and probe after ``reset_after_s``."""
    monkeypatch.setattr(objectstore_module, "FAILURE_THRESHOLD", threshold)
    monkeypatch.setattr(objectstore_module, "RESET_AFTER_S", reset_after_s)


class TestCircuitBreaker:
    def test_consecutive_failures_trip_then_fail_fast(
        self, request, monkeypatch
    ):
        breaker_settings(monkeypatch, 3, 60.0)
        url = dead_url(request)
        breaker = CircuitBreakerDriver(HttpDriver(url))
        for _ in range(3):
            with pytest.raises(TransientStorageError):
                breaker.get("points/a.json")
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.get("points/a.json")
        stats = breaker.stats()
        assert stats["n_trips"] == 1
        assert stats["n_short_circuited"] == 1

    def test_circuit_open_error_degrades_like_persistent(
        self, request, monkeypatch
    ):
        assert issubclass(CircuitOpenError, PersistentStorageError)
        breaker_settings(monkeypatch, 1, 60.0)
        url = dead_url(request)
        retrying = RetryingDriver(
            CircuitBreakerDriver(HttpDriver(url)), FAST_RETRY
        )
        with pytest.raises(PersistentStorageError):
            retrying.get("points/a.json")
        # Open breaker: the retrying wrapper passes the persistent
        # fail-fast straight through — no retry storm.
        before = retrying.n_retries
        with pytest.raises(CircuitOpenError):
            retrying.get("points/a.json")
        assert retrying.n_retries == before

    def test_missing_keys_are_answers_not_failures(
        self, service, monkeypatch
    ):
        breaker_settings(monkeypatch, 1, 60.0)
        breaker = CircuitBreakerDriver(HttpDriver(service.url))
        for _ in range(3):
            with pytest.raises(StorageMissingError):
                breaker.get("points/absent.json")
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_recovery(self, monkeypatch):
        breaker_settings(monkeypatch, 1, 0.05)
        flaky = chaos.FaultyDriver(
            MemoryDriver(), chaos.plan(chaos.Rule("error", op="get"))
        )
        breaker = CircuitBreakerDriver(flaky)
        breaker.put_atomic("points/a.json", b"x")
        with pytest.raises(TransientStorageError):
            breaker.get("points/a.json")
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.get("points/a.json")
        time.sleep(0.06)
        assert breaker.state == "half-open"
        assert breaker.get("points/a.json") == b"x"  # the probe
        assert breaker.state == "closed"

    def test_failed_probe_reopens(self, request, monkeypatch):
        breaker_settings(monkeypatch, 1, 0.05)
        url = dead_url(request)
        breaker = CircuitBreakerDriver(HttpDriver(url))
        with pytest.raises(TransientStorageError):
            breaker.get("points/a.json")
        time.sleep(0.06)
        with pytest.raises(TransientStorageError):
            breaker.get("points/a.json")  # half-open probe fails
        assert breaker.state == "open"
        assert breaker.stats()["n_trips"] == 2


class TestRunnerDegradation:
    """A dead endpoint degrades the run instead of hanging it: the
    breaker's fail-fast CircuitOpenError rides the runner's existing
    allow_partial read-only path."""

    @pytest.fixture(autouse=True)
    def _one_failure_trips(self, monkeypatch):
        breaker_settings(monkeypatch, 1, 60.0)

    def _dead_store(self, request):
        url = dead_url(request)
        driver = RetryingDriver(
            CircuitBreakerDriver(HttpDriver(url)),
            RetryPolicy(
                max_attempts=2, base_delay_s=0.001, max_delay_s=0.002
            ),
        )
        return CampaignStore(driver=driver)

    def test_allow_partial_computes_without_persistence(self, request):
        store = self._dead_store(request)
        run = CampaignRunner(
            store=store,
            workers=None,
            use_leases=False,
            allow_partial=True,
        ).run(small_spec(counts=(1,)))
        assert run.storage_degraded
        assert len(run.results) == 1
        assert run.results[0].metrics

    def test_without_allow_partial_the_fault_surfaces(self, request):
        store = self._dead_store(request)
        with pytest.raises(PersistentStorageError):
            CampaignRunner(
                store=store,
                workers=None,
                use_leases=False,
            ).run(small_spec(counts=(1,)))


class TestDelayedLandingWrites:
    """``op_timeout_s`` vs writes that land after the client gave up:
    the abandoned operation completes server-side while the retry
    reconciles — idempotent replace via ETag read-back, exclusive
    claims via the lease protocol's own-owner steal path."""

    def test_timed_out_replace_reconciles_idempotently(self, request):
        svc = chaos_service(
            request,
            [
                {
                    "kind": "delay",
                    "op": "replace",
                    "calls": [1],
                    "hang_s": 0.3,
                }
            ],
        )
        raw = HttpDriver(svc.url)
        raw.put_atomic("points/a.json", b"old")
        retrying = RetryingDriver(
            raw,
            RetryPolicy(
                max_attempts=3,
                base_delay_s=0.01,
                max_delay_s=0.05,
            ),
            op_timeout_s=0.1,
        )
        # Attempt 1 times out client-side at 100ms while the server is
        # still sleeping; the abandoned request lands the same bytes at
        # ~300ms. The retry's identical write + ETag read-back makes
        # the race harmless.
        retrying.replace("points/a.json", b"new")
        assert retrying.n_retries >= 1
        time.sleep(0.35)  # let the abandoned write land too
        assert raw.get("points/a.json") == b"new"

    def test_timed_out_claim_reconciled_by_lease_acquire(
        self, request, monkeypatch
    ):
        monkeypatch.setattr(retry_module, "JITTER", 0.0)
        svc = chaos_service(
            request,
            [
                {
                    "kind": "delay",
                    "op": "put_exclusive",
                    "key_prefix": "leases/",
                    "calls": [1],
                    "hang_s": 0.15,
                }
            ],
        )
        driver = RetryingDriver(
            HttpDriver(svc.url),
            RetryPolicy(
                max_attempts=3,
                base_delay_s=0.2,  # retry only after the landing
                max_delay_s=0.3,
            ),
            op_timeout_s=0.05,
        )
        manager = LeaseManager(driver, owner="w1", ttl_s=5.0)
        # The exclusive create times out client-side but lands
        # server-side; the retry then loses to *our own* stale entry,
        # and acquire()'s read-back recognises the owner and steals it
        # back — the claim is granted, not deadlocked.
        assert manager.acquire("abc123") is True
        assert manager.held == ["abc123"]
        holder = live_lease(driver, "abc123")
        assert holder is not None and holder["owner"] == "w1"


class TestServeCli:
    """End-to-end over the CLI: ``serve`` in a subprocess, campaigns
    and fleet monitoring against its URL."""

    def test_run_and_status_over_http(self, request, tmp_path, capsys):
        svc = ObjectStoreService(
            driver=PosixDriver(tmp_path / "store")
        )
        svc.start()
        request.addfinalizer(svc.stop)
        assert (
            campaign_cli(
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
                    "--workers",
                    "0",
                    "--no-leases",
                    "--storage-driver",
                    svc.url,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            campaign_cli(
                ["status", "--json", "--storage-driver", svc.url]
            )
            == 0
        )
        status = json.loads(capsys.readouterr().out.strip())
        assert status["n_points"] == 2
        assert status["storage"]["driver"].startswith(
            "retrying(breaker(http("
        )
        # Per-layer nested stats all the way down to the remote driver.
        assert "state" in status["storage"]["inner"]
        assert "ops" in status["storage"]["inner"]["inner"]

    def test_serve_subprocess_round_trip(self, tmp_path, capsys):
        root = tmp_path / "served"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.campaign",
                "serve",
                "--root",
                str(root),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "serving" in banner
            url = banner.split("--storage-driver ")[1].rstrip(")\n")
            driver = RetryingDriver(
                HttpDriver(url), FAST_RETRY
            )
            driver.put_atomic("notes/a.json", b"{}")
            assert driver.get("notes/a.json") == b"{}"
            assert (
                campaign_cli(
                    ["status", "--json", "--storage-driver", url]
                )
                == 0
            )
            status = json.loads(capsys.readouterr().out.strip())
            assert status["n_points"] == 0
            assert status["root"].startswith("retrying(breaker(http(")
        finally:
            process.terminate()
            process.wait(timeout=10.0)
        # Durable: the served posix root holds the committed bytes.
        assert (root / "notes" / "a.json").read_bytes() == b"{}"


def _child_run_http(url, spec_dict, owner, lease_ttl_s):
    """One campaign over the remote driver in a forked child."""
    store = CampaignStore(
        driver=build_driver(url),
        retry=RetryPolicy(
            max_attempts=6, base_delay_s=0.005, max_delay_s=0.03
        ),
    )
    CampaignRunner(
        store=store,
        workers=None,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        owner=owner,
        lease_ttl_s=lease_ttl_s,
    ).run(CampaignSpec.from_dict(spec_dict))


class TestHttpAcceptance:
    """The PR's acceptance bar: two concurrent runners over
    ``HttpDriver`` against one server under seeded network chaos
    (refused connections, 503s, truncated bodies, one stale read)
    produce a manifest byte-identical to a clean single-shot posix
    run with zero duplicated computations."""

    def test_two_runners_over_http_converge(
        self, request, tmp_path, execute_chaos
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

        executions = execute_chaos()  # forked runners inherit it

        # Server-side chaos: refused connections and 503s on reads, a
        # 503 on a lease claim, truncated response bodies on chunk
        # writes (the writes land), and one stale read on the points
        # namespace — all within the clients' retry budgets.
        svc = chaos_service(
            request,
            [
                {"kind": "refuse", "op": "get", "calls": [3]},
                {
                    "kind": "http_error",
                    "op": "get",
                    "calls": [6],
                    "status": 503,
                    "retry_after_s": 0.02,
                },
                {
                    "kind": "http_error",
                    "op": "put_exclusive",
                    "key_prefix": "leases/",
                    "calls": [2],
                    "status": 503,
                },
                {
                    "kind": "disconnect",
                    "op": "put_atomic",
                    "key_prefix": "points/",
                    "calls": [1, 3],
                },
                {
                    "kind": "stale_read",
                    "op": "exists",
                    "key_prefix": "points/",
                    "calls": [1],
                },
            ],
            driver=PosixDriver(store_root),
            seed=7,
        )

        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_child_run_http,
                args=(svc.url, spec.to_dict(), name, 5.0),
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

        # Every planned rule fired at least the chaos it promised.
        assert svc.n_injected >= 5

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
        logged = executions.executed()
        assert len(logged) == len(set(logged))
        assert sorted(logged) == sorted(hashes)


class TestClientDisconnects:
    """Regression: a client hanging up mid-response must be counted
    and logged once — never a traceback spewed to stderr by the
    ThreadingHTTPServer machinery."""

    def test_mid_response_hangup_is_counted_not_tracebacked(
        self, request, capfd
    ):
        import socket
        import struct
        from urllib.parse import urlsplit

        svc = ObjectStoreService()
        svc.start()
        request.addfinalizer(svc.stop)
        # Big enough that the response write outlives the socket.
        svc.driver.put_atomic("points/big.bin", b"x" * (8 << 20))

        netloc = urlsplit(svc.url).netloc
        host, port = netloc.rsplit(":", 1)
        for _ in range(3):
            sock = socket.create_connection((host, int(port)), 10)
            try:
                # RST on close so the server-side write fails hard.
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                sock.sendall(
                    b"GET /campaign/points/big.bin HTTP/1.1\r\n"
                    b"Host: store\r\nX-Repro-Op: get\r\n\r\n"
                )
                sock.recv(1024)  # headers + first body bytes
            finally:
                sock.close()

        deadline = time.monotonic() + 10.0
        while (
            svc.n_client_disconnects < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert svc.n_client_disconnects >= 1
        assert any(
            "client disconnect" in line for line in svc.log_lines
        )

        captured = capfd.readouterr()
        assert "Traceback" not in captured.err
        assert "BrokenPipeError" not in captured.err
        assert "ConnectionResetError" not in captured.err
