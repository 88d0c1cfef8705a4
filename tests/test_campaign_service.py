"""Campaign service node (``serve-api``) contract tests.

The load-bearing pins:

* **wire protocol** — ``POST /campaigns`` streams ``accepted`` /
  ``point`` (spec order) / ``done`` NDJSON events with the campaign-id
  headers; bad paths/bodies answer 4xx as definitive service answers;
* **read-through cache** — a warm re-submit computes zero points and
  its ``point`` lines are byte-identical to the cold run's;
* **dedup** — M concurrent clients posting one spec observe exactly
  one execution (exec log) and byte-identical streams; a client
  disconnecting mid-stream never aborts the shared computation;
* **backpressure** — a stalled subscriber is dropped after
  ``stall_timeout_s`` without wedging the publisher or live readers;
* **request chaos** — every request-level fault kind (``refuse``,
  ``http_error`` + Retry-After, ``disconnect`` before ``done``,
  ``delay``) heals inside the client's retry/breaker stack;
* **acceptance** — N >= 3 concurrent clients under a seeded chaos plan
  converge to byte-identical streams and a store manifest
  byte-identical to a clean single-shot local run, with zero
  duplicated computations.
"""

import json
import socket
import threading
import time

import pytest

from repro.campaign.client import (
    CampaignServiceClient,
    parse_service_url,
)
from repro.campaign.faults import FaultPlan, FaultRule
from repro.campaign.presets import fig17_campaign
from repro.campaign.runner import EXEC_LOG_ENV, CampaignRunner
from repro.campaign.service import (
    CAMPAIGN_ID_HEADER,
    CREATED_HEADER,
    CampaignExecution,
    CampaignService,
    campaign_id_for,
)
from repro.campaign.store import CampaignStore
from repro.errors import (
    CampaignServiceError,
    CircuitOpenError,
    ConfigurationError,
    PersistentStorageError,
)

#: Fast client retry policy (real backoffs, tiny delays).
from repro.campaign.retry import RetryPolicy

FAST_RETRY = RetryPolicy(
    max_attempts=5, base_delay_s=0.002, max_delay_s=0.01
)


def small_spec(counts=(1, 2), **overrides):
    kwargs = dict(
        rng=0, device_counts=counts, n_rounds=1, engine="analytic"
    )
    kwargs.update(overrides)
    return fig17_campaign(**kwargs)


def request_plan(rules, seed=0):
    return FaultPlan(
        rules=tuple(FaultRule(**rule) for rule in rules),
        seed=seed,
    )


def live_service(request, **kwargs):
    svc = CampaignService(**kwargs)
    svc.start()
    request.addfinalizer(svc.stop)
    return svc


def client_for(svc, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("timeout_s", 30.0)
    return CampaignServiceClient(svc.url, **kwargs)


def slow_execute(monkeypatch, delay_s=0.05):
    """Slow every point computation so concurrent submits overlap one
    execution (the service runs points serially in-process)."""
    import repro.campaign.runner as runner_mod

    original = runner_mod.execute_point

    def slowed(point):
        time.sleep(delay_s)
        return original(point)

    monkeypatch.setattr(runner_mod, "execute_point", slowed)


def wait_until(predicate, timeout_s=10.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestWireProtocol:
    def test_submit_streams_accepted_points_done(self, request):
        svc = live_service(request)
        spec = small_spec(counts=(1, 2, 3))
        run = client_for(svc).submit(spec)

        kinds = [e["event"] for e in run.events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "done"
        assert kinds[1:-1] == ["point"] * 3
        assert run.created is True
        assert run.campaign_id == campaign_id_for(spec.to_dict())
        assert run.events[0]["n_points"] == 3
        assert [e["index"] for e in run.point_events] == [0, 1, 2]
        hashes = [p.content_hash() for p in spec.points()]
        assert [
            e["content_hash"] for e in run.point_events
        ] == hashes
        assert run.summary["status"] == "complete"
        assert run.n_computed == 3 and run.n_failed == 0

    def test_service_metrics_match_local_run(self, request):
        svc = live_service(request)
        spec = small_spec()
        run = client_for(svc).submit(spec)
        local = CampaignRunner(store=None, use_leases=False).run(spec)
        assert run.metrics == local.metrics

    def test_unknown_paths_and_bad_bodies_answer_4xx(self, request):
        svc = live_service(request)
        client = client_for(svc)
        with pytest.raises(CampaignServiceError, match="404"):
            client._get_json("/nope", "status")
        with pytest.raises(CampaignServiceError, match="404"):
            client.status("deadbeef" * 8)

        host, port = parse_service_url(svc.url)[1].split(":")
        from http.client import HTTPConnection

        for body, match in [
            (b"{not json", "malformed JSON"),
            (b"[1, 2, 3]", "JSON object"),
            (b'{"spec": {"name": "x"}}', "error"),
        ]:
            connection = HTTPConnection(host, int(port), timeout=10)
            try:
                connection.request("POST", "/campaigns", body=body)
                response = connection.getresponse()
                assert response.status == 400
                payload = json.loads(response.read())
                assert match in payload["error"] or "error" in payload
            finally:
                connection.close()

    def test_status_and_list_track_an_execution(self, request):
        svc = live_service(request)
        client = client_for(svc)
        spec = small_spec()
        run = client.submit(spec)

        status = client.status(run.campaign_id)
        assert status["campaign_id"] == run.campaign_id
        assert status["state"] == "complete"
        assert status["n_points"] == 2
        assert status["points_done"] == 2
        assert status["points_failed"] == 0
        assert "elapsed_s" in status

        campaigns = client.list_campaigns()
        assert [c["campaign_id"] for c in campaigns] == [
            run.campaign_id
        ]

    def test_healthz_counters(self, request):
        svc = live_service(request)
        client = client_for(svc)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["campaigns_total"] == 0
        assert "memory" in health["store"]

        client.submit(small_spec())
        health = client.healthz()
        assert health["campaigns_total"] == 1
        assert health["campaigns_in_flight"] == 0
        assert health["n_submitted"] == 1
        assert health["n_deduped"] == 0
        assert health["n_client_disconnects"] == 0


class TestReadThroughCache:
    def test_warm_resubmit_computes_nothing_byte_identical(
        self, request
    ):
        svc = live_service(request)
        client = client_for(svc)
        spec = small_spec(counts=(1, 2, 3))

        cold = client.submit(spec)
        assert cold.n_computed == 3 and cold.n_cached == 0

        warm = client.submit(spec)
        assert warm.created is True  # fresh execution ...
        assert warm.n_computed == 0  # ... served from cache
        assert warm.n_cached == 3
        # The determinism contract: cold and warm point lines are the
        # same bytes — no cached/elapsed/attempt fields ever leak in.
        assert warm.point_lines == cold.point_lines
        assert warm.raw_lines[0] == cold.raw_lines[0]  # accepted

    def test_cache_is_the_store_not_the_process(self, request, tmp_path):
        # Any StorageDriver-backed store is the cache: a second
        # service instance over the same posix root answers warm.
        spec = small_spec()
        first = live_service(request, store=tmp_path / "store")
        cold = client_for(first).submit(spec)
        assert cold.n_computed == 2

        second = live_service(request, store=tmp_path / "store")
        warm = client_for(second).submit(spec)
        assert warm.n_computed == 0 and warm.n_cached == 2
        assert warm.point_lines == cold.point_lines


class TestDedup:
    def test_concurrent_identical_submits_execute_once(
        self, request, tmp_path, monkeypatch
    ):
        exec_log = tmp_path / "exec.log"
        monkeypatch.setenv(EXEC_LOG_ENV, str(exec_log))
        slow_execute(monkeypatch, delay_s=0.05)

        svc = live_service(request, store=tmp_path / "store")
        spec = small_spec(counts=(1, 2, 3, 4))
        hashes = [p.content_hash() for p in spec.points()]

        n_clients = 4
        barrier = threading.Barrier(n_clients)
        runs, errors = [None] * n_clients, [None] * n_clients

        def submit(slot):
            client = client_for(svc)
            barrier.wait()
            try:
                runs[slot] = client.submit(spec)
            except Exception as error:  # noqa: BLE001 - reraised below
                errors[slot] = error

        threads = [
            threading.Thread(target=submit, args=(slot,))
            for slot in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == [None] * n_clients

        # Exactly one execution per point, ever.
        logged = exec_log.read_text().splitlines()
        assert sorted(line.split()[0] for line in logged) == sorted(
            hashes
        )

        # Every client saw the identical byte stream, and exactly one
        # request started the execution.
        full_streams = {b"".join(run.raw_lines) for run in runs}
        assert len(full_streams) == 1
        assert sum(run.created for run in runs) == 1
        assert all(run.summary["status"] == "complete" for run in runs)

        health = client_for(svc).healthz()
        assert health["n_submitted"] == n_clients
        assert health["n_deduped"] == n_clients - 1

    def test_mid_stream_disconnect_leaves_shared_run_alive(
        self, request, tmp_path, monkeypatch
    ):
        exec_log = tmp_path / "exec.log"
        monkeypatch.setenv(EXEC_LOG_ENV, str(exec_log))
        slow_execute(monkeypatch, delay_s=0.08)

        svc = live_service(request, store=tmp_path / "store")
        spec = small_spec(counts=(1, 2, 3, 4))
        hashes = [p.content_hash() for p in spec.points()]
        body = json.dumps({"spec": spec.to_dict()}).encode()

        survivor_run = {}

        def survivor():
            survivor_run["run"] = client_for(svc).submit(spec)

        thread = threading.Thread(target=survivor)
        thread.start()

        # A second client joins the same execution over a raw socket,
        # reads the accepted line, then slams the connection shut.
        assert wait_until(
            lambda: svc.healthz()["campaigns_in_flight"] == 1
        )
        host, port = parse_service_url(svc.url)[1].split(":")
        sock = socket.create_connection((host, int(port)), timeout=10)
        try:
            sock.sendall(
                b"POST /campaigns HTTP/1.1\r\n"
                b"Host: service\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            sock.recv(1024)  # headers + early stream bytes
        finally:
            sock.close()

        thread.join(timeout=30)
        run = survivor_run["run"]
        assert run.summary["status"] == "complete"
        assert [e["content_hash"] for e in run.point_events] == hashes
        logged = exec_log.read_text().splitlines()
        assert sorted(line.split()[0] for line in logged) == sorted(
            hashes
        )
        assert wait_until(
            lambda: svc.healthz()["campaigns_in_flight"] == 0
        )


class TestBackpressure:
    """Unit tests straight on :class:`CampaignExecution`."""

    @staticmethod
    def execution(spec, max_backlog=2, stall_timeout_s=0.2):
        def factory(on_result):
            return CampaignRunner(
                store=None, use_leases=False, on_result=on_result
            )

        return CampaignExecution(
            campaign_id_for(spec.to_dict()),
            spec,
            factory,
            max_backlog=max_backlog,
            stall_timeout_s=stall_timeout_s,
        )

    def test_knob_validation(self):
        spec = small_spec()
        with pytest.raises(ConfigurationError):
            self.execution(spec, max_backlog=0)
        with pytest.raises(ConfigurationError):
            self.execution(spec, stall_timeout_s=-1)

    def test_stalled_subscriber_dropped_fast_reader_unaffected(self):
        spec = small_spec(counts=(1, 2, 3, 4, 5, 6))
        execution = self.execution(
            spec, max_backlog=2, stall_timeout_s=0.1
        )
        laggard = execution.subscribe()  # never reads
        fast = execution.subscribe()
        lines = []
        execution.start()
        while True:
            line = execution.next_event(fast)
            if line is None:
                break
            lines.append(line)
        execution.join(timeout=30)

        assert len(lines) == 6  # every point, despite the laggard
        assert [json.loads(l)["index"] for l in lines] == list(range(6))
        with pytest.raises(CampaignServiceError, match="dropped"):
            execution.next_event(laggard)
        status = execution.status_snapshot()
        assert status["state"] == "complete"

    def test_runner_crash_becomes_failed_summary(self):
        spec = small_spec()

        def exploding_factory(on_result):
            raise RuntimeError("boom")

        execution = CampaignExecution(
            campaign_id_for(spec.to_dict()), spec, exploding_factory
        )
        token = execution.subscribe()
        execution.start()
        assert execution.next_event(token) is None  # nothing published
        summary = json.loads(execution.summary_line())
        assert summary["status"] == "failed"
        assert "boom" in summary["error"]
        assert execution.status_snapshot()["state"] == "failed"

    def test_summary_line_before_done_raises(self):
        execution = self.execution(small_spec())
        with pytest.raises(CampaignServiceError, match="running"):
            execution.summary_line()


class TestRequestChaos:
    def test_refused_submit_heals_on_retry(self, request):
        svc = live_service(
            request,
            service_fault_plan=request_plan(
                [{"kind": "refuse", "op": "submit", "calls": [1]}]
            ),
        )
        run = client_for(svc).submit(small_spec())
        assert run.attempts == 2
        assert run.summary["status"] == "complete"

    def test_503_with_retry_after_heals(self, request):
        svc = live_service(
            request,
            service_fault_plan=request_plan(
                [
                    {
                        "kind": "http_error",
                        "op": "healthz",
                        "calls": [1],
                        "status": 503,
                        "retry_after_s": 0.01,
                    }
                ]
            ),
        )
        client = client_for(svc)
        assert client.healthz()["status"] == "ok"
        assert client.n_retries == 1

    def test_delay_is_survived_within_timeout(self, request):
        svc = live_service(
            request,
            service_fault_plan=request_plan(
                [
                    {
                        "kind": "delay",
                        "op": "submit",
                        "calls": [1],
                        "hang_s": 0.05,
                    }
                ]
            ),
        )
        run = client_for(svc).submit(small_spec())
        assert run.attempts == 1
        assert run.summary["status"] == "complete"

    def test_disconnect_before_done_resubmits_through_cache(
        self, request, tmp_path, monkeypatch
    ):
        exec_log = tmp_path / "exec.log"
        monkeypatch.setenv(EXEC_LOG_ENV, str(exec_log))
        svc = live_service(
            request,
            store=tmp_path / "store",
            service_fault_plan=request_plan(
                [{"kind": "disconnect", "op": "submit", "calls": [1]}]
            ),
        )
        spec = small_spec(counts=(1, 2, 3))
        hashes = [p.content_hash() for p in spec.points()]
        run = client_for(svc).submit(spec)

        # First attempt streamed the points but lost the done line;
        # the retry replayed entirely from the store's cache.
        assert run.attempts == 2
        assert run.summary["status"] == "complete"
        assert run.n_computed == 0 and run.n_cached == 3
        logged = exec_log.read_text().splitlines()
        assert sorted(line.split()[0] for line in logged) == sorted(
            hashes
        )

    def test_persistent_refusal_exhausts_then_trips_breaker(
        self, request
    ):
        svc = live_service(
            request,
            service_fault_plan=request_plan(
                [
                    {
                        "kind": "refuse",
                        "op": "healthz",
                        "calls": list(range(1, 40)),
                    }
                ]
            ),
        )
        client = client_for(svc)
        with pytest.raises(PersistentStorageError):
            client.healthz()
        assert client.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.healthz()

    def test_dead_endpoint_exhausts_to_persistent_error(self, request):
        svc = live_service(request)
        url = svc.url
        svc.stop()
        client = CampaignServiceClient(
            url, retry=FAST_RETRY, timeout_s=2.0
        )
        with pytest.raises(PersistentStorageError):
            client.healthz()


class TestAcceptance:
    def test_n_clients_under_chaos_converge_byte_identical(
        self, request, tmp_path, monkeypatch
    ):
        spec = small_spec(counts=(1, 2, 3, 4))
        hashes = [p.content_hash() for p in spec.points()]

        # Clean single-shot local run — the reference manifest.
        clean_root = tmp_path / "clean"
        CampaignRunner(
            store=CampaignStore(clean_root),
            use_leases=False,
        ).run(spec)
        CampaignStore(clean_root).manifest()

        exec_log = tmp_path / "exec.log"
        monkeypatch.setenv(EXEC_LOG_ENV, str(exec_log))
        slow_execute(monkeypatch, delay_s=0.03)

        store_root = tmp_path / "store"
        svc = live_service(
            request,
            store=store_root,
            service_fault_plan=request_plan(
                [
                    {"kind": "refuse", "op": "submit", "calls": [2]},
                    {
                        "kind": "http_error",
                        "op": "submit",
                        "calls": [4],
                        "status": 503,
                        "retry_after_s": 0.01,
                    },
                    {
                        "kind": "delay",
                        "op": "submit",
                        "calls": [3],
                        "hang_s": 0.02,
                    },
                ],
                seed=7,
            ),
        )

        n_clients = 3
        barrier = threading.Barrier(n_clients)
        runs, errors = [None] * n_clients, [None] * n_clients

        def submit(slot):
            client = client_for(svc)
            barrier.wait()
            try:
                runs[slot] = client.submit(spec)
            except Exception as error:  # noqa: BLE001 - reraised below
                errors[slot] = error

        threads = [
            threading.Thread(target=submit, args=(slot,))
            for slot in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == [None] * n_clients
        assert svc.selector.n_injected >= 3

        # Byte-identical result streams across every client.
        assert len({b"".join(r.point_lines) for r in runs}) == 1
        assert all(r.summary["status"] == "complete" for r in runs)

        # Exactly one execution per point across all the chaos.
        logged = exec_log.read_text().splitlines()
        assert sorted(line.split()[0] for line in logged) == sorted(
            hashes
        )

        # The chaos store converged to the clean run's manifest, byte
        # for byte.
        CampaignStore(store_root).manifest()
        assert (store_root / "manifest.json").read_bytes() == (
            clean_root / "manifest.json"
        ).read_bytes()

        # Warm re-request: zero recompute, same bytes.
        warm = client_for(svc).submit(spec)
        assert warm.n_computed == 0 and warm.n_cached == len(hashes)
        assert b"".join(warm.point_lines) == b"".join(
            runs[0].point_lines
        )

        health = client_for(svc).healthz()
        assert health["status"] == "ok"
        assert health["campaigns_in_flight"] == 0
