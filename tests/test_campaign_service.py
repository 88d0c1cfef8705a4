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
  ``STALL_TIMEOUT_S`` without wedging the publisher or live readers;
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
import urllib.error
import urllib.request

import pytest

from repro.campaign.client import (
    CampaignServiceClient,
    parse_service_url,
)
import chaos
from repro.campaign.objectstore import HttpService, HttpServiceHandler
from repro.campaign.presets import fig17_campaign
from repro.campaign.runner import CampaignRunner
import repro.campaign.service as service_module
from repro.campaign.service import (
    CampaignExecution,
    CampaignService,
    campaign_id_for,
)
from repro.campaign.store import CampaignStore
from repro.errors import (
    CampaignExecutionError,
    CampaignServiceError,
    CircuitOpenError,
    PersistentStorageError,
)
from repro.protocol.network import NetworkMetrics

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
    return chaos.plan(*rules, seed=seed)


def live_service(request, service_fault_plan=None, **kwargs):
    """A started service; ``service_fault_plan`` (a ``chaos.Plan``)
    makes it the test harness's request-chaos subclass."""
    svc = (
        CampaignService(**kwargs)
        if service_fault_plan is None
        else chaos.ChaosService(service_fault_plan, **kwargs)
    )
    svc.start()
    request.addfinalizer(svc.stop)
    return svc


def client_for(svc, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("timeout_s", 30.0)
    return CampaignServiceClient(svc.url, **kwargs)


def get_json(svc, path):
    """``(status, payload)`` of a GET on one of the service's JSON
    endpoints, read the way a monitor reads them with ``curl``."""
    try:
        with urllib.request.urlopen(svc.url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


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
        assert [
            NetworkMetrics(**e["metrics"]) for e in run.point_events
        ] == local.metrics

    def test_unknown_paths_and_bad_bodies_answer_4xx(self, request):
        svc = live_service(request)
        assert get_json(svc, "/nope")[0] == 404
        status, payload = get_json(svc, f"/campaigns/{'deadbeef' * 8}/status")
        assert status == 404 and "unknown campaign" in payload["error"]

        host, port = parse_service_url(svc.url)[1].split(":")
        from http.client import HTTPConnection

        for body, match in [
            (b"{not json", "malformed JSON"),
            (b"[1, 2, 3]", "JSON object"),
            (b'{"spec": {"name": "x"}}', "missing 3 required positional"),
        ]:
            connection = HTTPConnection(host, int(port), timeout=10)
            try:
                connection.request("POST", "/campaigns", body=body)
                response = connection.getresponse()
                assert response.status == 400
                payload = json.loads(response.read())
                assert match in payload["error"]
            finally:
                connection.close()

    def test_status_and_list_track_an_execution(self, request):
        svc = live_service(request)
        spec = small_spec()
        run = client_for(svc).submit(spec)

        code, status = get_json(svc, f"/campaigns/{run.campaign_id}/status")
        assert code == 200
        assert status["campaign_id"] == run.campaign_id
        assert status["state"] == "complete"
        assert status["n_points"] == 2
        assert status["points_done"] == 2
        assert status["points_failed"] == 0
        assert "elapsed_s" in status

        code, listing = get_json(svc, "/campaigns")
        assert code == 200
        assert [c["campaign_id"] for c in listing["campaigns"]] == [
            run.campaign_id
        ]

    def test_healthz_counters(self, request):
        svc = live_service(request)
        health = get_json(svc, "/healthz")[1]
        assert health["status"] == "ok"
        assert health["campaigns_total"] == 0
        assert "memory" in health["store"]

        client_for(svc).submit(small_spec())
        health = get_json(svc, "/healthz")[1]
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
        self, request, tmp_path, monkeypatch, execute_chaos
    ):
        executions = execute_chaos()
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
        assert sorted(executions.executed()) == sorted(hashes)

        # Every client saw the identical byte stream, and exactly one
        # request started the execution.
        full_streams = {b"".join(run.raw_lines) for run in runs}
        assert len(full_streams) == 1
        assert sum(run.created for run in runs) == 1
        assert all(run.summary["status"] == "complete" for run in runs)

        health = get_json(svc, "/healthz")[1]
        assert health["n_submitted"] == n_clients
        assert health["n_deduped"] == n_clients - 1

    def test_mid_stream_disconnect_leaves_shared_run_alive(
        self, request, tmp_path, monkeypatch, execute_chaos
    ):
        executions = execute_chaos()
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
        assert sorted(executions.executed()) == sorted(hashes)
        assert wait_until(
            lambda: svc.healthz()["campaigns_in_flight"] == 0
        )


class TestBackpressure:
    """Unit tests straight on :class:`CampaignExecution`."""

    @staticmethod
    def execution(spec):
        def factory(on_result):
            return CampaignRunner(
                store=None, use_leases=False, on_result=on_result
            )

        return CampaignExecution(
            campaign_id_for(spec.to_dict()), spec, factory
        )

    def test_stalled_subscriber_dropped_fast_reader_unaffected(
        self, monkeypatch
    ):
        monkeypatch.setattr(service_module, "MAX_BACKLOG", 2)
        monkeypatch.setattr(service_module, "STALL_TIMEOUT_S", 0.1)
        spec = small_spec(counts=(1, 2, 3, 4, 5, 6))
        execution = self.execution(spec)
        laggard = execution.subscribe()  # never reads
        fast = execution.subscribe()
        lines = []
        execution.start()
        while True:
            line = execution.next_event(fast)
            if line is None:
                break
            lines.append(line)

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
                        "op": "submit",
                        "calls": [1],
                        "status": 503,
                        "retry_after_s": 0.01,
                    }
                ]
            ),
        )
        client = client_for(svc)
        assert client.submit(small_spec()).summary["status"] == "complete"
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
        self, request, tmp_path, execute_chaos
    ):
        executions = execute_chaos()
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
        assert sorted(executions.executed()) == sorted(hashes)

    def test_persistent_refusal_exhausts_then_trips_breaker(
        self, request
    ):
        svc = live_service(
            request,
            service_fault_plan=request_plan(
                [
                    {
                        "kind": "refuse",
                        "op": "submit",
                        "calls": list(range(1, 40)),
                    }
                ]
            ),
        )
        client = client_for(svc)
        with pytest.raises(PersistentStorageError):
            client.submit(small_spec())
        # The breaker is open: the next submit fails fast, unretried.
        retries = client.n_retries
        with pytest.raises(CircuitOpenError):
            client.submit(small_spec())
        assert client.n_retries == retries

    def test_dead_endpoint_exhausts_to_persistent_error(self, request):
        svc = live_service(request)
        url = svc.url
        svc.stop()
        client = CampaignServiceClient(
            url, retry=FAST_RETRY, timeout_s=2.0
        )
        with pytest.raises(PersistentStorageError):
            client.submit(small_spec())


class _CannedStreamHandler(HttpServiceHandler):
    """Answers every submit with the service's canned chunked body."""

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self.close_connection = True
        self.rfile.read(int(self.headers.get("Content-Length", 0) or 0))
        self.service.n_requests += 1
        self.send_response(200)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        self.wfile.write(self.service.body)
        self.wfile.flush()


class CannedStreamService(HttpService):
    """A submit endpoint whose stream breaks the way ``body`` does."""

    handler = _CannedStreamHandler
    thread_name = "canned-stream"

    def __init__(self, body: bytes) -> None:
        super().__init__("127.0.0.1", 0)
        self.body = body
        self.n_requests = 0


def _chunk(data: bytes) -> bytes:
    return f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n"


ACCEPTED = b'{"event":"accepted","n_points":1}\n'
#: Streams that never reach ``done``, each with the failure it names.
BROKEN_STREAMS = {
    "torn-line": (
        _chunk(ACCEPTED) + _chunk(b'{"event":"poi\n') + b"0\r\n\r\n",
        "submit stream line torn",
    ),
    "ends-before-done": (
        _chunk(ACCEPTED) + b"0\r\n\r\n",
        "submit stream ended before the done event",
    ),
    "subscriber-dropped": (
        _chunk(ACCEPTED)
        + _chunk(b'{"event":"error","error":"fell behind"}\n')
        + b"0\r\n\r\n",
        "service dropped this subscriber: fell behind",
    ),
    "cut-mid-chunk": (
        _chunk(ACCEPTED) + b"40\r\n{\"event\"",
        "submit stream broke mid-read: IncompleteRead",
    ),
}


class TestClientStreamFaults:
    """Every way a submit stream can break before its ``done`` line is
    transient: the client re-submits, then escalates with the cause."""

    @pytest.mark.parametrize("case", sorted(BROKEN_STREAMS))
    def test_broken_stream_is_retried_then_named(self, request, case):
        body, cause = BROKEN_STREAMS[case]
        svc = CannedStreamService(body)
        svc.start()
        request.addfinalizer(svc.stop)
        client = CampaignServiceClient(
            svc.url,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.001),
            timeout_s=5.0,
        )
        with pytest.raises(PersistentStorageError) as info:
            client.submit(small_spec())
        assert "after 2 attempts" in str(info.value)
        assert cause in str(info.value)
        assert svc.n_requests == 2 and client.n_retries == 1

    def test_unexpected_status_is_a_service_answer(self, request):
        svc = live_service(
            request,
            service_fault_plan=request_plan(
                [chaos.Rule("http_error", op="submit", status=409)]
            ),
        )
        client = client_for(svc)
        with pytest.raises(CampaignServiceError, match="HTTP 409"):
            client.submit(small_spec())
        assert client.n_retries == 0
        # The endpoint answered: the breaker stays closed and the next
        # submit goes through.
        assert client.submit(small_spec()).summary["status"] == "complete"

    def test_dropped_subscriber_resubmits_and_completes(
        self, request, monkeypatch, execute_chaos
    ):
        # The backpressure policy drops the first subscription
        # mid-stream; the service says so in an error line and the
        # client's re-submit joins or replays the execution, which
        # computes each point once.
        executions = execute_chaos()
        real = service_module.CampaignExecution.next_event
        dropped = []

        def next_event(execution, token):
            if not dropped:
                dropped.append(token)
                raise CampaignServiceError("subscriber fell behind")
            return real(execution, token)

        monkeypatch.setattr(
            service_module.CampaignExecution, "next_event", next_event
        )
        svc = live_service(request)
        spec = small_spec()
        run = client_for(svc).submit(spec)
        assert run.attempts == 2
        assert run.summary["status"] == "complete"
        assert [e["index"] for e in run.point_events] == [0, 1]
        assert sorted(executions.executed()) == sorted(
            p.content_hash() for p in spec.points()
        )

    def test_submit_takes_the_spec_dict_form(self, request):
        svc = live_service(request)
        spec = small_spec()
        by_dict = client_for(svc).submit(spec.to_dict())
        assert by_dict.campaign_id == campaign_id_for(spec.to_dict())
        assert by_dict.raw_lines[1:-1] == client_for(svc).submit(spec).raw_lines[1:-1]

    def test_failed_campaign_raises_unless_told_not_to(
        self, request, execute_chaos
    ):
        execute_chaos(chaos.Rule("crash", op="execute", calls=(1, 2, 3)))
        svc = live_service(
            request,
            allow_partial=False,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.001),
        )
        client = client_for(svc)
        with pytest.raises(CampaignExecutionError, match="failed server-side"):
            client.submit(small_spec())
        run = client.submit(small_spec(), raise_on_failed=False)
        assert run.summary["status"] == "failed"
        assert "injected crash" in run.summary["error"]
        assert client.n_retries == 0


class TestServerRefusals:
    def test_post_to_an_unknown_path_is_404(self, request):
        svc = live_service(request)
        from http.client import HTTPConnection

        connection = HTTPConnection(parse_service_url(svc.url)[1], timeout=10)
        try:
            connection.request("POST", "/campaign", body=b"{}")
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 404
        assert "unknown path" in payload["error"]
        assert svc.healthz()["n_submitted"] == 0

    def test_truncated_request_body_is_400(self, request):
        # The client declares more body than it sends, then closes its
        # side: nothing is submitted.
        svc = live_service(request)
        host, port = parse_service_url(svc.url)[1].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /campaigns HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n{\"spec\": "
            )
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"truncated request body" in reply
        assert svc.healthz()["n_submitted"] == 0


class TestServeApiCli:
    """``serve-api`` and ``submit`` in-process: the banner names the
    URL the service answers on, over the store the flags name."""

    @pytest.mark.parametrize("flag", ["--store", "--storage-driver"])
    def test_serve_api_serves_the_named_store(
        self, monkeypatch, capsys, tmp_path, flag
    ):
        from repro.campaign import cli

        root = tmp_path / "store"
        value = str(root) if flag == "--store" else f"posix://{root}"
        spec = small_spec()
        runs = []

        def one_submit():
            banner = capsys.readouterr().out
            assert "serving campaign API over " in banner
            url = banner.split("--service ")[1].split()[0]
            runs.append(CampaignServiceClient(url, retry=FAST_RETRY).submit(spec))

        monkeypatch.setattr(cli, "_serve_until_interrupted", one_submit)
        assert cli.main(["serve-api", flag, value, "--port", "0"]) == 0
        assert runs[0].summary["status"] == "complete"
        assert len(CampaignStore(root)) == len(list(spec.points()))

    def test_serve_without_a_root_serves_memory(self, monkeypatch, capsys):
        from repro.campaign import cli
        from repro.campaign.objectstore import HttpDriver

        read = []

        def one_round_trip():
            banner = capsys.readouterr().out
            assert banner.startswith("serving memory:// at ")
            driver = HttpDriver(banner.split("--storage-driver ")[1].rstrip(")\n"))
            driver.put_atomic("notes/a.json", b"{}")
            read.append(driver.get("notes/a.json"))

        monkeypatch.setattr(cli, "_serve_until_interrupted", one_round_trip)
        assert cli.main(["serve", "--port", "0"]) == 0
        assert read == [b"{}"]

    def test_submit_reports_a_server_side_failure(
        self, request, capsys, execute_chaos
    ):
        from repro.campaign.cli import entrypoint

        execute_chaos(chaos.Rule("crash", op="execute", calls=(1, 2, 3)))
        svc = live_service(
            request,
            allow_partial=False,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.001),
        )
        code = entrypoint(
            ["submit", "--service", svc.url, "--spec", "fig17",
             "--counts", "1", "--rounds", "1"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "FAILED server-side" in err and "injected crash" in err


class TestAcceptance:
    def test_n_clients_under_chaos_converge_byte_identical(
        self, request, tmp_path, monkeypatch, execute_chaos
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

        executions = execute_chaos()
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
        assert sorted(executions.executed()) == sorted(hashes)

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

        health = get_json(svc, "/healthz")[1]
        assert health["status"] == "ok"
        assert health["campaigns_in_flight"] == 0
