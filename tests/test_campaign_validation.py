"""Inputs the campaign stack must absorb or reject up front.

* A ``Retry-After`` header in HTTP-date form (valid under RFC 9110
  §10.2.3) is "no hint", not a crash: the HTTP driver stack retries
  the 503 and escalates to ``PersistentStorageError`` like any other
  transient failure.
* Fault-plan rules whose values would fail mid-run (a negative sleep,
  a non-numeric ``Retry-After``), silently never fire (attempt/call
  index 0, negative ``max_fires``) or do something else than they say
  (a negative torn ``offset``, a fractional ``max_fires``), and rules
  that are not rules at all (unknown keys, scalar index lists, a bare
  number) are rejected at load with ``ConfigurationError`` — and the
  CLI turns that into one ``error:`` line with exit code 2.
"""

import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.campaign.cli import entrypoint
from repro.campaign.client import CampaignServiceClient
from repro.campaign.faults import (
    PLAN_SCHEMA,
    STORAGE_PLAN_SCHEMA,
    FaultPlan,
)
from repro.campaign.objectstore import HttpDriver
from repro.campaign.presets import fig17_campaign
from repro.campaign.runner import CampaignRunner
from repro.campaign.service import CampaignService
from repro.campaign.storage import RetryingDriver
from repro.errors import ConfigurationError, PersistentStorageError

HTTP_DATE = "Wed, 21 Oct 2015 07:28:00 GMT"


@pytest.fixture
def unavailable_url():
    """A stub server answering every request 503 with an HTTP-date
    ``Retry-After``; yields ``(base_url, request_counter)``."""
    hits = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _unavailable(self):
            hits.append(self.command)
            body = b'{"error": "unavailable"}\n'
            self.send_response(503)
            self.send_header("Retry-After", HTTP_DATE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.close_connection = True

        do_GET = do_HEAD = do_PUT = do_POST = _unavailable

        def log_message(self, format, *args):  # noqa: A002
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", hits
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestHttpDateRetryAfter:
    def test_driver_stack_retries_then_escalates(self, unavailable_url):
        url, hits = unavailable_url
        driver = RetryingDriver(HttpDriver(f"{url}/campaign"))
        with pytest.raises(PersistentStorageError):
            driver.get("points/a.json")
        assert driver.n_retries == 3
        assert len(hits) == 4

    def test_client_retries_then_escalates(self, unavailable_url):
        url, hits = unavailable_url
        client = CampaignServiceClient(url)
        spec = fig17_campaign(rng=0, device_counts=(1,), n_rounds=1, engine="analytic")
        with pytest.raises(PersistentStorageError):
            client.submit(spec)
        assert client.n_retries == 3
        assert len(hits) == 4


class TestFaultRuleValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"kind": "hang", "hang_s": -1.0},
            {"kind": "hang", "hang_s": math.nan},
            {"kind": "hang", "hang_s": math.inf},
            {"kind": "crash", "attempts": [0]},
            {"kind": "crash", "attempts": [2, -1]},
            {"kind": "crash", "attempts": 1},
            {"kind": "crash", "bogus": 1},
        ],
        ids=[
            "neg-hang",
            "nan-hang",
            "inf-hang",
            "attempt-0",
            "attempt-neg",
            "scalar-attempts",
            "unknown-key",
        ],
    )
    def test_rejected_at_construction(self, overrides):
        rule = {"stage": "execute", **overrides}
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"schema": PLAN_SCHEMA, "rules": [rule]})


class TestStorageFaultRuleValidation:
    @pytest.mark.parametrize(
        "rule",
        [
            {"kind": "hang", "hang_s": -1.0},
            {"kind": "delay", "hang_s": math.nan},
            {"kind": "hang", "hang_s": math.inf},
            {"kind": "error", "calls": [0, -3]},
            {"kind": "error", "p": 0.5, "max_fires": -1},
            {"kind": "error", "bogus": 1},
            {"kind": "error", "calls": 5},
            {"kind": "http_error", "retry_after_s": "soon"},
            {"kind": "http_error", "retry_after_s": math.nan},
            {"kind": "http_error", "retry_after_s": math.inf},
            {"kind": "torn", "op": "put_atomic", "offset": -3},
            {"kind": "error", "p": 0.5, "max_fires": 1.5},
            3,
        ],
        ids=[
            "neg-hang",
            "nan-delay",
            "inf-hang",
            "calls-0",
            "neg-max-fires",
            "unknown-key",
            "scalar-calls",
            "text-retry-after",
            "nan-retry-after",
            "inf-retry-after",
            "neg-offset",
            "fractional-max-fires",
            "not-a-rule",
        ],
    )
    def test_rejected_at_construction(self, rule):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict(
                {"schema": STORAGE_PLAN_SCHEMA, "rules": [rule]}
            )

    def test_zero_max_fires_is_a_valid_disabled_rule(self):
        plan = FaultPlan.from_dict(
            {"rules": [{"kind": "error", "max_fires": 0}]}
        )
        assert plan.rules[0].max_fires == 0


def test_cli_rejects_negative_hang_in_one_line(tmp_path, capsys):
    plan = (
        '{"schema": "repro-storage-fault-plan-v1", '
        '"rules": [{"kind": "hang", "hang_s": -1}]}'
    )
    code = entrypoint(
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
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_rejects_unknown_rule_key_in_one_line(tmp_path, capsys):
    code = entrypoint(
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
            '{"rules": [{"kind": "error", "bogus": 1}]}',
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


class TestPointTimeout:
    """``0`` used to mean "no bound" serially and "time out now" in a
    pool; now only ``None`` or a finite value > 0 builds a runner."""

    @pytest.mark.parametrize("timeout_s", [0, 0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_runner_rejects(self, timeout_s):
        with pytest.raises(ConfigurationError, match="point_timeout_s"):
            CampaignRunner(point_timeout_s=timeout_s)

    @pytest.mark.parametrize("timeout_s", [None, 0.5, 30])
    def test_runner_accepts(self, timeout_s):
        CampaignRunner(point_timeout_s=timeout_s)

    @pytest.mark.parametrize("timeout_s", [0, -1.0, math.nan])
    def test_service_rejects_before_serving(self, timeout_s):
        with pytest.raises(ConfigurationError, match="point_timeout_s"):
            CampaignService(point_timeout_s=timeout_s)


class TestCliValues:
    """Malformed ``run`` values end in one ``error:`` line and exit 2,
    before a store is made."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--counts", "1,x"],
            ["--counts", "1", "--lease-ttl-s", "0"],
            ["--counts", "1", "--lease-ttl-s", "-1"],
            ["--counts", "1", "--timeout-s", "-1"],
            ["--counts", "1", "--timeout-s", "nan"],
            ["--counts", "1", "--timeout-s", "0"],
        ],
        ids=["counts", "ttl-zero", "ttl-negative", "timeout-negative", "timeout-nan",
             "timeout-zero"],
    )
    def test_run_refuses_up_front(self, extra, capsys, tmp_path):
        store = tmp_path / "store"
        code = entrypoint(
            ["run", "--spec", "fig17", "--rounds", "1", "--engine", "analytic",
             "--store", str(store)] + extra
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not store.exists()

    def test_serve_api_refuses_a_bad_timeout(self, capsys):
        assert entrypoint(["serve-api", "--port", "0", "--timeout-s", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: --timeout-s")
