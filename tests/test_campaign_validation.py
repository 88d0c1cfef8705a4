"""Inputs the campaign stack must absorb or reject up front.

* A ``Retry-After`` header in HTTP-date form (valid under RFC 9110
  §10.2.3) is "no hint", not a crash: the HTTP driver stack retries
  the 503 and escalates to ``PersistentStorageError`` like any other
  transient failure.
* A point timeout that is not a finite number of seconds > 0 is
  refused by the runner, the service and the CLI alike.
"""

import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.campaign.cli import entrypoint
from repro.campaign.client import CampaignServiceClient
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
            ["--counts", "1", "--workers", "-1"],
        ],
        ids=["counts", "ttl-zero", "ttl-negative", "timeout-negative", "timeout-nan",
             "timeout-zero", "workers-negative"],
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
