"""Campaign-stack inputs refused up front, and damage mapped to the
right error.

* Fault rules, fault plans, service and driver URLs, breaker knobs,
  bucket names and campaign specs that cannot work are refused at
  construction with ``ConfigurationError`` — not halfway through a
  sharded run.
* A filesystem error under a posix driver surfaces as
  ``TransientStorageError`` (retryable), never as a bare ``OSError``
  or as a wrong answer.
* Every way a stored chunk can rot lands it in ``quarantine/`` under
  its own reason, and torn or foreign lease payloads read as vacant.
* ``python -m repro.campaign submit`` prints one line per point, the
  raw stream with ``--json``, and exits 1 when a point or the
  transport fails.
"""

import io
import json
import socket
import zipfile

import numpy as np
import pytest

from repro.campaign.cli import entrypoint
from repro.campaign.client import CampaignServiceClient, parse_service_url
from repro.campaign.faults import FaultPlan, FaultRule
from repro.campaign.leases import (
    LEASE_SCHEMA,
    _deadline,
    parse_lease,
    scan_lease_backend,
)
from repro.campaign.objectstore import (
    CircuitBreaker,
    HttpDriver,
    ObjectStoreService,
)
from repro.campaign.retry import RetryPolicy, call_with_timeout
from repro.campaign.service import CampaignService
from repro.campaign.spec import CampaignPoint, CampaignSpec
from repro.campaign.storage import (
    MemoryDriver,
    PosixDriver,
    parse_driver_spec,
)
from repro.campaign.store import CampaignStore
from repro.errors import (
    CampaignIntegrityError,
    ConfigurationError,
    PointTimeoutError,
    TransientStorageError,
)


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
        readout_dtype=None,
        seed=1234,
    )
    kwargs.update(overrides)
    return CampaignPoint(**kwargs)


def spec_kwargs(**overrides):
    kwargs = dict(
        name="tiny",
        deployment={"kind": "paper", "n_devices": 4, "seed": 1},
        config={"n_association_shifts": 0},
        device_counts=(1, 2),
        point_seeds=(11, 12),
        n_rounds=1,
        engines=("analytic",),
        noise_modes=("payload",),
        fading=(False,),
    )
    kwargs.update(overrides)
    return kwargs


CONSTRUCTION_REJECTIONS = [
    # fault rules
    pytest.param(lambda: FaultRule(kind="error", op="chmod"),
                 "fault op must be one of", id="rule-unknown-op"),
    pytest.param(lambda: FaultRule(kind="error", op=3),
                 "fault op must be one of", id="rule-non-string-op"),
    pytest.param(lambda: FaultRule(kind="crash", op="execute", match=[1]),
                 "match must be an object", id="rule-match-not-object"),
    pytest.param(lambda: FaultRule(kind="error", op="get",
                                   match={"n_devices": 4}),
                 "only op 'execute'", id="rule-match-on-storage-op"),
    pytest.param(lambda: FaultRule(kind="error", op="get", key_prefix=7),
                 "key_prefix must be a string", id="rule-prefix-not-string"),
    pytest.param(lambda: FaultRule(kind="torn", op="put_atomic", silent=1),
                 "silent must be true or false", id="rule-silent-not-bool"),
    pytest.param(lambda: FaultRule(kind="http_error", op="get", status=600),
                 "4xx/5xx", id="rule-status-above-599"),
    pytest.param(lambda: FaultRule(kind="http_error", op="get", status=200),
                 "status must be an integer >= 400",
                 id="rule-status-success-code"),
    # fault plans
    pytest.param(lambda: FaultPlan.from_dict([{"kind": "crash"}]),
                 "a fault plan must be an object", id="plan-not-object"),
    pytest.param(lambda: FaultPlan.from_dict({"rules": {"kind": "crash"}}),
                 "rules must be a list", id="plan-rules-not-list"),
    pytest.param(lambda: FaultPlan.from_dict(
                     {"rules": [{"stage": "execute", "kind": "crash",
                                 "match": "n_devices=4"}]}),
                 "match must be an object", id="plan-v1-match-not-object"),
    # service and driver URLs
    pytest.param(lambda: parse_service_url("http://"), "has no host",
                 id="service-url-no-host"),
    pytest.param(lambda: parse_service_url("http://127.0.0.1:8124/campaign"),
                 "takes no path", id="service-url-with-path"),
    pytest.param(lambda: HttpDriver("ftp://127.0.0.1:1/bucket"),
                 "http\\(s\\)://host", id="http_driver-wrong-scheme"),
    pytest.param(lambda: HttpDriver("http://127.0.0.1:1"),
                 "one bucket path segment", id="http_driver-no-bucket"),
    pytest.param(lambda: HttpDriver("http://127.0.0.1:1/a/b"),
                 "one bucket path segment", id="http_driver-nested-bucket"),
    pytest.param(lambda: HttpDriver("http:///bucket"),
                 "one bucket path segment", id="http_driver-no-host"),
    pytest.param(lambda: HttpDriver("http://127.0.0.1:1/b", timeout_s=0.0),
                 "timeout_s must be positive", id="http_driver-zero-timeout"),
    pytest.param(lambda: parse_driver_spec("http:///bucket"),
                 "needs host", id="driver_spec-http-no-host"),
    pytest.param(lambda: parse_driver_spec("https://127.0.0.1:1/"),
                 "one bucket path segment", id="driver_spec-https-no-bucket"),
    pytest.param(lambda: parse_driver_spec("http://127.0.0.1:1/a/b"),
                 "one bucket path segment", id="driver_spec-nested-bucket"),
    # breaker and object-store knobs
    pytest.param(lambda: CircuitBreaker(failure_threshold=0),
                 "failure_threshold", id="breaker-zero-threshold"),
    pytest.param(lambda: CircuitBreaker(reset_after_s=-1.0),
                 "reset_after_s", id="breaker-negative-reset"),
    pytest.param(lambda: ObjectStoreService(bucket="a/b"),
                 "one path segment", id="objectstore-nested-bucket"),
    pytest.param(lambda: ObjectStoreService(bucket=""),
                 "one path segment", id="objectstore-empty-bucket"),
    # campaign specs
    pytest.param(lambda: CampaignSpec(**spec_kwargs(device_counts=(),
                                                    point_seeds=())),
                 "at least one count", id="spec-no-counts"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(engines=())),
                 "every grid axis", id="spec-no-engines"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(noise_modes=())),
                 "every grid axis", id="spec-no-noise-modes"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(fading=())),
                 "every grid axis", id="spec-no-fading-axis"),
    pytest.param(lambda: CampaignSpec.from_dict(
                     {**spec_kwargs(), "schema": "repro-campaign-spec-v0"}),
                 "unsupported campaign spec schema", id="spec-old-schema"),
]


@pytest.mark.parametrize("build, words", CONSTRUCTION_REJECTIONS)
def test_refused_at_construction(build, words):
    with pytest.raises(ConfigurationError, match=words):
        build()


def test_store_needs_a_root_or_a_driver():
    with pytest.raises(ValueError, match="root directory or a driver"):
        CampaignStore()


class TestObjectStoreServiceLifecycle:
    def test_url_before_start_is_refused(self):
        with pytest.raises(RuntimeError, match="not started"):
            ObjectStoreService().url

    def test_second_start_is_refused(self):
        service = ObjectStoreService().start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                service.start()
        finally:
            service.stop()

    def test_http_driver_reports_its_spec(self):
        driver = HttpDriver("http://127.0.0.1:1/campaign/")
        assert driver.url == "http://127.0.0.1:1/campaign"
        assert parse_driver_spec(driver.url)["bucket"] == "campaign"

    def test_client_url_drops_the_trailing_slash(self):
        client = CampaignServiceClient("http://127.0.0.1:1/")
        assert client.url == "http://127.0.0.1:1"


class TestPosixDriverOsErrors:
    """A key whose parent is a regular file cannot exist; every
    operation on it fails as a retryable storage error."""

    @pytest.fixture
    def driver(self, tmp_path):
        driver = PosixDriver(tmp_path)
        driver.put_atomic("a", b"file")
        return driver

    @pytest.mark.parametrize(
        "op, args",
        [
            ("get", ("a/b",)),
            ("put_atomic", ("a/b", b"x")),
            ("replace", ("a/b", b"x")),
            ("delete", ("a/b",)),
            ("stat", ("a/b",)),
            ("rename", ("a", "a/c")),
        ],
    )
    def test_maps_to_transient_error(self, driver, op, args):
        with pytest.raises(TransientStorageError, match=op):
            getattr(driver, op)(*args)
        assert driver.get("a") == b"file"

    def test_reading_a_directory_is_a_transient_error(self, driver):
        driver.put_atomic("dir/leaf", b"x")
        with pytest.raises(TransientStorageError, match="get"):
            driver.get("dir")


class TestChunkQuarantine:
    """Each way a stored chunk can rot is quarantined under its reason."""

    def _saved(self, tmp_path, arrays=None):
        store = CampaignStore(tmp_path)
        point = make_point()
        store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"},
                   arrays=arrays)
        return store, point, point.content_hash()

    def _rewrite(self, tmp_path, content_hash, edit):
        chunk = tmp_path / "points" / f"{content_hash}.json"
        payload = json.loads(chunk.read_text())
        chunk.write_text(json.dumps(edit(payload)))

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda payload: [payload], "not-an-object"),
            (lambda payload: {**payload, "schema": "other"},
             "schema-mismatch:'other'"),
            (lambda payload: {**payload, "point": {"seed": 1}},
             "invalid-point"),
            (lambda payload: {k: v for k, v in payload.items()
                              if k != "point"}, "invalid-point"),
        ],
        ids=["list", "schema", "point-missing-fields", "point-absent"],
    )
    def test_rotten_chunk_is_quarantined(self, tmp_path, edit, reason):
        store, point, content_hash = self._saved(tmp_path)
        self._rewrite(tmp_path, content_hash, edit)
        with pytest.raises(CampaignIntegrityError, match="quarantine"):
            store.verify_chunk(content_hash)
        assert store.quarantined() == {content_hash: reason}
        assert not store.has(point)

    def test_missing_array_payload_is_quarantined(self, tmp_path):
        store, _, content_hash = self._saved(
            tmp_path, arrays={"trace": np.arange(3.0)}
        )
        (tmp_path / "points" / f"{content_hash}.npz").unlink()
        with pytest.raises(CampaignIntegrityError):
            store.verify_chunk(content_hash)
        assert store.quarantined() == {content_hash: "torn-array-payload"}

    def test_truncated_array_payload_is_quarantined(self, tmp_path):
        store, _, content_hash = self._saved(
            tmp_path, arrays={"trace": np.arange(3.0)}
        )
        encoded = io.BytesIO()
        np.save(encoded, np.arange(3.0))
        member = encoded.getvalue()[:-8]
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("trace.npy", member)
        (tmp_path / "points" / f"{content_hash}.npz").write_bytes(
            buffer.getvalue()
        )
        store.verify_chunk(content_hash)  # a zip: passes the cheap check
        with pytest.raises(CampaignIntegrityError, match="unreadable"):
            store.load_hash(content_hash)
        assert store.quarantined() == {
            content_hash: "unreadable-array-payload"
        }

    def test_intact_array_payload_loads(self, tmp_path):
        store, _, content_hash = self._saved(
            tmp_path, arrays={"trace": np.arange(3.0)}
        )
        payload = store.load_hash(content_hash)
        assert np.array_equal(payload["arrays"]["trace"], np.arange(3.0))

    def test_unreadable_reason_stamp_reads_unknown(self, tmp_path):
        store, _, content_hash = self._saved(tmp_path)
        store.quarantine_chunk(content_hash, "manual")
        (tmp_path / "quarantine" / f"{content_hash}.reason.json").write_text(
            "{ torn"
        )
        assert store.quarantined() == {content_hash: "unknown"}

    def test_quarantining_a_missing_chunk_only_stamps(self, tmp_path):
        store = CampaignStore(tmp_path)
        moved = store.quarantine_chunk("f" * 64, "operator")
        assert moved == f"quarantine/{'f' * 64}.json"
        assert store.quarantined() == {"f" * 64: "operator"}


class TestLeasePayloads:
    @pytest.mark.parametrize(
        "raw",
        [b"\xff\xfe", b"[1, 2]", b'{"schema": "other", "deadline": 1e12}',
         b"", b"{ torn"],
        ids=["not-utf8", "not-object", "foreign-schema", "empty", "torn"],
    )
    def test_unusable_payload_reads_as_vacant(self, raw):
        assert parse_lease(raw) is None

    @pytest.mark.parametrize(
        "payload, expected",
        [({}, 0.0), ({"deadline": "soon"}, 0.0), ({"deadline": True}, 0.0),
         ({"deadline": 12}, 12.0)],
        ids=["missing", "string", "bool", "int"],
    )
    def test_deadline_reads_mangled_values_as_expired(self, payload,
                                                      expected):
        assert _deadline(payload) == expected

    def test_scan_skips_foreign_keys(self):
        driver = MemoryDriver()
        lease = {"schema": LEASE_SCHEMA, "content_hash": "h1",
                 "owner": "a", "deadline": 1.0}
        driver.put_atomic("h1.lease", json.dumps(lease).encode())
        driver.put_atomic("notes.txt", json.dumps(lease).encode())
        assert scan_lease_backend(driver) == [lease]

    def test_scan_of_an_unlistable_backend_is_empty(self):
        class Unlistable(MemoryDriver):
            def list(self, prefix=""):
                raise TransientStorageError("listing down")

        assert scan_lease_backend(Unlistable()) == []

    def test_scan_skips_unreadable_leases(self):
        class Flaky(MemoryDriver):
            def get(self, key):
                if key == "h2.lease":
                    raise TransientStorageError("read down")
                return super().get(key)

        driver = Flaky()
        for name in ("h1", "h2"):
            payload = {"schema": LEASE_SCHEMA, "content_hash": name,
                       "owner": "a", "deadline": 1.0}
            driver.put_atomic(f"{name}.lease", json.dumps(payload).encode())
        assert [lease["content_hash"]
                for lease in scan_lease_backend(driver)] == ["h1"]


class TestPointMatching:
    def test_hash_prefix_selects_one_point(self):
        point = make_point()
        prefix = point.content_hash()[:10]
        assert point.matches(hash_prefix=prefix)
        assert not make_point(seed=1).matches(hash_prefix=prefix)

    def test_any_mismatching_field_rejects(self):
        point = make_point()
        assert point.matches(n_devices=8, engine="analytic")
        assert not point.matches(n_devices=8, engine="fft")


class TestCallWithTimeout:
    def test_error_in_the_bounded_call_reaches_the_caller(self):
        def fail():
            raise KeyError("inside")

        with pytest.raises(KeyError, match="inside"):
            call_with_timeout(fail, 5.0, PointTimeoutError, "point")

    def test_bounded_call_returns_its_value(self):
        assert call_with_timeout(lambda: 42, 5.0, PointTimeoutError,
                                 "point") == 42


class TestSubmitCli:
    ARGS = ("--spec", "fig17", "--counts", "1,2", "--rounds", "1",
            "--engine", "analytic", "--max-attempts", "2",
            "--timeout-s", "30")

    @pytest.fixture
    def service(self, request):
        def start(**kwargs):
            svc = CampaignService(**kwargs)
            svc.start()
            request.addfinalizer(svc.stop)
            return svc

        return start

    def test_summary_lists_every_point(self, service, capsys):
        svc = service()
        code = entrypoint(["submit", "--service", svc.url, *self.ARGS])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 points (0 cached, 2 computed)" in out
        assert "D=   1" in out and "D=   2" in out

    def test_json_emits_the_raw_stream(self, service, capsysbinary):
        svc = service()
        code = entrypoint(["submit", "--service", svc.url, "--json",
                           *self.ARGS])
        events = [json.loads(line) for line in
                  capsysbinary.readouterr().out.splitlines()]
        assert code == 0
        assert [e["event"] for e in events] == [
            "accepted", "point", "point", "done"
        ]

    def test_failed_point_is_listed_and_exits_1(self, service, capsys):
        crash = FaultPlan(rules=(FaultRule(kind="crash", op="execute",
                                           match={"n_devices": 2},
                                           calls=(1, 2, 3)),))
        svc = service(fault_plan=crash,
                      retry=RetryPolicy(max_attempts=1))
        code = entrypoint(["submit", "--service", svc.url, *self.ARGS])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 failed" in out
        assert "[FAIL]" in out

    def test_dead_endpoint_exits_1(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = entrypoint(["submit", "--service", f"http://127.0.0.1:{port}",
                           "--spec", "fig17", "--counts", "1",
                           "--max-attempts", "1"])
        assert code == 1
        assert "submit FAILED" in capsys.readouterr().err


def test_status_without_a_store_is_refused(capsys):
    code = entrypoint(["status"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: need --store")
