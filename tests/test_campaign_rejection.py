"""Campaign-stack inputs refused up front, and damage mapped to the
right error.

* Fault rules, fault plans, service and driver URLs, lease TTLs,
  bucket names and campaign specs that cannot work are refused at
  construction with ``ConfigurationError`` — not halfway through a
  sharded run.
* A filesystem error under a posix driver surfaces as
  ``TransientStorageError`` (retryable), never as a bare ``OSError``
  or as a wrong answer.
* Every way a stored chunk can rot lands it in ``quarantine/`` under
  its own reason, a store written under an older schema included, and
  torn or foreign lease payloads read as vacant.
* ``python -m repro.campaign submit`` prints one line per point, the
  raw stream with ``--json``, and exits 1 when a point or the
  transport fails.
"""

import hashlib
import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.campaign.cli import entrypoint
from repro.campaign.client import CampaignServiceClient, parse_service_url
from repro.campaign.faults import FaultPlan, FaultRule
from repro.campaign.leases import (
    LEASE_SCHEMA,
    LeaseManager,
    _deadline,
    parse_lease,
    scan_lease_backend,
)
from repro.campaign.objectstore import HttpDriver, ObjectStoreService
from repro.campaign.retry import RetryPolicy, call_with_timeout
from repro.campaign.runner import CampaignRunner
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
    require_integer,
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


TTLS = [("nan", float("nan")), ("inf", float("inf")), ("zero", 0.0),
        ("negative", -1.0), ("past-timeout-max", 1e12)]

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
    pytest.param(lambda: parse_driver_spec("http:///bucket"),
                 "needs host", id="driver_spec-http-no-host"),
    pytest.param(lambda: parse_driver_spec("https://127.0.0.1:1/"),
                 "one bucket path segment", id="driver_spec-https-no-bucket"),
    pytest.param(lambda: parse_driver_spec("http://127.0.0.1:1/a/b"),
                 "one bucket path segment", id="driver_spec-nested-bucket"),
    # lease TTLs: a NaN or infinite deadline breaks the heartbeat
    *[
        pytest.param(lambda ttl=ttl: CampaignRunner(lease_ttl_s=ttl),
                     "lease_ttl_s must be a finite number of seconds > 0",
                     id=f"runner-lease-ttl-{name}")
        for name, ttl in TTLS
    ],
    *[
        pytest.param(lambda ttl=ttl: LeaseManager(MemoryDriver(), ttl_s=ttl),
                     "ttl_s must be a finite number of seconds > 0",
                     id=f"lease-manager-ttl-{name}")
        for name, ttl in TTLS
    ],
    # object-store knobs
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
    pytest.param(lambda: CampaignSpec.from_dict(
                     {**spec_kwargs(), "float32_min_devices": 256}),
                 "unknown campaign spec keys \\['float32_min_devices'\\]",
                 id="spec-unknown-key"),
    pytest.param(lambda: CampaignSpec.from_dict(
                     {**spec_kwargs(), "readout_dtype": None, "bogus": 1}),
                 "unknown campaign spec keys \\['bogus', 'readout_dtype'\\]",
                 id="spec-unknown-keys-sorted"),
    pytest.param(lambda: CampaignSpec.from_dict(["tiny"]),
                 "must be an object", id="spec-not-object"),
    pytest.param(lambda: CampaignSpec.from_dict(
                     spec_kwargs(device_counts=["one", 2])),
                 "device_counts must be an integer >= 1, got 'one'",
                 id="spec-count-not-int"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(device_counts=(2.5, 2))),
                 "device_counts must be an integer >= 1, got 2.5",
                 id="spec-fractional-count"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(device_counts=(True, 2))),
                 "device_counts must be an integer >= 1, got True",
                 id="spec-bool-count"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(device_counts=(0, 2))),
                 "device_counts must be an integer >= 1, got 0",
                 id="spec-zero-count"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(point_seeds=(1.9, 2))),
                 "point_seeds must be an integer >= 0, got 1.9",
                 id="spec-fractional-seed"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(point_seeds=(11, False))),
                 "point_seeds must be an integer >= 0, got False",
                 id="spec-bool-seed"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(point_seeds=(11, -1))),
                 "point_seeds must be an integer >= 0, got -1",
                 id="spec-negative-seed"),
    pytest.param(lambda: make_point(n_devices=1.5),
                 "n_devices must be an integer >= 1, got 1.5",
                 id="point-fractional-devices"),
    pytest.param(lambda: make_point(seed="11"),
                 "seed must be an integer >= 0, got '11'",
                 id="point-string-seed"),
    pytest.param(lambda: CampaignSpec.from_dict(
                     spec_kwargs(deployment={"kind": "paper"})),
                 "invalid campaign spec: KeyError", id="spec-deployment-size"),
    pytest.param(lambda: CampaignSpec.from_dict(
                     {k: v for k, v in spec_kwargs().items()
                      if k != "point_seeds"}),
                 "point_seeds", id="spec-missing-key"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(query_bits=-5)),
                 "query_bits must be an integer >= 0",
                 id="spec-negative-query-bits"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(query_bits="32")),
                 "query_bits must be an integer", id="spec-string-query-bits"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(query_bits=1.5)),
                 "query_bits must be an integer", id="spec-fractional-query"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(n_rounds=0)),
                 "n_rounds must be an integer >= 1", id="spec-zero-rounds"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(n_rounds="3")),
                 "n_rounds must be an integer >= 1", id="spec-string-rounds"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(n_rounds=2.5)),
                 "n_rounds must be an integer >= 1",
                 id="spec-fractional-rounds"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(n_rounds=True)),
                 "n_rounds must be an integer >= 1", id="spec-bool-rounds"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(config={"bogus": 1})),
                 "config keys \\['bogus'\\] are not NetScatterConfig",
                 id="spec-unknown-config-key"),
    pytest.param(lambda: CampaignSpec(**spec_kwargs(
                     config={"skip": 2, "zz": 1, "bogus": 1})),
                 "config keys \\['bogus', 'zz'\\]",
                 id="spec-unknown-config-keys-sorted"),
]


@pytest.mark.parametrize("build, words", CONSTRUCTION_REJECTIONS)
def test_refused_at_construction(build, words):
    with pytest.raises(ConfigurationError, match=words):
        build()


@pytest.mark.parametrize(
    "value", [True, 2.5, "3", None, float("nan"), float("inf"), -1]
)
def test_require_integer_refuses(value):
    with pytest.raises(ConfigurationError, match="n must be an integer >= 0"):
        require_integer("n", value, 0)


@pytest.mark.parametrize(
    "value", [3, 3.0, pytest.param(np.int64(3), id="numpy-3")]
)
def test_require_integer_accepts_whole_numbers(value):
    got = require_integer("n", value, 0)
    assert got == 3 and type(got) is int


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
        assert driver.spec == "http://127.0.0.1:1/campaign"
        assert parse_driver_spec(driver.spec)["bucket"] == "campaign"

    def test_client_url_drops_the_trailing_slash(self):
        client = CampaignServiceClient("http://127.0.0.1:1/")
        assert client.url == "http://127.0.0.1:1"

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan"), float("inf")])
    def test_client_refuses_a_bad_timeout(self, timeout_s):
        with pytest.raises(ConfigurationError, match="timeout_s must be a finite"):
            CampaignServiceClient("http://127.0.0.1:1", timeout_s=timeout_s)


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

    def test_exclusive_create_under_a_file_is_an_error_not_a_lost_claim(
        self, driver
    ):
        # A broken store must not read as "key taken by someone else".
        with pytest.raises(TransientStorageError, match="put_exclusive"):
            driver.put_exclusive("a/b", b"x")
        assert driver.get("a") == b"file"

    def test_reading_a_directory_is_a_transient_error(self, driver):
        driver.put_atomic("dir/leaf", b"x")
        with pytest.raises(TransientStorageError, match="get"):
            driver.get("dir")


class TestChunkQuarantine:
    """Each way a stored chunk can rot is quarantined under its reason."""

    def _saved(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        store.save(point, {"phy_rate_bps": 1.0}, {"backend": "x"})
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
            (lambda payload: {**payload, "point": {
                **payload["point"], "readout_dtype": None}},
             "invalid-point"),
        ],
        ids=["list", "schema", "point-missing-fields", "point-absent",
             "point-retired-field"],
    )
    def test_rotten_chunk_is_quarantined(self, tmp_path, edit, reason):
        store, point, content_hash = self._saved(tmp_path)
        self._rewrite(tmp_path, content_hash, edit)
        with pytest.raises(CampaignIntegrityError, match="quarantine"):
            store.verify_chunk(content_hash)
        assert store.quarantined() == {content_hash: reason}
        assert not store.has(point)

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

    def test_chunk_of_an_older_schema_is_refused_and_recomputed(
        self, tmp_path
    ):
        """A chunk as the v1 store wrote it: v1 store schema, a point
        with the retired ``readout_dtype`` field, keyed by its v1 hash."""
        spec = CampaignSpec(**spec_kwargs(device_counts=(1,),
                                          point_seeds=(11,)))
        old_point = {**next(spec.points()).to_dict(), "readout_dtype": None}
        old_hash = hashlib.sha256(json.dumps(
            {"schema": "repro-campaign-point-v1", "point": old_point},
            sort_keys=True, separators=(",", ":"),
        ).encode()).hexdigest()
        chunk = tmp_path / "points" / f"{old_hash}.json"

        def write_old_chunk():
            chunk.parent.mkdir(exist_ok=True)
            chunk.write_text(json.dumps({
                "schema": "repro-campaign-store-v1",
                "content_hash": old_hash,
                "point": old_point,
                "metrics": {"phy_rate_bps": 1.0},
                "provenance": {"backend": "analytic"},
            }))

        store = CampaignStore(tmp_path)
        write_old_chunk()
        assert store.status()["n_points"] == 0
        write_old_chunk()
        assert store.export_rows() == []
        assert store.quarantined() == {
            old_hash: "schema-mismatch:'repro-campaign-store-v1'"
        }
        assert (tmp_path / "quarantine" / f"{old_hash}.json").exists()
        assert CampaignRunner(store=store).run(spec).n_computed == 1


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
        driver.put_atomic("leases/h1.lease", json.dumps(lease).encode())
        driver.put_atomic("leases/notes.txt", json.dumps(lease).encode())
        driver.put_atomic("points/h2.lease", json.dumps(lease).encode())
        assert scan_lease_backend(driver) == [lease]

    def test_scan_of_an_unlistable_backend_is_empty(self):
        class Unlistable(MemoryDriver):
            def list(self, prefix=""):
                raise TransientStorageError("listing down")

        assert scan_lease_backend(Unlistable()) == []

    def test_scan_skips_unreadable_leases(self):
        class Flaky(MemoryDriver):
            def get(self, key):
                if key == "leases/h2.lease":
                    raise TransientStorageError("read down")
                return super().get(key)

        driver = Flaky()
        for name in ("h1", "h2"):
            payload = {"schema": LEASE_SCHEMA, "content_hash": name,
                       "owner": "a", "deadline": 1.0}
            driver.put_atomic(f"leases/{name}.lease",
                              json.dumps(payload).encode())
        assert [lease["content_hash"]
                for lease in scan_lease_backend(driver)] == ["h1"]


class TestExecuteRuleSelection:
    """Execute rules select points through ``FaultRule.selects``: the
    key is the content hash, ``match`` constrains point fields."""

    def test_hash_prefix_selects_one_point(self):
        point = make_point()
        prefix = point.content_hash()[:10]
        rule = FaultRule(kind="crash", op="execute", key_prefix=prefix)
        assert rule.selects("execute", point.content_hash(), point.to_dict())
        other = make_point(seed=1)
        assert not rule.selects("execute", other.content_hash(), other.to_dict())

    def test_any_mismatching_field_rejects(self):
        point = make_point()
        key, fields = point.content_hash(), point.to_dict()
        match = {"n_devices": 8, "engine": "analytic"}
        assert FaultRule(kind="crash", op="execute", match=match).selects(
            "execute", key, fields)
        assert not FaultRule(kind="crash", op="execute",
                             match={**match, "engine": "fft"}).selects(
            "execute", key, fields)


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

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_bad_timeout_is_refused_before_any_request(self, timeout, capsys):
        # Nothing listens on port 1: a retried request would fail slowly.
        code = entrypoint(["submit", "--service", "http://127.0.0.1:1",
                           "--spec", "fig17", "--counts", "1",
                           "--timeout-s", timeout])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --timeout-s must be a finite number")
        assert "FAILED" not in err

    def test_dead_endpoint_exits_1(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = entrypoint(["submit", "--service", f"http://127.0.0.1:{port}",
                           "--spec", "fig17", "--counts", "1",
                           "--max-attempts", "1"])
        assert code == 1
        assert "submit FAILED" in capsys.readouterr().err


class TestUnknownSpecKeys:
    """A spec with a key that is no spec field is refused by name."""

    SPEC = {**CampaignSpec(**spec_kwargs()).to_dict(),
            "float32_min_devices": 256}

    def test_cli_run_reports_the_key(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        code = entrypoint(["run", "--spec", str(path),
                           "--store", str(tmp_path / "store")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: unknown campaign spec keys")
        assert "float32_min_devices" in err

    def test_service_answers_400(self, request):
        svc = CampaignService()
        svc.start()
        request.addfinalizer(svc.stop)
        post = urllib.request.Request(
            f"{svc.url}/campaigns", data=json.dumps(self.SPEC).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as answer:
            urllib.request.urlopen(post, timeout=30)
        assert answer.value.code == 400
        error = json.loads(answer.value.read())["error"]
        assert error.startswith("ConfigurationError: unknown campaign spec")
        assert "float32_min_devices" in error


def test_status_without_a_store_is_refused(capsys):
    code = entrypoint(["status"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: need --store")
