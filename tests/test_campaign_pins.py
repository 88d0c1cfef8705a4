"""Golden pins for the campaign stack's fault-tolerance surface.

The values below were recorded once and must never drift: retry
schedules are part of the reproducibility contract (a resumed or
re-hosted campaign backs off exactly as before), and the nested
``stats()`` blocks are what ``python -m repro.campaign status --json``
prints to fleet monitors. A refactor of the retry, wrapper-driver or
HTTP layers has to keep every assertion here unchanged.
"""

import json
import time

import pytest

from repro.campaign.cli import main
from repro.campaign.faults import FaultPlan
from repro.campaign.objectstore import (
    CircuitBreakerDriver,
    HttpDriver,
    ObjectStoreService,
)
from repro.campaign.runner import RetryPolicy
from repro.campaign.service import CampaignService
from repro.campaign.spec import CampaignPoint
from repro.campaign.storage import (
    FaultyDriver,
    MemoryDriver,
    PosixDriver,
    RetryingDriver,
)
from repro.campaign.store import CampaignStore
from repro.errors import FaultInjectedError

#: RetryPolicy().backoff_s("deadbeef", attempt) for attempts 1-4, by
#: seed (the runner's per-point key form, runner defaults).
RUNNER_BACKOFF = {
    0: [
        0.12461102754466434,
        0.21477937980888445,
        0.46120875581237614,
        0.8821699628523043,
    ],
    7: [
        0.12312807998327238,
        0.24489322682667383,
        0.4303144236631621,
        0.980170906841697,
    ],
}

#: Backoff for the storage key form ``"<op>:<key>"`` = ("get",
#: "points/a.json") under the storage defaults (4 attempts, 0.02 s
#: base, 1.0 s cap), attempts 1-4, by seed.
STORAGE_BACKOFF = {
    0: [
        0.020091146011768132,
        0.046855927525638066,
        0.08345142026559868,
        0.16635376865735108,
    ],
    7: [
        0.02327292664874791,
        0.047856725386300404,
        0.08261284167117487,
        0.19693565358054144,
    ],
}


def _storage_policy(seed):
    return RetryPolicy(
        max_attempts=4, base_delay_s=0.02, max_delay_s=1.0, seed=seed
    )


class TestBackoffPins:
    @pytest.mark.parametrize("seed", sorted(RUNNER_BACKOFF))
    def test_runner_key_form(self, seed):
        policy = RetryPolicy(seed=seed)
        assert [
            policy.backoff_s("deadbeef", attempt) for attempt in (1, 2, 3, 4)
        ] == RUNNER_BACKOFF[seed]

    @pytest.mark.parametrize("seed", sorted(STORAGE_BACKOFF))
    def test_storage_key_form(self, seed):
        policy = _storage_policy(seed)
        assert [
            policy.backoff_s("get:points/a.json", attempt)
            for attempt in (1, 2, 3, 4)
        ] == STORAGE_BACKOFF[seed]

    def test_retrying_driver_default_schedule(self, monkeypatch):
        # The default RetryingDriver sleeps exactly the storage-form
        # schedule for seed 0, then escalates after the 4th attempt.
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        plan = FaultPlan.from_dict(
            {"rules": [{"kind": "error", "op": "get", "p": 1.0}]}
        )
        inner = MemoryDriver()
        inner.put_atomic("points/a.json", b"x")
        retrying = RetryingDriver(FaultyDriver(inner, plan))
        with pytest.raises(Exception) as raised:
            retrying.get("points/a.json")
        assert type(raised.value).__name__ == "PersistentStorageError"
        assert slept == STORAGE_BACKOFF[0][:3]
        assert retrying.n_retries == 3


class TestStatsPins:
    def test_retrying_faulty_posix(self, tmp_path):
        plan = FaultPlan.from_dict(
            {"rules": [{"kind": "error", "op": "get", "calls": [1]}]}
        )
        stack = RetryingDriver(
            FaultyDriver(PosixDriver(tmp_path, fsync=False), plan)
        )
        stack.put_atomic("points/a.json", b"abc")
        assert stack.get("points/a.json") == b"abc"
        assert stack.exists("points/a.json")
        assert stack.stats() == {
            "driver": "retrying(faulty(posix))",
            "n_retries": 1,
            "inner": {
                "driver": "faulty(posix)",
                "n_injected_faults": 1,
                "inner": {
                    "driver": "posix",
                    "ops": {"exists": 1, "get": 1, "put_atomic": 1},
                    "bytes_read": 3,
                    "bytes_written": 3,
                    "n_errors": 0,
                },
            },
        }

    def test_retrying_breaker_http(self):
        with ObjectStoreService() as service:
            http = HttpDriver(service.url)
            stack = RetryingDriver(CircuitBreakerDriver(http))
            stack.put_atomic("points/a.json", b"abc")
            assert stack.get("points/a.json") == b"abc"
            assert not stack.exists("points/b.json")
            stats = stack.stats()
            where = service.url.split("//", 1)[1]  # host:port/bucket
        assert stats == {
            "driver": f"retrying(breaker(http({where})))",
            "n_retries": 0,
            "inner": {
                "driver": f"breaker(http({where}))",
                "state": "closed",
                "n_trips": 0,
                "n_short_circuited": 0,
                "inner": {
                    "driver": f"http({where})",
                    "ops": {"exists": 1, "get": 1, "put_atomic": 1},
                    "bytes_read": 3,
                    "bytes_written": 3,
                    "n_errors": 0,
                },
            },
        }
        assert list(stats) == ["driver", "n_retries", "inner"]
        assert list(stats["inner"]) == [
            "driver",
            "state",
            "n_trips",
            "n_short_circuited",
            "inner",
        ]


class TestStatusJsonPin:
    def test_driver_block(self, tmp_path, capsys):
        point = CampaignPoint(
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
        root = tmp_path / "store"
        CampaignStore(root).save(
            point, {"phy_rate_bps": 1.0}, {"backend": "x"}
        )
        assert main(["status", "--store", str(root), "--json"]) == 0
        storage = json.loads(capsys.readouterr().out)["storage"]
        # The first status of a fresh store rebuilds the manifest: one
        # missing-manifest get, then the rebuild's reads and one write.
        assert storage == {
            "driver": "retrying(posix)",
            "inner": {
                "bytes_read": 596,
                "bytes_written": 425,
                "driver": "posix",
                "n_errors": 1,
                "ops": {"get": 2, "list": 7, "put_atomic": 1, "stat": 1},
            },
            "n_retries": 0,
        }


# ---------------------------------------------------------------------- #
# fault-plan firing sequences
# ---------------------------------------------------------------------- #

#: The valid plan literals of the CI fault jobs, as the jobs pass them.
CI_EXECUTE_PLAN = """{"schema": "repro-fault-plan-v1", "rules": [
  {"stage": "execute", "kind": "crash",
   "match": {"n_devices": 1}, "attempts": [1]},
  {"stage": "execute", "kind": "hang",
   "match": {"n_devices": 4}, "attempts": [1], "hang_s": 30.0}]}"""
CI_STORAGE_PLAN = """{"schema": "repro-storage-fault-plan-v1", "seed": 0, "rules": [
  {"kind": "torn", "op": "put_atomic",
   "key_prefix": "points/", "calls": [1, 3]},
  {"kind": "error", "op": "get", "p": 0.1, "max_fires": 4},
  {"kind": "hang", "op": "get", "calls": [2], "hang_s": 0.2}]}"""
CI_NETWORK_PLAN = """{"schema": "repro-storage-fault-plan-v1", "seed": 7, "rules": [
  {"kind": "refuse", "op": "get", "calls": [3]},
  {"kind": "http_error", "op": "get", "calls": [6],
   "status": 503, "retry_after_s": 0.02},
  {"kind": "disconnect", "op": "put_atomic",
   "key_prefix": "points/", "calls": [1, 3]},
  {"kind": "stale_read", "op": "exists",
   "key_prefix": "points/", "calls": [1]}]}"""
CI_SERVICE_PLAN = """{"schema": "repro-storage-fault-plan-v1", "seed": 7, "rules": [
  {"kind": "refuse", "op": "submit", "calls": [2]},
  {"kind": "http_error", "op": "submit", "calls": [4],
   "status": 503, "retry_after_s": 0.02},
  {"kind": "delay", "op": "submit", "calls": [3],
   "hang_s": 0.05}]}"""
#: The two plans of the ``faults.py`` doctests.
DOCTEST_EXECUTE_PLAN = (
    '{"schema": "repro-fault-plan-v1", "rules": ['
    '{"stage": "execute", "kind": "crash",'
    ' "match": {"n_devices": 8}, "attempts": [1]}]}'
)
DOCTEST_STORAGE_PLAN = (
    '{"schema": "repro-storage-fault-plan-v1", "rules": ['
    '{"op": "put_atomic", "key_prefix": "points/",'
    ' "kind": "torn", "calls": [1]}]}'
)
#: One plan carrying both the disk and the wire rules, for the
#: kind-filtered consumer pair (indices 0-2 disk, 3-6 wire).
SHARED_PLAN = json.dumps(
    {
        "schema": "repro-storage-fault-plan-v1",
        "seed": 7,
        "rules": json.loads(CI_STORAGE_PLAN)["rules"]
        + json.loads(CI_NETWORK_PLAN)["rules"],
    }
)

_STORAGE_OPS = (
    "get",
    "put_atomic",
    "exists",
    "get",
    "stat",
    "put_exclusive",
    "replace",
    "list",
    "delete",
    "rename",
)
#: 200 driver calls over point and lease keys (40 of them ``get``s).
STORAGE_SCRIPT = [
    (
        _STORAGE_OPS[i % len(_STORAGE_OPS)],
        f"points/p{i % 7}.json" if i % 3 else f"leases/l{i % 4}.lease",
    )
    for i in range(200)
]
_SERVICE_OPS = ("submit", "status", "submit", "healthz", "list_campaigns")
SERVICE_SCRIPT = [
    (op, f"c{i % 3}" if op == "status" else "")
    for i in range(30)
    for op in (_SERVICE_OPS[i % len(_SERVICE_OPS)],)
]
#: (n_devices, attempt) per execute call; the key is the point's hash.
EXECUTE_SCRIPT = [(n, attempt) for n in (1, 2, 4, 8) for attempt in (1, 2, 3)]

#: Per plan and consumer: the (0-based call, rule index) of every call
#: that fired, in script order. Recorded before the two rule stacks
#: were merged; the merged selector must reproduce them exactly.
FIRING_PINS = {
    "ci-execute": ([(0, 0), (6, 1)], 2, [30.0]),
    "doctest-execute": ([(9, 0)], 1, []),
    "ci-storage": (
        [(1, 0), (3, 2), (31, 0), (33, 1), (83, 1), (90, 1), (153, 1)],
        7,
    ),
    "doctest-storage": ([(1, 0)], 1),
    "ci-network": ([(1, 2), (2, 3), (10, 0), (23, 1), (31, 2)], 5),
    "ci-service": ([(2, 0), (5, 2), (7, 1)], 3),
    "shared": {
        "driver": (
            [(1, 0), (3, 2), (31, 0), (40, 1), (43, 1), (50, 1), (143, 1)],
            7,
        ),
        "server": ([(1, 5), (2, 6), (10, 3), (23, 4), (31, 5)], 5),
    },
}


def _point(n_devices):
    return CampaignPoint(
        deployment={"kind": "paper", "n_devices": 16, "seed": 7},
        config={"n_association_shifts": 0},
        n_devices=n_devices,
        n_rounds=1,
        query_bits=32,
        engine="analytic",
        noise_mode="payload",
        fading=False,
        readout_dtype=None,
        seed=1234,
    )


def _rule_index(plan, rule):
    return next(i for i, known in enumerate(plan.rules) if known is rule)


def _consult_fired(selector, plan, script):
    fired = []
    for call, (op, key) in enumerate(script):
        rule = selector.consult(op, key)
        if rule is not None:
            fired.append((call, _rule_index(plan, rule)))
    return fired, selector.n_injected


def _driver(monkeypatch, plan_json):
    """A fault-injecting driver loaded from the storage plan variable,
    the way subprocess-launched runners receive a plan."""
    monkeypatch.setenv("REPRO_STORAGE_FAULT_PLAN", plan_json)
    return FaultyDriver(MemoryDriver())


def _driver_fired(monkeypatch, plan_json):
    selector = _driver(monkeypatch, plan_json)._selector
    return _consult_fired(selector, selector.plan, STORAGE_SCRIPT)


def _server_fired(monkeypatch, plan_json, script):
    plan = _driver(monkeypatch, plan_json)._selector.plan
    if script is SERVICE_SCRIPT:
        selector = CampaignService(service_fault_plan=plan).selector
    else:
        selector = ObjectStoreService(fault_plan=plan).selector
    return _consult_fired(selector, plan, script)


def _execute_fired(monkeypatch, plan_json):
    """Drive the runner's firing hook; a crash raises, a hang sleeps
    (recorded, not slept), and each plan's kinds are distinct."""
    plan = FaultPlan.from_json(plan_json)
    kinds = [rule.kind for rule in plan.rules]
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    fired = []
    for call, (n_devices, attempt) in enumerate(EXECUTE_SCRIPT):
        point = _point(n_devices)
        n_slept = len(slept)
        try:
            plan.fire_execute(point.to_dict(), point.content_hash(), attempt)
        except FaultInjectedError as error:
            fired.append((call, kinds.index(str(error).split()[1])))
            continue
        if len(slept) > n_slept:
            fired.append((call, kinds.index("hang")))
    return fired, len(fired), slept


class TestFiringSequencePins:
    def test_ci_execute_plan(self, monkeypatch):
        assert _execute_fired(monkeypatch, CI_EXECUTE_PLAN) == FIRING_PINS[
            "ci-execute"
        ]

    def test_doctest_execute_plan(self, monkeypatch):
        assert _execute_fired(
            monkeypatch, DOCTEST_EXECUTE_PLAN
        ) == FIRING_PINS["doctest-execute"]

    def test_ci_storage_plan_with_seeded_capped_rule(self, monkeypatch):
        fired, n_injected = _driver_fired(monkeypatch, CI_STORAGE_PLAN)
        assert (fired, n_injected) == FIRING_PINS["ci-storage"]
        # The seeded p rule reaches its max_fires cap inside the script.
        assert [index for _, index in fired].count(1) == 4

    def test_doctest_storage_plan(self, monkeypatch):
        assert _driver_fired(
            monkeypatch, DOCTEST_STORAGE_PLAN
        ) == FIRING_PINS["doctest-storage"]

    def test_ci_network_plan(self, monkeypatch):
        assert _server_fired(
            monkeypatch, CI_NETWORK_PLAN, STORAGE_SCRIPT
        ) == FIRING_PINS["ci-network"]

    def test_ci_service_plan(self, monkeypatch):
        assert _server_fired(
            monkeypatch, CI_SERVICE_PLAN, SERVICE_SCRIPT
        ) == FIRING_PINS["ci-service"]

    def test_shared_plan_kind_filtered_pair(self, monkeypatch):
        # One plan, two consumers over the same calls: each fires only
        # its own kinds, and neither advances the other's counters.
        driver = _driver_fired(monkeypatch, SHARED_PLAN)
        server = _server_fired(monkeypatch, SHARED_PLAN, STORAGE_SCRIPT)
        assert {"driver": driver, "server": server} == FIRING_PINS["shared"]
