"""Golden pins for the campaign stack's fault-tolerance surface.

The values below were recorded once and must never drift: retry
schedules are part of the reproducibility contract (a resumed or
re-hosted campaign backs off exactly as before), and the nested
``stats()`` blocks are what ``python -m repro.campaign status --json``
prints to fleet monitors. A refactor of the retry, wrapper-driver or
HTTP layers has to keep every assertion here unchanged.
"""

import dataclasses
import inspect
import json
import time

import pytest

import chaos
import repro.campaign.retry as retry_module
from repro.campaign.cli import main
from repro.campaign.client import CampaignServiceClient
from repro.campaign.objectstore import (
    CircuitBreaker,
    CircuitBreakerDriver,
    HttpDriver,
    ObjectStoreService,
)
from repro.campaign.presets import fig17_campaign, noise_grid_campaign
from repro.campaign.runner import CampaignRunner, RetryPolicy
from repro.campaign.service import CampaignService
from repro.campaign.spec import CampaignPoint
from repro.campaign.storage import (
    MemoryDriver,
    PosixDriver,
    RetryingDriver,
    build_driver,
)
from repro.campaign.store import CampaignStore

#: RetryPolicy().backoff_s("deadbeef", attempt) for attempts 1-4, by
#: BACKOFF_SEED (the runner's per-point key form, runner defaults).
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


class TestBackoffPins:
    @pytest.mark.parametrize("seed", sorted(RUNNER_BACKOFF))
    def test_runner_key_form(self, seed, monkeypatch):
        monkeypatch.setattr(retry_module, "BACKOFF_SEED", seed)
        policy = RetryPolicy()
        assert [
            policy.backoff_s("deadbeef", attempt) for attempt in (1, 2, 3, 4)
        ] == RUNNER_BACKOFF[seed]

    @pytest.mark.parametrize("seed", sorted(STORAGE_BACKOFF))
    def test_storage_key_form(self, seed, monkeypatch):
        monkeypatch.setattr(retry_module, "BACKOFF_SEED", seed)
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=1.0)
        assert [
            policy.backoff_s("get:points/a.json", attempt)
            for attempt in (1, 2, 3, 4)
        ] == STORAGE_BACKOFF[seed]

    def test_retrying_driver_default_schedule(self, monkeypatch):
        # The default RetryingDriver sleeps exactly the storage-form
        # schedule for seed 0, then escalates after the 4th attempt.
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        plan = chaos.plan(chaos.Rule("error", op="get", p=1.0))
        inner = MemoryDriver()
        inner.put_atomic("points/a.json", b"x")
        retrying = RetryingDriver(chaos.FaultyDriver(inner, plan))
        with pytest.raises(Exception) as raised:
            retrying.get("points/a.json")
        assert type(raised.value).__name__ == "PersistentStorageError"
        assert slept == STORAGE_BACKOFF[0][:3]
        assert retrying.n_retries == 3


class TestStatsPins:
    def test_retrying_faulty_posix(self, tmp_path):
        plan = chaos.plan(chaos.Rule("error", op="get", calls=(1,)))
        stack = RetryingDriver(
            chaos.FaultyDriver(PosixDriver(tmp_path), plan)
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


#: Content hashes of preset points (seed 0, one round). Each equals the
#: SHA-256 of the ``repro-campaign-point-v2`` schema over the point the
#: v1 schema hashed, less its ``readout_dtype`` field: the v2 bump moved
#: no other content.
POINT_HASHES = {
    ("fig17", 1): "e294daa9e5be285f2eaba8db963169543f6b35b34077c364d2e4ac45590ab2c7",
    ("fig17", 16): "f26d88dc6afc1f018be6fc3d648ad02bc6bb893466b681b9401654349bf6ac0b",
    ("noise-grid", 0): "4cbdd0c7164f5ef46c140d6f5388a2ef071f41d5a5be946e44a6e08af78d7fbd",
    ("noise-grid", 1): "5ea55a04e6da9c86d0e66bc77f46c5ce0d1fe1967cf7c41c361b75d69b0471a5",
    ("noise-grid", 2): "fceb8db0e7589ac1651bae1ecbd257447ada0d9036f49e14a036d82ee50b1403",
    ("noise-grid", 3): "d286a107f35fe84bac55ce3b654e23aede7a110abbac6bd8108cc665e435b68d",
}


@pytest.mark.parametrize("preset, index", sorted(POINT_HASHES))
def test_preset_point_hashes_are_pinned(preset, index):
    if preset == "fig17":
        spec = fig17_campaign(rng=0, device_counts=(1, 16), n_rounds=1)
        point = {p.n_devices: p for p in spec.points()}[index]
    else:
        spec = noise_grid_campaign(rng=0, device_counts=(4,), n_rounds=1)
        point = list(spec.points())[index]
    assert point.content_hash() == POINT_HASHES[(preset, index)]


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
                "bytes_read": 569,
                "bytes_written": 425,
                "driver": "posix",
                "n_errors": 1,
                "ops": {"get": 2, "list": 7, "put_atomic": 1, "stat": 1},
            },
            "n_retries": 0,
        }


# ---------------------------------------------------------------------- #
# fault-plan firing sequences (tests/chaos.py)
# ---------------------------------------------------------------------- #

#: The plans the CI chaos legs ran when they were shell jobs (now
#: ``tests/test_campaign_chaos.py``).
CI_EXECUTE_PLAN = chaos.plan(
    chaos.Rule("crash", op="execute", match={"n_devices": 1}),
    chaos.Rule("hang", op="execute", match={"n_devices": 4}),
)
CI_STORAGE_PLAN = chaos.plan(
    chaos.Rule("torn", op="put_atomic", key_prefix="points/", calls=(1, 3)),
    chaos.Rule("error", op="get", p=0.1, max_fires=4),
    chaos.Rule("hang", op="get", calls=(2,), hang_s=0.2),
)
CI_NETWORK_PLAN = chaos.plan(
    chaos.Rule("refuse", op="get", calls=(3,)),
    chaos.Rule("http_error", op="get", calls=(6,), retry_after_s=0.02),
    chaos.Rule("disconnect", op="put_atomic", key_prefix="points/", calls=(1, 3)),
    chaos.Rule("stale_read", op="exists", key_prefix="points/"),
    seed=7,
)
CI_SERVICE_PLAN = chaos.plan(
    chaos.Rule("refuse", op="submit", calls=(2,)),
    chaos.Rule("http_error", op="submit", calls=(4,), retry_after_s=0.02),
    chaos.Rule("delay", op="submit", calls=(3,)),
    seed=7,
)
#: The two plans of the former ``faults.py`` doctest.
DOCTEST_EXECUTE_PLAN = chaos.plan(
    chaos.Rule("crash", op="execute", match={"n_devices": 8})
)
DOCTEST_STORAGE_PLAN = chaos.plan(
    chaos.Rule("torn", op="put_atomic", key_prefix="points/")
)
#: One plan carrying both the disk and the wire rules, for the
#: kind-filtered consumer pair (indices 0-2 disk, 3-6 wire).
SHARED_PLAN = chaos.Plan(CI_STORAGE_PLAN.rules + CI_NETWORK_PLAN.rules, seed=7)

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
#: that fired, in script order, and the count. Recorded when the
#: injectors still lived in ``src/``; the harness reproduces them.
FIRING_PINS = {
    "ci-execute": ([(0, 0), (6, 1)], 2),
    "doctest-execute": ([(9, 0)], 1),
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
        seed=1234,
    )


def _fired(selectors, plan, script):
    """Consult each selector on every call of ``script``; a call fires
    where one of them picks a rule."""
    fired = []
    for call, (op, key) in enumerate(script):
        for selector in selectors:
            rule = selector.consult(op, key)
            if rule is not None:
                fired.append((call, plan.rules.index(rule)))
    return fired, sum(selector.n_injected for selector in selectors)


def _driver_fired(plan):
    return _fired([chaos.FaultyDriver(MemoryDriver(), plan).selector], plan, STORAGE_SCRIPT)


def _server_fired(plan, script):
    if script is SERVICE_SCRIPT:
        return _fired([chaos.ChaosService(plan).selector], plan, script)
    service = chaos.ChaosObjectStore(plan)
    return _fired([service.selector, service.driver.selector], plan, script)


def _execute_fired(plan, tmp_path):
    """The (call, rule) pairs the execute injector picks per attempt."""
    injector = chaos.ExecuteChaos(plan, tmp_path)
    fired = []
    for call, (n_devices, attempt) in enumerate(EXECUTE_SCRIPT):
        rule = injector.rule_for(_point(n_devices), attempt)
        if rule is not None:
            fired.append((call, plan.rules.index(rule)))
    return fired, len(fired)


class TestFiringSequencePins:
    def test_ci_execute_plan(self, tmp_path):
        assert _execute_fired(CI_EXECUTE_PLAN, tmp_path) == FIRING_PINS[
            "ci-execute"
        ]

    def test_doctest_execute_plan(self, tmp_path):
        assert _execute_fired(
            DOCTEST_EXECUTE_PLAN, tmp_path
        ) == FIRING_PINS["doctest-execute"]

    def test_ci_storage_plan_with_seeded_capped_rule(self):
        fired, n_injected = _driver_fired(CI_STORAGE_PLAN)
        assert (fired, n_injected) == FIRING_PINS["ci-storage"]
        # The seeded p rule reaches its max_fires cap inside the script.
        assert [index for _, index in fired].count(1) == 4

    def test_doctest_storage_plan(self):
        assert _driver_fired(DOCTEST_STORAGE_PLAN) == FIRING_PINS[
            "doctest-storage"
        ]

    def test_ci_network_plan(self):
        assert _server_fired(CI_NETWORK_PLAN, STORAGE_SCRIPT) == FIRING_PINS[
            "ci-network"
        ]

    def test_ci_service_plan(self):
        assert _server_fired(CI_SERVICE_PLAN, SERVICE_SCRIPT) == FIRING_PINS[
            "ci-service"
        ]

    def test_shared_plan_kind_filtered_pair(self):
        # One plan, two consumers over the same calls: each fires only
        # its own kinds, and neither advances the other's counters.
        driver = _driver_fired(SHARED_PLAN)
        server = _server_fired(SHARED_PLAN, STORAGE_SCRIPT)
        assert {"driver": driver, "server": server} == FIRING_PINS["shared"]


#: Every value a caller can set on the campaign stack's constructors and
#: on a RetryPolicy. A knob comes back only by editing this pin; each
#: value that no surface sets is a module constant instead (for example
#: ``runner.WAIT_POLL_S``, ``service.MAX_BACKLOG``,
#: ``objectstore.FAILURE_THRESHOLD``, ``retry.JITTER``).
SETTABLE = {
    CampaignRunner: [
        "store", "workers", "retry", "point_timeout_s", "use_leases",
        "lease_ttl_s", "owner", "allow_partial", "on_result",
    ],
    CampaignService: [
        "store", "host", "port", "workers", "retry", "point_timeout_s",
        "use_leases", "allow_partial",
    ],
    CampaignServiceClient: ["url", "retry", "timeout_s"],
    CircuitBreaker: ["name"],
    CircuitBreakerDriver: ["inner"],
    HttpDriver: ["url"],
    PosixDriver: ["root"],
    build_driver: ["spec", "root"],
}


@pytest.mark.parametrize(
    "target", list(SETTABLE), ids=lambda target: target.__name__
)
def test_settable_parameters_are_pinned(target):
    assert list(inspect.signature(target).parameters) == SETTABLE[target]


def test_retry_policy_fields_are_pinned():
    assert [field.name for field in dataclasses.fields(RetryPolicy)] == [
        "max_attempts",
        "base_delay_s",
        "max_delay_s",
    ]
