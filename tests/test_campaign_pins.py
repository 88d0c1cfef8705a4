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
from repro.campaign.faults import StorageFaultPlan
from repro.campaign.objectstore import (
    CircuitBreakerDriver,
    HttpDriver,
    ObjectStoreService,
)
from repro.campaign.runner import RetryPolicy
from repro.campaign.spec import CampaignPoint
from repro.campaign.storage import (
    FaultyDriver,
    MemoryDriver,
    PosixDriver,
    RetryingDriver,
)
from repro.campaign.store import CampaignStore

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
        plan = StorageFaultPlan.from_dict(
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
        plan = StorageFaultPlan.from_dict(
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
