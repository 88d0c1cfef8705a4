"""The campaign stack's chaos legs: each recovery path converges.

Every test here runs one small ``fig17`` campaign (1, 2 and 4 devices,
one round) under faults from ``tests/chaos.py`` and holds it to what a
clean run produces:

* **execute faults** — a crash and a hang (serially and on the process
  pool), and a killed pool worker: the runner's retry, the point
  timeout and pool → serial degradation converge;
* **storage faults** — torn chunk writes, seeded transient errors and a
  storage hang heal inside the driver stack, also under two concurrent
  runners;
* **network chaos** — refused connections, a 503 with ``Retry-After``,
  responses cut mid-body after a write that landed and a stale read,
  served by the object store, heal inside the client retry stack;
* **service chaos** — two concurrent clients of one service under
  refused, delayed and 503-answered submits see byte-identical point
  streams, and a warm re-submit computes nothing.

Each convergence is ``chaos.assert_converged``: the store exports the
clean posix run's rows (every metric and all provenance),
``failures() == []`` and ``quarantined() == {}``, and (from the
execution log) no point computed twice.
"""

import json
import multiprocessing
import threading
import time
import urllib.request

import pytest

import chaos
from chaos import Rule
from repro.campaign.client import CampaignServiceClient
from repro.campaign.presets import fig17_campaign
from repro.campaign.retry import RetryPolicy
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.storage import PosixDriver, RetryingDriver, build_driver
from repro.campaign.store import CampaignStore

#: The legs' campaign.
SPEC = fig17_campaign(rng=0, device_counts=(1, 2, 4), n_rounds=1, engine="analytic")

#: Longest a leg may take before it counts as wedged.
LIMIT_S = 60.0


@pytest.fixture
def clean(tmp_path):
    """The rows of a clean single-shot posix run of :data:`SPEC`."""
    return chaos.clean_rows(SPEC, tmp_path / "clean")


def bounded(fn, injector):
    """``fn()`` on a thread that must finish within :data:`LIMIT_S`:
    a recovery path that never fires fails the test instead of wedging
    it (the injector's hangs are released either way)."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as error:  # re-raised below
            box["error"] = error

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(LIMIT_S)
    wedged = thread.is_alive()
    injector.release()
    thread.join(LIMIT_S)
    assert not wedged, f"the campaign wedged for {LIMIT_S:g}s"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestExecuteFaults:
    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "pool"])
    def test_crash_and_hang_converge(
        self, tmp_path, execute_chaos, clean, workers
    ):
        # Two crashes, so the retry loop runs on the pool too (where the
        # first attempt is the pool's and the rest retry serially).
        injector = execute_chaos(
            Rule("crash", op="execute", match={"n_devices": 1}, calls=(1, 2)),
            Rule("hang", op="execute", match={"n_devices": 4}),
        )
        runner = CampaignRunner(
            store=tmp_path / "store",
            workers=workers,
            point_timeout_s=2.0,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        )
        run = bounded(lambda: runner.run(SPEC), injector)
        attempts = {r.point.n_devices: r.attempts for r in run.results}
        assert attempts == {1: 3, 2: 1, 4: 2}
        chaos.assert_converged(tmp_path / "store", clean, injector.executed())

    def test_killed_pool_worker_degrades_to_serial(
        self, tmp_path, execute_chaos, clean
    ):
        injector = execute_chaos(
            Rule("kill", op="execute", match={"n_devices": 2})
        )
        runner = CampaignRunner(
            store=tmp_path / "store",
            workers=2,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        )
        run = bounded(lambda: runner.run(SPEC), injector)
        assert not run.failures
        # The killed attempt counts; the serial retry completes it. A
        # broken pool keeps the results it had received but loses any
        # a live worker had not sent back yet, so such a point may
        # compute twice.
        attempts = {r.point.n_devices: r.attempts for r in run.results}
        assert attempts[2] == 2, attempts
        chaos.assert_converged(
            tmp_path / "store", clean, injector.executed(), once=False
        )


#: Seeded transient read errors, torn chunk writes and a storage hang.
STORAGE_PLAN = chaos.plan(
    Rule("torn", op="put_atomic", key_prefix="points/", calls=(1, 3)),
    Rule("error", op="get", p=0.1, max_fires=4),
    Rule("hang", op="get", calls=(2,), hang_s=0.2),
)


def _child_run_faulty(root, spec_dict, plan, owner, lease_ttl_s):
    """One campaign over FaultyDriver(Posix) in a forked child."""
    store = CampaignStore(
        driver=RetryingDriver(
            chaos.FaultyDriver(PosixDriver(root), plan),
            RetryPolicy(max_attempts=6, base_delay_s=0.005, max_delay_s=0.03),
        )
    )
    CampaignRunner(
        store=store,
        workers=None,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        owner=owner,
        lease_ttl_s=lease_ttl_s,
    ).run(CampaignSpec.from_dict(spec_dict))


class TestStorageFaults:
    def test_torn_writes_and_transient_errors_heal_in_the_driver_stack(
        self, tmp_path, execute_chaos, clean
    ):
        injector = execute_chaos()
        root = tmp_path / "store"
        driver = chaos.FaultyDriver(PosixDriver(root), STORAGE_PLAN)
        bounded(
            lambda: CampaignRunner(store=CampaignStore(driver=driver)).run(SPEC),
            injector,
        )
        assert driver.n_injected >= 3  # both tears and the hang
        chaos.assert_converged(root, clean, injector.executed())

    def test_two_runners_over_faulty_driver_converge(
        self, tmp_path, execute_chaos
    ):
        """Two concurrent runners over one faulty posix store (torn
        writes and a hang for one, seeded transient errors on reads
        and lease claims for the other) converge to the clean run's
        rows, with zero duplicated computations. A reader that
        finds the other runner's torn chunk write in progress must
        wait for the writer's retry, never quarantine it."""
        spec = fig17_campaign(
            rng=0, device_counts=(1, 2, 3, 4), n_rounds=1, engine="analytic"
        )
        store_root = tmp_path / "store"
        clean = chaos.clean_rows(spec, tmp_path / "clean")

        executions = execute_chaos()  # forked runners inherit it

        # w1: torn chunk writes (raising — driver retry heals them)
        # plus one injected storage hang; w2: seeded transient errors
        # across reads and lease claims. All within the retry budget,
        # so no attempt ever escalates or recomputes.
        w1_plan = chaos.plan(
            Rule("torn", op="put_atomic", key_prefix="points/", calls=(1, 3)),
            Rule("hang", op="get", calls=(2,), hang_s=0.2),
            seed=1,
        )
        w2_plan = chaos.plan(
            Rule("error", op="get", p=0.1, max_fires=4),
            Rule("error", op="put_exclusive", key_prefix="leases/", calls=(2,)),
            seed=2,
        )

        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_child_run_faulty,
                args=(str(store_root), spec.to_dict(), plan, name, 5.0),
            )
            for name, plan in (("w1", w1_plan), ("w2", w2_plan))
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

        # Zero duplicated computations despite every injected fault.
        chaos.assert_converged(store_root, clean, executions.executed())
        assert CampaignStore(store_root).active_leases() == []


class TestNetworkChaos:
    def test_remote_store_heals_in_the_client_retry_stack(
        self, tmp_path, execute_chaos, clean
    ):
        injector = execute_chaos()
        root = tmp_path / "served"
        plan = chaos.plan(
            Rule("refuse", op="get", calls=(3,)),
            Rule("http_error", op="get", calls=(6,), retry_after_s=0.02),
            Rule("disconnect", op="put_atomic", key_prefix="points/", calls=(1, 3)),
            Rule("stale_read", op="exists", key_prefix="points/"),
            seed=7,
        )
        with chaos.ChaosObjectStore(plan, driver=PosixDriver(root)) as served:
            store = CampaignStore(driver=build_driver(served.url))
            bounded(lambda: CampaignRunner(store=store).run(SPEC), injector)
            assert served.n_injected >= 3  # both cut writes and the stale read
        chaos.assert_converged(root, clean, injector.executed())


class TestServiceChaos:
    def test_concurrent_clients_converge_byte_identical(
        self, tmp_path, execute_chaos, clean
    ):
        injector = execute_chaos()
        real = injector.real

        def slowed(point):
            time.sleep(0.1)  # both submits overlap one execution
            return real(point)

        injector.real = slowed
        plan = chaos.plan(
            Rule("refuse", op="submit", calls=(2,)),
            Rule("http_error", op="submit", calls=(4,), retry_after_s=0.02),
            Rule("delay", op="submit", calls=(3,)),
            seed=7,
        )
        root = tmp_path / "store"
        retry = RetryPolicy(max_attempts=5, base_delay_s=0.002, max_delay_s=0.01)
        with chaos.ChaosService(plan, store=root, use_leases=False) as svc:
            barrier = threading.Barrier(2)
            runs = [None, None]

            def submit(slot):
                client = CampaignServiceClient(svc.url, retry=retry, timeout_s=30.0)
                barrier.wait()
                runs[slot] = client.submit(SPEC)

            threads = [threading.Thread(target=submit, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(LIMIT_S)
            warm = CampaignServiceClient(svc.url, retry=retry).submit(SPEC)
            with urllib.request.urlopen(svc.url + "/healthz", timeout=10) as response:
                health = json.loads(response.read())
            assert svc.selector.n_injected == 3

        first, second = runs
        assert b"".join(first.point_lines) == b"".join(second.point_lines)
        assert b"".join(warm.point_lines) == b"".join(first.point_lines)
        assert first.summary["status"] == second.summary["status"] == "complete"
        assert warm.summary["points_computed"] == 0
        assert health["status"] == "ok" and health["campaigns_in_flight"] == 0
        assert health["n_submitted"] >= 3
        chaos.assert_converged(root, clean, injector.executed())
