"""Which ``src/repro`` functions do the user surfaces reach?

    python tools/reach.py                 # run every surface, print the table
    python tools/reach.py --check         # ... and fail on an unlisted gap
    python tools/reach.py --repo DIR      # measure another checkout

Every surface runs in a child Python whose ``sitecustomize`` (a
temporary directory put first on ``PYTHONPATH``) loads this file and
installs :class:`Recorder` with ``sys.setprofile`` and
``threading.setprofile``. So the profile follows the surface's threads,
its forked pool workers (they inherit it, and dump before
``os._exit``), spawned workers and the servers it starts. Each process
writes the code objects it entered to its own file; a function counts
as reached when any process entered it.

Functions are keyed by ``(file, first line, name)``, where the first
line is the first decorator's, as in ``co_firstlineno``. Its lines are
the lines of its span that no nested function owns, so the line totals
add up to the lines in functions and nothing is counted twice. A method
decorated ``@abstractmethod`` declares a contract and its body never
runs, so it is not counted.

The surfaces are the repository's user entry points: the experiment CLI
(``list``, ``all --quick`` and the runs the CI ``examples`` job makes),
every example, every ``repro.campaign`` subcommand (``run`` serially,
on a process pool and over HTTP, with refused values), every campaign
preset, ``serve`` and ``serve-api`` on a posix and on their default
in-memory store, two concurrent ``submit`` clients, the service's JSON
endpoints, and the four
benchmark workloads at their test size, set up and run in-process
(``bench/run.py`` sets its workers' ``PYTHONPATH`` itself). Their exit
codes are reported, not judged.

``--check`` exits 1 when a function is unreached and not in
:data:`ALLOWLIST`, or when an allowlist entry names no function. A
``campaign/`` entry is fault-recovery code that only injected faults
trigger (``tests/chaos.py``) or a read-only accessor, and names the
tier-1 test that exercises it. The check needs two usable CPUs: on one, the process
pool, the Monte-Carlo leg pool and the decode pipeline run serially
(the pipeline's stage thread and its share of the reads never start),
so their functions read as unreached; it exits 2 before running
anything there.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_ENV = "REPRO_REACH_OUT"
SRC_ENV = "REPRO_REACH_SRC"
_ACCESSOR = ("read-only accessor of a class the surfaces build; the tests and the "
             "test oracles read it")
_TABLES = ("mass-join, leave and group-rotation API of the association tables; the "
           "CI scale-smoke equivalence gate (tests/test_population_scale.py) pins it "
           "against the tests' per-device reference")


def _paper(claim: str) -> str:
    return f"paper claim ({claim}) asserted by a tier-1 test; no surface prints it yet"


def _safety(what: str, test: str) -> str:
    return f"fault-recovery code ({what}) that only injected faults trigger; {test} exercises it"


def _read_by(test: str) -> str:
    return f"read-only accessor of a class the surfaces build; {test} reads it"


_FAULTS = "tests/test_campaign_faults.py"
_STORAGE = "tests/test_storage_drivers.py"
_OBJECTSTORE = "tests/test_objectstore.py"
_PINS = "tests/test_campaign_pins.py"
_QUARANTINE_TEST = f"{_FAULTS}::TestStoreIntegrity::test_torn_chunk_is_quarantined_not_served"
_HEARTBEAT_TEST = (f"{_STORAGE}::TestHeartbeatResilience::"
                   "test_heartbeat_retries_through_transient_faults")
_POOL_TEST = f"{_FAULTS}::TestPoolDegradation::test_runner_degrades_broken_pool_to_serial"
_DISCONNECT_TEST = (f"{_OBJECTSTORE}::TestClientDisconnects::"
                    "test_mid_response_hangup_is_counted_not_tracebacked")
_BREAKER_TEST = f"{_OBJECTSTORE}::TestCircuitBreaker::test_consecutive_failures_trip_then_fail_fast"
_CHAOS = "tests/test_campaign_chaos.py"
_CRASH_TEST = f"{_CHAOS}::TestExecuteFaults::test_crash_and_hang_converge[serial]"
_STORAGE_FAULT_TEST = (f"{_CHAOS}::TestStorageFaults::"
                       "test_torn_writes_and_transient_errors_heal_in_the_driver_stack")


#: Unreached functions kept in ``src/`` on purpose: ``path::qualname``
#: (relative to ``src/repro``) and the reason.
ALLOWLIST: Dict[str, str] = {
    # Kept for open roadmap items.
    "utils/stats.py::ber_estimate": "BER confidence interval for the error budgets "
                                    "of stochastic checks (ROADMAP item 1)",
    "utils/stats.py::BerEstimate.__str__": "printed form of ber_estimate (ROADMAP item 1)",
    "core/capacity.py::preamble_detection_probability":
        "closed-form detection probability (ROADMAP item 4)",
    # Paper claims with no printing surface.
    "core/capacity.py::multiuser_capacity_bps": _paper("Section 3.1 multi-user capacity"),
    "core/capacity.py::below_noise_approximation_bps":
        _paper("Section 3.1 below-noise linear capacity"),
    "core/capacity.py::approximation_error": _paper("Section 3.1 approximation error"),
    "core/capacity.py::capacity_scaling_series": _paper("Section 3.1 capacity vs devices"),
    "core/capacity.py::netscatter_utilisation": _paper("Section 3.1 bandwidth utilisation"),
    "core/allocation.py::cyclic_bin_distance":
        _paper("Section 3.2.2 strongest and weakest devices half a ring apart"),
    "core/allocation.py::AllocationTable.validate":
        _paper("Section 3.2.2 allocation invariants: SKIP grid, guards, SNR order"),
    "core/allocation.py::AllocationTable.worst_case_exposure_db":
        _paper("Section 3.2.2 no side lobe above a weaker device"),
    "core/receiver.py::DeviceDecode.estimated_snr_db":
        _paper("Section 3.2.2 the AP measures each device's SNR from its preamble"),
    "hardware/mcu.py::McuTimingModel.jitter_span_s":
        _paper("Section 3.2.1 packet-to-packet turnaround jitter"),
    "hardware/mcu.py::McuTimingModel.jitter_bins":
        _paper("Section 3.2.1 jitter within the SKIP guard"),
    "phy/chirp.py::cyclic_shifted_upchirp":
        _paper("Fig. 2a CSS symbol, the reference every fast path is tested against"),
    "protocol/association.py::AssociationController.request_shift_for_rssi":
        _paper("Section 3.3.2 two association shifts by downlink strength"),
    "protocol/session.py::NetworkSession.run":
        "session loop; the examples drive rounds one at a time to print each",
    # Table API pinned by a CI gate.
    "core/allocation.py::AllocationTable.bulk_add": _TABLES,
    "core/allocation.py::AllocationTable.remove_device": _TABLES,
    "protocol/ap.py::AccessPoint.bulk_associate": _TABLES,
    "protocol/ap.py::AccessPoint.next_round_devices": _TABLES,
    "protocol/association.py::AssociationController.bulk_associate": _TABLES,
    "protocol/population.py::Population.remove": _TABLES,
    "protocol/scheduler.py::GroupScheduler.bulk_add": _TABLES,
    "protocol/scheduler.py::GroupScheduler.remove_device": _TABLES,
    "protocol/scheduler.py::GroupScheduler.next_round": _TABLES,
    "protocol/scheduler.py::GroupScheduler.group_of": _TABLES,
    # Accessors.
    "core/allocation.py::AllocationTable.config": _ACCESSOR,
    "core/allocation.py::AllocationTable.snr_of": _ACCESSOR,
    "core/allocation.py::AllocationTable.shift_of": _ACCESSOR,
    "core/receiver.py::NetScatterReceiver.config": _ACCESSOR,
    "core/receiver.py::NetScatterReceiver.assignments": _ACCESSOR,
    "core/receiver.py::NetScatterReceiver.readout_plan": _ACCESSOR,
    "hardware/oscillator.py::OscillatorBank.oscillators": _ACCESSOR,
    "hardware/power_model.py::IcPowerBudget.breakdown": _ACCESSOR,
    "phy/backend_plan.py::BackendPlanner.coefficients": _ACCESSOR,
    "phy/chirp.py::ChirpParams.sample_times": _ACCESSOR,
    "phy/demodulation.py::Demodulator.params": _ACCESSOR,
    "phy/demodulation.py::Demodulator.zero_pad_factor": _ACCESSOR,
    "phy/noise.py::NoiseStream.draws": _ACCESSOR,
    "protocol/ap.py::AccessPoint.config": _ACCESSOR,
    "protocol/ap.py::AccessPoint.association": _ACCESSOR,
    "protocol/ap.py::AccessPoint.scheduler": _ACCESSOR,
    "protocol/ap.py::AccessPoint.receiver": _ACCESSOR,
    "protocol/association.py::AssociationController.table": _ACCESSOR,
    "protocol/association.py::AssociationController.association_shifts": _ACCESSOR,
    "protocol/association.py::AssociationController.n_members": _ACCESSOR,
    "protocol/network.py::NetworkSimulator.config": _ACCESSOR,
    "protocol/network.py::NetworkSimulator.assignments": _ACCESSOR,
    "protocol/population.py::Population.__len__": _ACCESSOR,
    "protocol/population.py::Population.duty_cycle_rounds": _ACCESSOR,
    "protocol/population.py::Population.rounds_since_tx": _ACCESSOR,
    "protocol/population.py::Population.group": _ACCESSOR,
    "protocol/population.py::FidelitySplit.n_monte_carlo": _ACCESSOR,
    "protocol/scheduler.py::GroupScheduler.n_groups": _ACCESSOR,
    "protocol/scheduler.py::GroupScheduler.groups": _ACCESSOR,
    # A failing Monte-Carlo leg stops the leg pool; no surface's leg fails.
    "protocol/population.py::_MonteCarloLegs._stop": (
        "failure path of the Monte-Carlo leg pool, which only a failing leg enters; "
        "tests/test_population_scale.py::TestMonteCarloPool::"
        "test_pool_failure_surfaces_cancels_pending_and_joins exercises it"),
    # Campaign fault recovery: chunk quarantine and its rename primitive.
    "campaign/store.py::CampaignStore.quarantine_chunk":
        _safety("chunk quarantine", _QUARANTINE_TEST),
    "campaign/store.py::CampaignStore._quarantine_and_raise":
        _safety("chunk quarantine", _QUARANTINE_TEST),
    "campaign/storage.py::PosixDriver.rename":
        _safety("rename, the quarantine primitive", _QUARANTINE_TEST),
    "campaign/storage.py::WrappingDriver.rename":
        _safety("rename, the quarantine primitive", _QUARANTINE_TEST),
    "campaign/storage.py::MemoryDriver.rename": _safety(
        "rename, the quarantine primitive",
        f"{_STORAGE}::TestDriverContract::test_rename_moves_atomically"),
    "campaign/objectstore.py::HttpDriver.rename": _safety(
        "rename, the quarantine primitive",
        f"{_STORAGE}::TestDriverContract::test_rename_moves_atomically"),
    # Read-only degradation, retry exhaustion and the broken process pool.
    "campaign/runner.py::CampaignRunner._degrade": _safety(
        "read-only degradation",
        f"{_STORAGE}::TestReadOnlyDegradation::test_allow_partial_computes_without_persisting"),
    "campaign/runner.py::_PointFailed.__init__": _safety(
        "a point that spends its retry budget",
        f"{_FAULTS}::TestRunnerRetries::test_retry_budget_exhaustion_raises"),
    "campaign/runner.py::_terminate_pool": _safety("a hung or killed pool worker", _POOL_TEST),
    "campaign/runner.py::CampaignRunner._record_failure_guarded":
        _safety("a failed attempt leaves a failure record", _CRASH_TEST),
    "campaign/store.py::CampaignStore.record_failure":
        _safety("a failed attempt leaves a failure record", _CRASH_TEST),
    "campaign/retry.py::RetryPolicy.backoff_s":
        _safety("the backoff before a retry", _CRASH_TEST),
    "campaign/storage.py::PosixDriver.replace":
        _safety("replace, the torn-write and lease-steal primitive", _STORAGE_FAULT_TEST),
    "errors.py::TransientStorageError.__init__":
        _safety("a transient storage error the driver stack retries", _STORAGE_FAULT_TEST),
    "campaign/objectstore.py::CircuitBreaker._on_failure":
        _safety("a failed call counts toward opening the breaker", _BREAKER_TEST),
    "campaign/runner.py::CampaignRunner._note_attempt_failure":
        _safety("a failed pool attempt retries serially", _POOL_TEST),
    # Lease renewal and steal.
    "campaign/leases.py::LeaseManager.renew": _safety(
        "lease renewal",
        f"{_FAULTS}::TestLeaseManager::test_renew_pushes_deadline_forward"),
    "campaign/leases.py::LeaseManager.renew_held": _safety("lease renewal", _HEARTBEAT_TEST),
    "campaign/leases.py::HeartbeatThread.gave_up": _safety(
        "lease renewal that fails for a whole ttl",
        f"{_STORAGE}::TestHeartbeatResilience::test_heartbeat_gives_up_after_ttl_of_failure"),
    "campaign/storage.py::WrappingDriver.replace":
        _safety("replace, the lease renewal and steal primitive", _HEARTBEAT_TEST),
    "campaign/storage.py::MemoryDriver.replace":
        _safety("replace, the lease renewal and steal primitive", _HEARTBEAT_TEST),
    "campaign/objectstore.py::HttpDriver.replace": _safety(
        "replace, the lease renewal and steal primitive",
        f"{_OBJECTSTORE}::TestDelayedLandingWrites::"
        "test_timed_out_replace_reconciles_idempotently"),
    "campaign/leases.py::_deadline": _safety(
        "an expired or mangled lease reads as stealable",
        f"{_FAULTS}::TestLeaseManager::test_expired_lease_is_stolen"),
    "campaign/leases.py::live_lease": _safety(
        "a torn chunk under another holder's live lease is re-read, not quarantined",
        f"{_STORAGE}::TestTornWriteUnderLiveLease::"
        "test_lasting_lease_leaves_the_torn_chunk_in_place"),
    # Client disconnects and answers from outside the program.
    "campaign/objectstore.py::DisconnectTolerantHTTPServer.handle_error":
        _safety("client-disconnect handling", _DISCONNECT_TEST),
    "campaign/objectstore.py::HttpService.note_client_disconnect":
        _safety("client-disconnect handling", _DISCONNECT_TEST),
    "campaign/objectstore.py::HttpDriver._unexpected": _safety(
        "rejection of a status the wire protocol does not define",
        f"{_OBJECTSTORE}::TestWireProtocol::test_writes_to_unknown_bucket_fail_loudly"),
    # Campaign accessors.
    "campaign/storage.py::PosixDriver.spec":
        _read_by(f"{_STORAGE}::TestBuildDriver::test_url_specs_parse_and_round_trip"),
    "campaign/objectstore.py::CircuitBreaker.state": _read_by(_BREAKER_TEST),
    "campaign/objectstore.py::CircuitBreakerDriver.state": _read_by(_BREAKER_TEST),
    "campaign/runner.py::CampaignRun.metrics": _read_by(
        "tests/test_campaign.py::TestRunnerEquivalence::"
        "test_campaign_equals_direct_sweep_bit_for_bit"),
    "campaign/runner.py::CampaignRunner.store":
        _read_by(f"{_FAULTS}::TestRunnerRetries::test_retry_budget_exhaustion_raises"),
    "campaign/store.py::CampaignStore.load_failure":
        _read_by(f"{_FAULTS}::TestStoreIntegrity::test_failure_record_cleared_by_save"),
    "campaign/store.py::CampaignStore.__len__": _read_by(
        "tests/test_campaign.py::TestResumability::"
        "test_killed_run_resumes_and_matches_single_shot"),
}

Key = Tuple[str, int, str]


@dataclass(frozen=True)
class Function:
    """One ``def`` in the package: where it starts and how many lines it owns."""

    path: str
    qualname: str
    first: int
    last: int
    lines: int

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def package(self) -> str:
        head, _, rest = self.path.partition("/")
        return head if rest else "(top)"


def functions(package_dir: Path) -> Dict[Key, Function]:
    """Every function and method under ``package_dir``, by its code key."""
    found: Dict[Key, Function] = {}
    for path in sorted(package_dir.rglob("*.py")):
        relative = path.relative_to(package_dir).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in _walk(tree, relative, ""):
            found[(relative, function.first, function.qualname.rpartition(".")[2])] = function
    return found


def _first_line(node) -> int:
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _is_abstract(node) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


def _walk(node, path: str, prefix: str) -> Iterable[Function]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_abstract(child):
                continue  # a declaration: its body never runs
            qualname = prefix + child.name
            first = _first_line(child)
            owned = set(range(first, child.end_lineno + 1))
            for inner in _nested_functions(child):
                owned -= set(range(_first_line(inner), inner.end_lineno + 1))
            yield Function(path, qualname, first, child.end_lineno, len(owned))
            yield from _walk(child, path, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, path, prefix + child.name + ".")
        else:
            yield from _walk(child, path, prefix)


def _nested_functions(node) -> Iterable[ast.AST]:
    """The functions defined directly inside ``node``'s body (at any depth
    of classes and statements, but not inside another function)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _nested_functions(child)


class Recorder:
    """Records every Python code object entered, in every thread started
    while it is installed."""

    def __init__(self) -> None:
        self.codes: dict = {}

    def _profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            self.codes[id(code)] = code

    def install(self) -> None:
        sys.setprofile(self._profile)
        threading.setprofile(self._profile)

    def uninstall(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def keys(self, package_dir: Path) -> Set[Key]:
        """The code keys of the entered functions under ``package_dir``."""
        root = str(package_dir.resolve()) + os.sep
        keys = set()
        for code in list(self.codes.values()):
            filename = os.path.realpath(code.co_filename)
            if filename.startswith(root):
                relative = Path(filename[len(root):]).as_posix()
                keys.add((relative, code.co_firstlineno, code.co_name))
        return keys


def bootstrap() -> None:
    """Install a recorder for this whole process; called from ``sitecustomize``.

    It writes its keys at normal exit and before ``os._exit``, which is
    how forked pool workers end. A forked child starts with an empty
    record, so each process writes only what it entered itself.
    """
    out_dir, package_dir = Path(os.environ[OUT_ENV]), Path(os.environ[SRC_ENV])
    recorder = Recorder()
    dumped = set()

    def dump() -> None:
        if os.getpid() in dumped:
            return
        dumped.add(os.getpid())
        keys = sorted(recorder.keys(package_dir))
        target = out_dir / f"{os.getpid()}-{time.monotonic_ns()}.json"
        target.write_text(json.dumps(keys))

    real_exit = os._exit

    def exit_after_dump(code):
        dump()
        real_exit(code)

    os._exit = exit_after_dump
    os.register_at_fork(after_in_child=recorder.codes.clear)
    atexit.register(dump)
    recorder.install()


def load_reached(out_dir: Path) -> Set[Key]:
    reached: Set[Key] = set()
    for path in out_dir.glob("*.json"):
        reached.update(tuple(key) for key in json.loads(path.read_text()))
    return reached


SITECUSTOMIZE = """\
import importlib.util, sys
_spec = importlib.util.spec_from_file_location("_repro_reach", {path!r})
_module = sys.modules["_repro_reach"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.bootstrap()
"""

BENCH_SNIPPET = """\
import sys, tempfile
from bench import workloads
for name in sys.argv[1:]:
    workload = workloads.build(name, tiny=True)
    with tempfile.TemporaryDirectory() as workdir:
        state = workload.setup(1, workdir)
        try:
            units = workloads.run_units(workload, state, 1)
            outputs = workload.outputs(state, units)
        finally:
            workload.close(state)
    problems = [m for m in workload.check(outputs).values() if m]
    errors = [u.error for u in units if u.error]
    print(name, "errors:", errors, "problems:", problems)
"""

#: Seconds one surface may run before it is cut and logged with no exit code.
SURFACE_TIMEOUT_S = 900.0

#: The small campaign of the campaign surfaces.
POINTS = ["--spec", "fig17", "--counts", "1,2,4", "--rounds", "1", "--engine", "analytic"]


class Session:
    """Runs surfaces as recorded child processes of one checkout."""

    def __init__(self, repo: Path, work: Path, timeout_s: float) -> None:
        self.repo = repo
        self.work = work
        self.timeout_s = timeout_s
        self.out = work / "records"
        self.out.mkdir()
        boot = work / "boot"
        boot.mkdir()
        (boot / "sitecustomize.py").write_text(SITECUSTOMIZE.format(path=str(Path(__file__))))
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(boot), str(repo), str(repo / "src")]),
            REPRO_BACKEND_CALIBRATION=str(work / "calibration.json"),
            **{OUT_ENV: str(self.out), SRC_ENV: str(repo / "src" / "repro")},
        )
        self.log: List[Tuple[str, Optional[int]]] = []

    def _argv(self, args: List[str]) -> List[str]:
        return [sys.executable] + [a.replace("{work}", str(self.work)) for a in args]

    def run(self, args: List[str]) -> None:
        """Run one surface to its end; its exit code is logged."""
        try:
            code = subprocess.run(
                self._argv(args), cwd=self.repo, env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=self.timeout_s,
            ).returncode
        except subprocess.TimeoutExpired:
            code = None
        self.log.append((" ".join(args), code))

    def start(self, args: List[str], port: int) -> subprocess.Popen:
        """Start a server surface and wait until ``port`` accepts."""
        process = subprocess.Popen(
            self._argv(args), cwd=self.repo, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and process.poll() is None:
            with socket.socket() as probe:
                if probe.connect_ex(("127.0.0.1", port)) == 0:
                    break
            time.sleep(0.1)
        return process

    def stop(self, process: subprocess.Popen, args: List[str]) -> None:
        """Interrupt a server, as Ctrl-C does, so it exits and writes its record."""
        process.send_signal(signal.SIGINT)
        try:
            code = process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            process.kill()
            code = process.wait()
        self.log.append((" ".join(args), code))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _read_endpoints(base: str) -> None:
    """Read the service's JSON endpoints, as a monitor does with ``curl``."""
    try:
        for path in ("/healthz", "/campaigns"):
            body = json.loads(urllib.request.urlopen(base + path, timeout=10).read())
        for campaign in body["campaigns"]:
            urllib.request.urlopen(f"{base}/campaigns/{campaign['campaign_id']}/status",
                                   timeout=10).read()
    except (OSError, ValueError, KeyError):
        pass


def run_surfaces(session: Session) -> None:
    """Every user surface, in a fixed order."""
    run = session.run
    run(["-m", "repro", "list"])
    run(["-m", "repro", "all", "--quick"])
    run(["-m", "repro", "run", "fig04", "--quick", "--seed", "1"])
    for name in ("fig10", "ext-choir", "fig17", "fig18"):
        run(["-m", "repro", "run", name, "--quick"])
    for example in ("quickstart", "bandwidth_aggregation", "near_far_study",
                    "smart_office_network", "living_network"):
        run([f"examples/{example}.py"])
    run(["examples/living_network.py", "--devices", "100000", "--rounds", "1"])

    campaign = ["-m", "repro.campaign"]
    run(campaign + ["run", "--spec", "fig17", "--seed", "0", "--counts", "1,16", "--rounds",
                    "1", "--store", "{work}/pooled", "--workers", "2"])
    run(campaign + ["run"] + POINTS + ["--store", "{work}/clean", "--timeout-s", "30",
                                       "--max-attempts", "3"])
    for preset in ("fig18", "noise-grid"):
        run(campaign + ["run", "--spec", preset, "--counts", "1", "--rounds", "1", "--store",
                        "{work}/presets"])
    for bad in (["--counts", "1,x"], ["--counts", "1", "--lease-ttl-s", "0"],
                ["--counts", "1", "--timeout-s", "-1"], ["--counts", "1", "--workers", "-1"]):
        run(campaign + ["run", "--spec", "fig17", "--rounds", "1", "--engine", "analytic",
                        "--store", "{work}/bad"] + bad)
    run(campaign + ["status", "--json", "--store", "{work}/clean"])
    run(campaign + ["status", "--store", "{work}/clean"])
    run(campaign + ["export", "--store", "{work}/clean"])
    run(campaign + ["export", "--store", "{work}/clean", "--format", "csv", "--output",
                    "{work}/export.csv"])

    port = _free_port()
    serve = campaign + ["serve", "--root", "{work}/served", "--port", str(port)]
    server = session.start(serve, port)
    url = f"http://127.0.0.1:{port}/campaign"
    run(campaign + ["run"] + POINTS + ["--storage-driver", url])
    run(campaign + ["status", "--json", "--storage-driver", url])
    session.stop(server, serve)

    port = _free_port()
    serve = campaign + ["serve", "--port", str(port)]
    server = session.start(serve, port)
    url = f"http://127.0.0.1:{port}/campaign"
    run(campaign + ["run"] + POINTS + ["--storage-driver", url])
    run(campaign + ["status", "--storage-driver", url])
    session.stop(server, serve)

    port = _free_port()
    serve_api = campaign + ["serve-api", "--port", str(port)]
    server = session.start(serve_api, port)
    run(campaign + ["submit", "--service", f"http://127.0.0.1:{port}"] + POINTS)
    session.stop(server, serve_api)

    port = _free_port()
    serve_api = campaign + ["serve-api", "--store", "{work}/service", "--port", str(port),
                            "--no-leases"]
    server = session.start(serve_api, port)
    submit = campaign + ["submit", "--service", f"http://127.0.0.1:{port}"] + POINTS + ["--json"]
    clients = [threading.Thread(target=run, args=(submit,)) for _ in range(2)]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    run(submit)
    run(campaign + ["submit", "--service", f"http://127.0.0.1:{port}"] + POINTS)
    _read_endpoints(f"http://127.0.0.1:{port}")
    session.stop(server, serve_api)

    run(["-c", BENCH_SNIPPET, "dense-256", "fading-64", "population-1e5", "campaign-service"])


def measure(repo: Path) -> Tuple[Dict[Key, Function], Set[Key], list]:
    """The functions of ``repo``'s package, the reached keys and the surface log."""
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        session = Session(repo, Path(work), SURFACE_TIMEOUT_S)
        run_surfaces(session)
        reached = load_reached(session.out)
    if not reached:
        raise SystemExit("reach: no surface process wrote a record")
    return functions(repo / "src" / "repro"), reached, session.log


def table(found: Dict[Key, Function], reached: Set[Key]) -> List[dict]:
    """Per-package totals: functions and function lines, all and unreached."""
    rows: Dict[str, dict] = {}
    for key, function in found.items():
        row = rows.setdefault(function.package, dict(
            package=function.package, functions=0, unreached=0, lines=0, unreached_lines=0))
        row["functions"] += 1
        row["lines"] += function.lines
        if key not in reached:
            row["unreached"] += 1
            row["unreached_lines"] += function.lines
    return [rows[name] for name in sorted(rows)]


def check(found: Dict[Key, Function], reached: Set[Key],
          allowlist: Dict[str, str] = ALLOWLIST) -> List[str]:
    """Problems: unlisted gaps, and stale entries."""
    names = {function.name for function in found.values()}
    problems = [
        f"unreached and not allowlisted: {function.name} "
        f"(line {function.first}, {function.lines} lines)"
        for key, function in sorted(found.items())
        if key not in reached and function.name not in allowlist
    ]
    problems += [f"allowlisted but not found: {name}" for name in sorted(allowlist)
                 if name not in names]
    return problems


def _format(rows: List[dict]) -> str:
    lines = [f"{'package':<12} {'functions':>9} {'unreached':>9} {'lines':>7} {'unreached':>9}"]
    for row in rows:
        lines.append(f"{row['package']:<12} {row['functions']:>9} {row['unreached']:>9} "
                     f"{row['lines']:>7} {row['unreached_lines']:>9}")
    total = {key: sum(row[key] for row in rows)
             for key in ("functions", "unreached", "lines", "unreached_lines")}
    lines.append(f"all: {total['unreached']} of {total['functions']} functions unreached, "
                 f"{total['unreached_lines']} of {total['lines']} function lines")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached, unlisted function")
    args = parser.parse_args(argv)
    if args.check and _usable_cpus() < 2:
        print("reach check needs 2 usable CPUs: on one, the pooled paths run serially")
        return 2
    found, reached, log = measure(args.repo.resolve())
    for command, code in log:
        if code != 0:
            print(f"surface exited {code}: {command[:100]}")
    rows = table(found, reached)
    print(_format(rows))
    if not args.check:
        return 0
    problems = check(found, reached)
    for problem in problems:
        print(problem)
    print(f"reach check: {'FAILED' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
