"""The four benchmark workloads: set-up, work units and output checks.

Every input is derived from the seed, so one seed gives one set of
inputs in every process. Work per repeat is a fixed number of units,
which the runner sizes from ``--seconds``; each unit's result is
recorded so repeats of one seed, and two commits at one seed, can be
compared exactly.

* ``dense-256`` — the paper's stress point (Fig. 17: 256 devices, SF 9,
  D = N/2) on a static channel. The planner picks the padded FFT, so it
  loads tone synthesis, the FFT readout and the decisions, and bypasses
  the analytic kernel, fading, the closed-form law and the campaign
  stack.
* ``fading-64`` — 64 devices with AR(1) fading in 200-round batches.
  The planner picks the analytic kernel: work goes to
  ``compose_readout``, the payload noise draws and ``step_tracks``,
  with no tone synthesis and no FFT.
* ``population-1e5`` — one hybrid-fidelity cycle over a 10⁵-device
  office population: the only workload on the population layer and
  the closed-form link law, and the one the Monte-Carlo tail runs on.
* ``campaign-service`` — an in-process campaign service over a posix
  store. A unit is one session of the repository's service check (the
  ``service-chaos`` CI job, without its injected faults): two clients
  submit the same new spec at once, so one computes and the other
  joins or reads the cache, then one client submits it again and is
  answered from the cache.

``paper_deployment``, ``office_population`` and
``hybrid_population_round`` are called through their modules, so the
traced run's wrappers on those bindings see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from bench.trace import UNIT_SPAN
from repro.channel import deployment as channel_deployment
from repro.core.config import NetScatterConfig
from repro.phy.backend_plan import host_planner
from repro.phy.noise import CURRENT_NOISE_VERSION
from repro.protocol import population as protocol_population
from repro.protocol.network import NetworkSimulator

#: Sanity band of a run's mean output around the seed commit's mean over
#: 70 seeds (10 for the population), in standard deviations of the
#: per-seed means. Deployments differ by seed, so the band is wide; the
#: sharp check is ``compare.py``'s, against the parent at the same seed.
BAND_SIGMAS = 5.0


def derive_seed(*keys: int) -> int:
    """A 32-bit seed for one unit, mixed from the run seed and indices."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def stream(backend: str, noise_version: int) -> str:
    """Name of the random stream a result came from.

    Two results of one input are equal only when their streams match:
    the backends draw their noise in differently sized chunks, and a new
    noise layout gets a new version.
    """
    return f"{backend}/noise-v{noise_version}"


@dataclass
class Unit:
    """One completed (or failed) unit of work.

    ``replay`` tells apart the two units of a traced pair (see
    :func:`run_units`); ``requests`` holds request latencies by kind.
    """

    index: int
    latency_s: float
    work: int
    replay: int = 0
    traced: bool = False
    requests: Dict[str, List[float]] = field(default_factory=dict)
    result: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass(frozen=True)
class Band:
    """Seed-commit mean and per-seed standard deviation of one output."""

    mean: float
    sd: float

    def miss(self, label: str, value: float) -> Optional[str]:
        if abs(value - self.mean) <= BAND_SIGMAS * self.sd:
            return None
        return (
            f"{label} {value:.6g} outside {self.mean:.6g} "
            f"± {BAND_SIGMAS:g} x {self.sd:.3g}"
        )


def _timed(workload, state: dict, index: int, replay: int, tracer) -> Unit:
    """Run one unit, with the wrappers in place when ``tracer`` is given.

    Never raises: a failed unit is recorded and counted.
    """
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed:
        scope = tracer.span(UNIT_SPAN, unit=str(index)) if tracer else contextlib.nullcontext()
        requests: Dict[str, List[float]] = {}
        start = time.perf_counter()
        try:
            with scope:
                work, result = workload.unit(state, index, replay, requests)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
            work, result, error = 0, {}, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    return Unit(index, latency, work, replay, tracer is not None, requests, result, error)


def run_units(workload, state: dict, n_units: int, tracer=None) -> List[Unit]:
    """Run ``n_units`` units in order, one caller, closed loop.

    With a tracer, every unit runs as a pair: once plain (``replay``
    0, the unit an untraced run makes) and once traced (``replay`` 1),
    in alternating order. The wrappers are in place only for the traced
    one, so each pair measures the tracing overhead a few seconds apart
    at most, which host drift cannot move much. The first pair runs
    traced first, so the process's first unit, which pays for filling
    caches, can only overstate the overhead.
    """
    units = []
    for index in range(n_units):
        if tracer is None:
            units.append(_timed(workload, state, index, 0, None))
            continue
        pair = [(1, tracer), (0, None)]
        for replay, pair_tracer in pair if index % 2 == 0 else pair[::-1]:
            units.append(_timed(workload, state, index, replay, pair_tracer))
    return units


def _calibrate_planner() -> None:
    """Planner calibration is set-up work; force it so every set-up pays it."""
    host_planner(force_recalibrate=True)


def _mean_and_se(values: List[float]) -> tuple:
    """Mean of per-unit values and its Monte-Carlo standard error."""
    mean = float(np.mean(values))
    se = statistics.stdev(values) / len(values) ** 0.5 if len(values) > 1 else 0.0
    return mean, se


class DecodeWorkload:
    """Fresh seeded ``NetworkSimulator`` batches over one deployment."""

    def __init__(
        self,
        n_devices: int,
        n_rounds: int,
        fading: bool,
        nominal_unit_s: float,
        bands: Dict[str, Band],
    ) -> None:
        self.n_devices = n_devices
        self.n_rounds = n_rounds
        self.fading = fading
        self.nominal_unit_s = nominal_unit_s
        self.bands = bands

    def setup(self, seed: int, workdir) -> dict:
        _calibrate_planner()
        return {
            "seed": seed,
            "deployment": channel_deployment.paper_deployment(
                n_devices=self.n_devices, rng=seed
            ),
            "config": NetScatterConfig(n_association_shifts=0),
        }

    def unit(self, state: dict, index: int, replay: int, requests) -> tuple:
        """One batch; a replay decodes the same inputs again."""
        simulator = NetworkSimulator(
            state["deployment"],
            config=state["config"],
            rng=np.random.default_rng(derive_seed(state["seed"], index)),
            engine="auto",
        )
        metrics = simulator.run_rounds(self.n_rounds, fading=self.fading)
        if not 0.0 <= metrics.delivery_ratio <= 1.0:
            raise ValueError(f"delivery ratio {metrics.delivery_ratio} outside [0, 1]")
        return self.n_devices * self.n_rounds, {
            "stream": stream(metrics.backend, metrics.noise_version),
            "backends": {metrics.backend: 1},
            "delivery_ratio": metrics.delivery_ratio,
            "phy_rate_bps": metrics.phy_rate_bps,
        }

    def _measured(self, units: List[Unit]) -> Dict[str, tuple]:
        done = [u.result for u in units if u.error is None and u.replay == 0]
        return {key: _mean_and_se([r[key] for r in done]) for key in self.bands}

    def outputs(self, state: dict, units: List[Unit]) -> Dict[str, float]:
        return {key: mean for key, (mean, _) in self._measured(units).items()}

    def standard_errors(self, units: List[Unit]) -> Dict[str, float]:
        return {key: se for key, (_, se) in self._measured(units).items()}

    def check(self, outputs: Dict[str, float]) -> Dict[str, Optional[str]]:
        return {key: band.miss(key, outputs[key]) for key, band in self.bands.items()}

    def close(self, state: dict) -> None:
        pass


class PopulationWorkload:
    """One hybrid-fidelity cycle per unit over a 10⁵-device population."""

    OUTPUTS = ("delivery_ratio", "groups", "mc_groups", "mc_devices", "audit_max_gap")

    def __init__(self, n_devices: int, nominal_unit_s: float, band: Band) -> None:
        self.n_devices = n_devices
        self.nominal_unit_s = nominal_unit_s
        self.band = band

    def setup(self, seed: int, workdir) -> dict:
        _calibrate_planner()
        population = protocol_population.office_population(
            self.n_devices, rng=seed, snr_scale_db=-26.0
        )
        return {"seed": seed, "population": population}

    def unit(self, state: dict, index: int, replay: int, requests) -> tuple:
        """One cycle; a replay runs the same cycle again."""
        outcome = protocol_population.hybrid_population_round(
            state["population"], seed=derive_seed(state["seed"], index)
        )
        groups = outcome.n_closed_form_groups + outcome.n_monte_carlo_groups
        devices = outcome.n_closed_form_devices + outcome.n_monte_carlo_devices
        if groups != outcome.n_groups or devices != outcome.n_devices:
            raise ValueError(
                f"fidelity split covers {groups}/{outcome.n_groups} groups "
                f"and {devices}/{outcome.n_devices} devices"
            )
        # The cycle's Monte-Carlo legs do not report their backend; the
        # noise layout is the program's current one.
        return self.n_devices, {
            "stream": f"noise-v{CURRENT_NOISE_VERSION}",
            "groups": outcome.n_groups,
            "mc_groups": outcome.n_monte_carlo_groups,
            "mc_devices": outcome.n_monte_carlo_devices,
            "audit_max_gap": outcome.audit_max_gap,
            "delivery_ratio": outcome.delivery_ratio,
        }

    def outputs(self, state: dict, units: List[Unit]) -> Dict[str, float]:
        done = [u.result for u in units if u.error is None]
        return {key: float(np.mean([r[key] for r in done])) for key in self.OUTPUTS}

    def standard_errors(self, units: List[Unit]) -> Dict[str, float]:
        """Binomial bound on the delivery ratio's Monte-Carlo error.

        Only the Monte-Carlo groups are random: their ``mc_devices`` x
        ``monte_carlo_rounds`` packets, each delivered or not, weigh
        ``mc_devices / n_devices`` in the ratio, and p(1 - p) <= 1/4.
        """
        done = [u.result for u in units if u.error is None and u.replay == 0]
        rounds = protocol_population.FidelityRule().monte_carlo_rounds
        per_cycle = [0.5 * (r["mc_devices"] / rounds) ** 0.5 / self.n_devices for r in done]
        return {"delivery_ratio": float(np.mean(per_cycle)) / len(done) ** 0.5}

    def check(self, outputs: Dict[str, float]) -> Dict[str, Optional[str]]:
        return {"delivery_ratio": self.band.miss("delivery_ratio", outputs["delivery_ratio"])}

    def close(self, state: dict) -> None:
        pass


class CampaignServiceWorkload:
    """Sessions of two clients against an in-process campaign service.

    A session follows the repository's ``service-chaos`` CI job, without
    its faults: both clients submit one new ``fig17_campaign`` over 1, 2
    and 4 devices (one round, analytic engine) at the same time, then
    the first client submits it again. Sessions run one after another.
    """

    n_clients = 2
    device_counts = (1, 2, 4)

    def __init__(self, nominal_unit_s: float) -> None:
        self.nominal_unit_s = nominal_unit_s

    def setup(self, seed: int, workdir) -> dict:
        # Imported here: only this workload's set-up pays for the stack.
        from repro.campaign.client import CampaignServiceClient
        from repro.campaign.service import CampaignService

        _calibrate_planner()
        root = tempfile.mkdtemp(prefix="campaign-store-", dir=workdir)
        service = CampaignService(root).start()
        clients = [CampaignServiceClient(service.url) for _ in range(self.n_clients)]
        return {"seed": seed, "root": root, "service": service, "clients": clients}

    def unit(self, state: dict, index: int, replay: int, requests) -> tuple:
        """One session; a replay uses a spec of its own, so it is cold too."""
        from repro.campaign.presets import fig17_campaign

        spec = fig17_campaign(
            rng=derive_seed(state["seed"], index, replay),
            device_counts=self.device_counts,
            n_rounds=1,
            engine="analytic",
        )
        first, second = state["clients"]
        cold: List[object] = [None, None]

        def submit_second() -> None:
            try:
                cold[1] = _timed_submit(second, spec, requests, "cold")
            except Exception as exc:  # noqa: BLE001 - raised again below
                cold[1] = exc

        thread = threading.Thread(target=submit_second, name="bench-client-1")
        thread.start()
        try:
            cold[0] = _timed_submit(first, spec, requests, "cold")
        finally:
            thread.join()
        if isinstance(cold[1], Exception):
            raise cold[1]
        warm = _timed_submit(first, spec, requests, "warm")
        return sum(self.device_counts), _session_result(spec.n_points, cold, warm)

    def outputs(self, state: dict, units: List[Unit]) -> Dict[str, float]:
        done = [u.result for u in units if u.error is None]
        stats = state["service"].store.driver.inner.stats()
        return {
            # Requested points answered without computing them: from the
            # cache, or by joining the other client's computation.
            "cache_hit_ratio": 1.0 - sum(r["computed"] for r in done)
            / max(sum(r["points"] for r in done), 1),
            "client_retries": float(sum(c.n_retries for c in state["clients"])),
            "deduped": float(state["service"].healthz()["n_deduped"]),
            "bytes_read": float(stats["bytes_read"]),
            "bytes_written": float(stats["bytes_written"]),
        }

    def standard_errors(self, units: List[Unit]) -> Dict[str, float]:
        return {}  # the analytic engine is pinned: results repeat exactly

    def check(self, outputs: Dict[str, float]) -> Dict[str, Optional[str]]:
        retries = outputs["client_retries"]
        return {"client_retries": f"client retried {retries:g} times" if retries else None}

    def close(self, state: dict) -> None:
        state["service"].stop()
        shutil.rmtree(state["root"], ignore_errors=True)


def _timed_submit(client, spec, requests: Dict[str, List[float]], kind: str):
    """``client.submit(spec)``, its latency appended to ``requests[kind]``."""
    start = time.perf_counter()
    run = client.submit(spec)
    requests.setdefault(kind, []).append(time.perf_counter() - start)
    return run


def _session_result(n_points: int, cold: list, warm) -> dict:
    """Check one session's three submits; returns its comparable result.

    Every summary reads ``complete`` and every stream carries the same
    point lines. Between them, the cold submits compute each point once:
    the client that created the execution computes them all, and the
    other joins it (same summary) or, arriving after it finished, creates
    a second execution that reads every point from the cache. The warm
    submit computes none.
    """
    lines = b"".join(cold[0].point_lines)
    for run in (*cold, warm):
        if run.summary.get("status") != "complete":
            raise ValueError(f"summary status {run.summary.get('status')!r}")
        if run.n_computed + run.n_cached != n_points:
            raise ValueError(
                f"submit computed {run.n_computed} and cached {run.n_cached} "
                f"of {n_points} points"
            )
        if b"".join(run.point_lines) != lines:
            raise ValueError("two submits of one spec streamed different point lines")
    computed = sum(run.n_computed for run in cold if run.created)
    if computed != n_points:
        raise ValueError(f"the cold submits computed {computed} of {n_points} points")
    if not warm.created or warm.n_computed:
        raise ValueError(f"the warm submit computed {warm.n_computed} points")
    provenance = [event["provenance"] for event in warm.point_events]
    backends: Dict[str, int] = {}
    for entry in provenance:
        backends[entry["backend"]] = backends.get(entry["backend"], 0) + 1
    return {
        "stream": "+".join(sorted({stream(p["backend"], p["noise_version"]) for p in provenance})),
        "backends": backends,
        "points": 3 * n_points,
        "computed": computed,
        "lines_sha256": hashlib.sha256(lines).hexdigest(),
    }


def units_for(workload, budget_s: float) -> int:
    """Fixed unit count of one repeat: about ``budget_s`` on the reference host."""
    return max(1, round(budget_s / workload.nominal_unit_s))


def digest(results: List[dict]) -> str:
    """A short hash of unit results, in the order given."""
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build(name: str, tiny: bool = False):
    """The named workload; ``tiny`` shrinks its units for the test suite."""
    if name == "dense-256":
        return DecodeWorkload(
            256, 2 if tiny else 20, False, 0.21,
            {"delivery_ratio": DENSE_DELIVERY, "phy_rate_bps": DENSE_PHY_RATE},
        )
    if name == "fading-64":
        return DecodeWorkload(
            64, 10 if tiny else 200, True, 0.55,
            {"delivery_ratio": FADING_DELIVERY, "phy_rate_bps": FADING_PHY_RATE},
        )
    if name == "population-1e5":
        return PopulationWorkload(3_000 if tiny else 100_000, 7.0, POPULATION_DELIVERY)
    if name == "campaign-service":
        return CampaignServiceWorkload(0.036)
    raise KeyError(name)


#: Seed-commit output bands (see BAND_SIGMAS and bench/README.md).
DENSE_DELIVERY = Band(0.895, 0.02)
DENSE_PHY_RATE = Band(245_000.0, 3_000.0)
FADING_DELIVERY = Band(0.998, 0.0036)
FADING_PHY_RATE = Band(62_490.0, 20.0)
POPULATION_DELIVERY = Band(0.916, 0.002)
