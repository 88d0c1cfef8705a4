"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload dense-256 --seed 1 --seconds 12 --trace 0

A run makes three repeats, each in a fresh worker process with BLAS
pinned to one thread and the backend planner calibrating in memory
(``REPRO_BACKEND_CALIBRATION=""``), so a calibration file written by one
checkout never steers another. Each repeat does a fixed number of work
units, sized so that the three together take about ``--seconds`` on the
reference host, and the program is imported from ``src/`` of this
checkout.

``--trace 0`` prints the end-to-end metrics; two more workers that only
set up add to the set-up time's samples. ``--trace 1`` runs every unit
twice, once plain and once traced (see ``bench/trace.py`` and
``workloads.run_units``), and prints the per-layer metrics, the tracing
overhead among them. ``--trace-dir DIR`` also writes every span to
``DIR/spans.jsonl`` and the per-layer summary to ``DIR/layers.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it gives each metric's median, min, max and sample count, the checked
outputs with their Monte-Carlo standard errors, the random streams and a
digest of the unit results (which ``compare.py`` matches against the
parent's at the same seed), per-kind latencies and any failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Import the benchmark as the ``bench`` package: its own directory
    # first on sys.path would shadow the standard library's ``trace``.
    sys.path[0] = str(ROOT)

from bench.trace import ELEM_SPANS, SETUP_SPAN, SPAN_NAMES, TOTAL_SPANS, Tracer  # noqa: E402

WORKLOADS = ("dense-256", "fading-64", "population-1e5", "campaign-service")
REPEATS = 3
#: Set-up-only workers after the repeats of a ``--trace 0`` run: set-up
#: time is short and jittery, so its median is taken over more samples.
SETUP_PROBES = 2
#: Wall-clock cap of one run; a run must end within 180 s.
TIME_LIMIT_S = 170.0
WORK_DIR = ROOT / ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "device_rounds_per_s": "1/s",
    "unit_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Workload outputs (counts the program reports) shown as per-layer metrics.
OUTPUT_LAYERS = {
    "groups": ("protocol.groups", "count"),
    "mc_groups": ("protocol.mc_groups", "count"),
    "mc_devices": ("protocol.mc_devices", "count"),
    "audit_max_gap": ("protocol.audit_max_gap", "ratio"),
    "cache_hit_ratio": ("campaign.cache_hit_ratio", "ratio"),
    "client_retries": ("campaign.client_retries", "count"),
    "deduped": ("campaign.deduped", "count"),
    "bytes_read": ("campaign.bytes_read", "B"),
    "bytes_written": ("campaign.bytes_written", "B"),
}

#: Decodes counted by backend: ``NetworkMetrics.backend`` of a batch, or
#: the provenance of a campaign point.
BACKENDS = ("fft", "analytic", "sparse")

#: Latency quantiles of the campaign's request kinds, from plain units.
KIND_LATENCIES = {
    f"campaign.submit_{kind}_p{q}_ms": (kind, q / 100)
    for kind in ("warm", "cold") for q in (50, 90)
}


def _per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in TOTAL_SPANS:
            units[f"{name}.total_s"] = "s"
        if name in ELEM_SPANS:
            units[f"{name}.elems"] = "count"
    units.update({f"phy.backend.{name}": "count" for name in BACKENDS})
    units.update(dict(OUTPUT_LAYERS.values()))
    units.update({name: "ms" for name in KIND_LATENCIES})
    units.update(
        {
            "protocol.closed_form_share": "%",
            "protocol.monte_carlo_share": "%",
            "trace.coverage_pct": "%",
            "trace.overhead_pct": "%",
        }
    )
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------- #
# one repeat (runs in the worker process)
# ---------------------------------------------------------------------- #


def run_repeat(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    tiny: bool = False,
    workdir: Path = WORK_DIR,
    spans_path: Optional[Path] = None,
    repeat: int = 0,
    setup_only: bool = False,
) -> dict:
    """Set up, run and check one repeat; returns its JSON-ready record.

    ``setup_s`` runs from before the program is imported to the end of
    the workload's set-up (planner calibration plus deployment,
    population or service build). With ``setup_only`` the repeat stops
    there and its record holds only ``setup_s``. A traced repeat appends
    its spans to ``spans_path`` when given.
    """
    start = time.perf_counter()
    from bench import workloads  # numpy and the program load here

    _check_program_root()
    workload = workloads.build(workload_name, tiny)
    tracer = Tracer() if traced else None
    workdir.mkdir(parents=True, exist_ok=True)
    with tracer.installed() if tracer else contextlib.nullcontext():
        with tracer.span(SETUP_SPAN) if tracer else contextlib.nullcontext():
            state = workload.setup(seed, workdir)
    setup_s = time.perf_counter() - start
    try:
        if setup_only:
            return {"setup_s": setup_s}
        run_start = time.perf_counter()
        units = workloads.run_units(
            workload, state, workloads.units_for(workload, seconds), tracer
        )
        run_s = time.perf_counter() - run_start
        outputs = workload.outputs(state, units)
    finally:
        workload.close(state)
    checks = workload.check(outputs)
    plain = [u.result for u in units if u.error is None and u.replay == 0]
    record = {
        "workload": workload_name,
        "traced": traced,
        "setup_s": setup_s,
        "run_s": run_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": [
            {"index": u.index, "replay": u.replay, "traced": u.traced,
             "latency_s": u.latency_s, "work": u.work, "requests": u.requests,
             "error": u.error, "result": u.result}
            for u in units
        ],
        "outputs": outputs,
        "output_se": workload.standard_errors(units),
        "streams": sorted({r["stream"] for r in plain}),
        "digest": workloads.digest(plain),
        "checks": len(checks),
        "problems": [message for message in checks.values() if message],
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, outputs, record["units"])
        record["spans"] = tracer.layer_stats()
        if spans_path is not None:
            tracer.dump(spans_path, workload=workload_name, seed=seed, repeat=repeat)
    return record


def _check_program_root() -> None:
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"repro was imported from {repro.__file__}, not from {src}")


def layer_metrics(tracer: Tracer, outputs: dict, units: List[dict]) -> dict:
    """The per-layer metrics of one traced repeat: its spans, its traced
    units' backends and its outputs."""
    stats = tracer.layer_stats()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "elems": 0}
    metrics = {}
    for name in SPAN_NAMES:
        entry = stats.get(name, zero)
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        if name in TOTAL_SPANS:
            metrics[f"{name}.total_s"] = entry["total_s"]
        if name in ELEM_SPANS:
            metrics[f"{name}.elems"] = entry["elems"]
    for backend in BACKENDS:
        metrics[f"phy.backend.{backend}"] = sum(
            u["result"].get("backends", {}).get(backend, 0)
            for u in units if u["traced"] and u["error"] is None
        )
    for key, (name, _) in OUTPUT_LAYERS.items():
        metrics[name] = outputs.get(key, 0)
    # Shares of the hybrid cycle; their base is protocol.hybrid_round.total_s.
    hybrid_s = stats.get("protocol.hybrid_round", zero)["total_s"]
    legs = {
        "protocol.closed_form_share": ["core.closed_form"],
        "protocol.monte_carlo_share": [
            "channel.from_snrs", "protocol.sim_init", "protocol.run_rounds"
        ],
    }
    for name, spans in legs.items():
        inside = tracer.time_under(spans, "protocol.hybrid_round")
        metrics[name] = 100.0 * inside / hybrid_s if hybrid_s else 0.0
    coverage = tracer.unit_coverage()
    metrics["trace.coverage_pct"] = 100.0 * min(coverage) if coverage else 0.0
    return metrics


# ---------------------------------------------------------------------- #
# aggregation over repeats
# ---------------------------------------------------------------------- #


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 <= q <= 1); 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ok_units(record: dict) -> List[dict]:
    return [u for u in record["units"] if u["error"] is None]


def throughput(record: dict) -> float:
    """Device-rounds of a repeat's completed units per second of its run."""
    return sum(u["work"] for u in _ok_units(record)) / record["run_s"]


def end_to_end(records: List[dict], setups: List[float] = ()) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric over untraced repeats.

    Throughput and memory have one sample per repeat, set-up time one
    per repeat and per set-up-only worker (``setups``); the unit latency
    pools every unit of every repeat.
    """
    return {
        "setup_s": [r["setup_s"] for r in records] + list(setups),
        "device_rounds_per_s": [throughput(r) for r in records],
        "unit_p50_ms": [1e3 * u["latency_s"] for r in records for u in _ok_units(r)],
        "peak_rss_mb": [r["rss_mb"] for r in records],
    }


def kind_latencies(records: List[dict]) -> Dict[str, List[float]]:
    """Request latencies in ms by kind (the campaign's cold and warm
    submits), from the plain units."""
    kinds: Dict[str, List[float]] = {}
    for record in records:
        for unit in _ok_units(record):
            if not unit["traced"]:
                for kind, latencies in unit["requests"].items():
                    kinds.setdefault(kind, []).extend(1e3 * s for s in latencies)
    return kinds


def determinism_problems(records: List[dict]) -> List[str]:
    """Units of one index must give identical results in every repeat.

    Results are compared only between units of one random stream: the
    planner reads host timings, and the backends it picks draw their
    noise in differently sized chunks.
    """
    first: Dict[tuple, dict] = {}
    problems = []
    for record in records:
        for unit in _ok_units(record):
            key = (unit["index"], unit["replay"], unit["result"]["stream"])
            expected = first.setdefault(key, unit["result"])
            if unit["result"] != expected:
                problems.append(
                    f"unit {unit['index']} gave {unit['result']} and {expected} "
                    "in two repeats"
                )
    return problems


def tracing_overhead(records: List[dict]) -> float:
    """Median over unit pairs of traced over plain latency, less one, in %."""
    ratios = []
    for record in records:
        pairs: Dict[int, Dict[bool, float]] = {}
        for unit in _ok_units(record):
            pairs.setdefault(unit["index"], {})[unit["traced"]] = unit["latency_s"]
        ratios += [p[True] / p[False] for p in pairs.values() if len(p) == 2]
    return 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0


def per_layer_samples(records: List[dict]) -> Dict[str, List[float]]:
    """Samples of every per-layer metric: one per traced repeat for the
    spans, pooled over repeats for request latencies and the overhead."""
    samples = {
        name: [r["layers"][name] for r in records]
        for name in PER_LAYER if name not in KIND_LATENCIES and name != "trace.overhead_pct"
    }
    kinds = kind_latencies(records)
    for name, (kind, q) in KIND_LATENCIES.items():
        samples[name] = [percentile(kinds.get(kind, []), q)]
    samples["trace.overhead_pct"] = [tracing_overhead(records)]
    return samples


def summarize(records: List[dict], setups: List[float] = ()) -> tuple:
    """``(result, detail)``: the result line of one run and its detail line."""
    errors = [u["error"] for r in records for u in r["units"] if u["error"]]
    problems = [p for r in records for p in r["problems"]]
    mismatches = determinism_problems(records)
    # Every unit, every output check and the determinism check.
    attempted = sum(len(r["units"]) + r["checks"] for r in records) + 1
    failed = len(errors) + len(problems) + (1 if mismatches else 0)

    if records[0]["traced"]:
        names = PER_LAYER
        samples = per_layer_samples(records)
    else:
        names = END_TO_END
        samples = end_to_end(records, setups)
    values = {name: statistics.median(samples[name]) for name in names}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in names.items()
        },
    }
    detail = {
        "workload": records[0]["workload"],
        "repeats": len(records),
        "units_per_repeat": len(records[0]["units"]),
        "metrics": {
            name: {
                "median": values[name],
                "min": min(samples[name]),
                "max": max(samples[name]),
                "n": len(samples[name]),
            }
            for name in names
        },
        "outputs": {
            key: statistics.median(r["outputs"][key] for r in records)
            for key in records[0]["outputs"]
        },
        "output_se": {
            key: statistics.median(r["output_se"][key] for r in records)
            for key in records[0]["output_se"]
        },
        "streams": sorted({s for r in records for s in r["streams"]}),
        "digest": records[0]["digest"],
        "kinds": {
            kind: {"p50_ms": percentile(v, 0.5), "p90_ms": percentile(v, 0.9), "n": len(v)}
            for kind, v in sorted(kind_latencies(records).items())
        },
        "errors": errors[:5],
        "problems": problems + mismatches[:5],
    }
    return result, detail


def layers_summary(traced: List[dict]) -> dict:
    """Per-span medians over traced repeats, for ``layers.json``."""
    names = sorted({name for r in traced for name in r["spans"]})
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "elems": 0}
    return {
        name: {
            field: statistics.median(r["spans"].get(name, zero)[field] for r in traced)
            for field in zero
        }
        for name in names
    }


# ---------------------------------------------------------------------- #
# orchestration
# ---------------------------------------------------------------------- #


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_FAULT_PLAN", "REPRO_CAMPAIGN_EXEC_LOG"):
        env.pop(name, None)  # ambient fault injection must not leak in
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_BACKEND_CALIBRATION="",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def _spawn(args, repeat: int, deadline: float, traced=False, setup_only=False) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds / REPEATS),
        "--trace", "1" if traced else "0",
        "--repeat", str(repeat),
    ]
    if args.tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    if args.trace_dir is not None:
        command += ["--trace-dir", str(args.trace_dir)]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"bench: worker for {args.workload} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def orchestrate(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: {ROOT} has no src/repro to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    # A terminated run raises here, so subprocess.run kills the worker
    # and waits for it instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.trace_dir is not None:
        args.trace_dir = args.trace_dir.resolve()
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        (args.trace_dir / "spans.jsonl").write_text("")
    try:
        records = [
            _spawn(args, repeat, deadline, traced=bool(args.trace))
            for repeat in range(REPEATS)
        ]
        setups = [] if args.trace else [
            _spawn(args, REPEATS + probe, deadline, setup_only=True)["setup_s"]
            for probe in range(SETUP_PROBES)
        ]
    except subprocess.TimeoutExpired:
        print(f"bench: run exceeded {TIME_LIMIT_S:g} s", file=sys.stderr)
        return 1
    finally:
        # A killed worker leaves its campaign store behind.
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    result, detail = summarize(records, setups)
    detail["seed"] = args.seed
    if args.trace and args.trace_dir is not None:
        layers = {
            "workload": args.workload,
            "seed": args.seed,
            "metrics": {name: m["median"] for name, m in detail["metrics"].items()},
            "spans": layers_summary(records),
        }
        (args.trace_dir / "layers.json").write_text(json.dumps(layers, indent=2) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def worker(args) -> int:
    spans_path = None if args.trace_dir is None else args.trace_dir / "spans.jsonl"
    record = run_repeat(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny,
        spans_path=spans_path, repeat=args.repeat, setup_only=args.setup_only,
    )
    print(json.dumps(record))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=None)
    # Internal: one repeat in this process (what the runner spawns), or
    # only its set-up, and shrunken units for the test suite.
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeat", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return worker(args) if args.worker else orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
