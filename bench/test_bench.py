"""Fast checks of the benchmark itself (no timing assertions).

Every workload runs at a tiny size, traced, in this process; the runner
runs once end to end at a tiny size; the verdict rules and output
checks of ``compare.py`` run on synthetic numbers.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bench import compare, run
from bench.trace import SPAN_NAMES, TARGETS, UNIT_SPAN, Target, Tracer, binding

ROOT = Path(__file__).resolve().parent.parent

#: Wrappers every decode path fires: planner calibration in set-up, one
#: simulator per batch or Monte-Carlo leg, its noise draws and decisions.
DECODE = {
    "phy.calibrate", "phy.noise_draw", "phy.noise_floor", "core.decode_readout",
    "core.allocation", "protocol.sim_init", "protocol.run_rounds",
}
#: Wrappers each workload must fire; every other wrapper must stay at 0
#: calls on it (the workload bypasses that code).
FIRES = {
    "dense-256": DECODE | {
        "phy.planner_select", "phy.fft_readout", "core.compose_rounds",
        "channel.paper_deployment",
    },
    "fading-64": DECODE | {
        "phy.planner_select", "core.compose_readout", "channel.step_tracks",
        "channel.paper_deployment",
    },
    "population-1e5": DECODE | {
        "core.compose_readout", "core.closed_form", "core.ncx2_cdf",
        "channel.from_snrs", "protocol.office_population",
        "protocol.assign_cluster", "protocol.split_fidelity", "protocol.hybrid_round",
    },
    # The campaign's specs pin the analytic engine: the planner is not asked.
    "campaign-service": DECODE | {
        "core.compose_readout", "channel.paper_deployment",
        "campaign.service_submit", "campaign.runner_run", "campaign.execute_point",
        "campaign.store_save", "campaign.store_load", "campaign.store_has",
        "campaign.lease_acquire", "campaign.lease_release", "campaign.posix.get",
        "campaign.posix.put_atomic", "campaign.posix.put_exclusive",
        "campaign.posix.delete", "campaign.posix.exists",
    },
}


@pytest.fixture
def pinned_planner(monkeypatch):
    """Calibrate to fixed coefficients, in memory; restore the planner after.

    The coefficients are a typical calibration of the reference host, so
    the planner picks the same backends here on any host and under any
    load: the FFT for ``dense-256``, the analytic kernel elsewhere.
    """
    from repro.phy import backend_plan

    coefficients = backend_plan.CalibrationCoefficients(
        real_mac_s=6.2e-11, cplx_mac_s=2.3e-10, fft_elem_s=1.3e-9,
        exp_elem_s=4.4e-8, ew_pass_s=2.5e-9, gauss_elem_s=4.2e-8,
    )
    monkeypatch.setenv("REPRO_BACKEND_CALIBRATION", "")
    monkeypatch.setattr(backend_plan, "_HOST_PLANNER", backend_plan._HOST_PLANNER)
    monkeypatch.setattr(backend_plan, "calibrate", lambda rng=None: coefficients)


def test_benchmark_json_matches_the_runner():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert definition["command"] == ["python3", "bench/run.py"]
    assert definition["paths"] == ["bench"]
    assert [w["name"] for w in definition["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in definition["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in definition["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _bound_functions() -> dict:
    return {
        (target.module, target.attr): holder.__dict__[name]
        for target in TARGETS
        for holder, name in [binding(target)]
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_workload(workload, tmp_path, pinned_planner):
    before = _bound_functions()
    record = run.run_repeat(workload, seed=3, seconds=0.05, traced=True, tiny=True,
                            workdir=tmp_path)
    assert _bound_functions() == before  # every wrapper is removed
    assert [u["error"] for u in record["units"] if u["error"]] == []
    assert record["problems"] == []
    calls = {name: record["layers"][f"{name}.calls"] for name in SPAN_NAMES}
    assert {name for name, n in calls.items() if n == 0} == set(SPAN_NAMES) - FIRES[workload]
    assert list(tmp_path.iterdir()) == []  # the campaign store is removed
    # Every unit ran twice, once plain and once traced, with equal results
    # where the replay decodes the same inputs.
    assert sorted((u["index"], u["traced"]) for u in record["units"]) == [
        (i, traced) for i in range(len(record["units"]) // 2) for traced in (False, True)
    ]
    result, detail = run.summarize([record])
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.PER_LAYER
    assert len(detail["streams"]) == 1 and detail["digest"]
    assert set(detail["output_se"]) <= set(detail["outputs"])


def test_campaign_counts_repeat(tmp_path, pinned_planner):
    first, second = (
        run.run_repeat("campaign-service", seed=5, seconds=0.05, traced=False,
                       tiny=True, workdir=tmp_path)
        for _ in range(2)
    )
    # Per session, 9 points are requested and 3 computed.
    assert first["outputs"]["cache_hit_ratio"] == pytest.approx(2 / 3)
    for key in ("cache_hit_ratio", "client_retries"):
        assert first["outputs"][key] == second["outputs"][key]
    assert first["digest"] == second["digest"]
    assert run.determinism_problems([first, second]) == []
    kinds = run.kind_latencies([first])
    assert len(kinds["cold"]) == 2 * len(kinds["warm"]) == 2 * len(first["units"])


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_the_result_line(trace, tmp_path):
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-256", "--seed", "2",
         "--seconds", "0.1", "--trace", str(trace), "--trace-dir", str(tmp_path),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert units == run.PER_LAYER
        layers = json.loads((tmp_path / "layers.json").read_text())
        assert layers["spans"]["protocol.run_rounds"]["calls"] > 0
        assert (tmp_path / "spans.jsonl").read_text().count("\n") > 0
    else:
        assert units == run.END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_tracer_self_time_and_thread_roots():
    tracer = Tracer()
    inner = tracer.wrap(Target("inner", "", ""), lambda: [0] * 10)
    outer = tracer.wrap(Target("outer", "", ""), lambda: (inner(), inner()))
    with tracer.span(UNIT_SPAN, unit="0"):
        outer()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    stats = tracer.layer_stats()
    assert (stats["inner"]["calls"], stats["outer"]["calls"]) == (3, 1)
    [outer_span] = [s for s in tracer.spans if s[2] == "outer"]
    children = [s for s in tracer.spans if s[1] == outer_span[0]]
    assert [s[2] for s in children] == ["inner", "inner"]
    child_ns = sum(s[4] - s[3] for s in children)
    assert stats["outer"]["self_s"] == pytest.approx(
        (outer_span[4] - outer_span[3] - child_ns) / 1e9
    )
    [thread_span] = [s for s in tracer.spans if s[5] == worker.ident]
    assert thread_span[1] == 0 and thread_span[6] is None  # a root, no unit
    assert tracer.unit_coverage()[0] > 0


def test_from_import_of_a_wrapped_function_is_wrapped_once(tmp_path, monkeypatch):
    (tmp_path / "bench_probe_a.py").write_text("def f():\n    return 1\n")
    (tmp_path / "bench_probe_b.py").write_text(
        "from bench_probe_a import f\n\n\ndef g():\n    return f()\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("bench_probe_a", "bench_probe_b"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer = Tracer()
    targets = [Target("f", "bench_probe_a", "f"), Target("f", "bench_probe_b", "f")]
    with tracer.installed(targets):
        assert sys.modules["bench_probe_b"].g() == 1
    assert tracer.layer_stats()["f"]["calls"] == 1
    assert sys.modules["bench_probe_b"].f is sys.modules["bench_probe_a"].f
    for name in ("bench_probe_a", "bench_probe_b"):
        del sys.modules[name]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
#: Parent runs spread by host drift; paired change runs drift with them.
DRIFTING = [60.0, 140.0, 80.0, 120.0, 100.0, 90.0, 110.0, 70.0, 130.0, 100.0]


@pytest.mark.parametrize(
    "parent, change, better, bound, expected",
    [
        (PARENT, [v * 1.05 for v in PARENT], "higher", 0.1, compare.IMPROVED),
        (PARENT, [v * 0.95 for v in PARENT], "lower", 0.1, compare.IMPROVED),
        (PARENT, [v * 0.85 for v in PARENT], "higher", 0.1, compare.REGRESSED),
        (PARENT, [v * 1.15 for v in PARENT], "lower", 0.1, compare.REGRESSED),
        (PARENT, PARENT[1:] + PARENT[:1], "higher", 0.1, compare.WITHIN),
        (PARENT, [v * 0.97 for v in PARENT], "higher", 0.1, compare.WITHIN),
        # 8 of 10 pairs won: a large gain still does not count.
        (PARENT, [v * 1.05 for v in PARENT[:8]] + PARENT[8:], "higher", 0.1, compare.WITHIN),
        # A wide bound is capped at the paired tolerance.
        (PARENT, [v * 0.85 for v in PARENT], "higher", 0.25, compare.REGRESSED),
        # Drift shared by both runs of a pair cancels in their ratio.
        (DRIFTING, [v * 0.97 for v in DRIFTING], "higher", 0.25, compare.WITHIN),
        (DRIFTING, [v * 0.8 for v in DRIFTING], "higher", 0.25, compare.REGRESSED),
        # Pairs that disagree with each other resolve nothing.
        (DRIFTING, DRIFTING[::-1], "higher", 0.1, compare.UNRESOLVED),
        (DRIFTING, [150.0 + i for i in range(10)], "higher", 0.1, compare.IMPROVED),
        (DRIFTING, [150.0 + i for i in range(10)], "lower", 0.1, compare.REGRESSED),
    ],
)
def test_verdict_rules(parent, change, better, bound, expected):
    assert compare.verdict(parent, change, better, bound) == expected


def _write_run(path, seed, value, failed, digest="d0", streams=("fft/noise-v2",),
               delivery=0.9, se=0.01):
    detail = {"workload": "dense-256", "seed": seed, "outputs": {"delivery_ratio": delivery},
              "output_se": {"delivery_ratio": se}, "streams": list(streams), "digest": digest}
    result = {"correct": not failed, "attempted": 10, "failed": failed,
              "metrics": {"device_rounds_per_s": {"value": value, "unit": "1/s"}}}
    path.write_text(json.dumps(detail) + "\n" + json.dumps(result) + "\n")
    return path


def test_more_failures_claim_no_gain(tmp_path):
    definition = {"end_to_end": [
        {"name": "device_rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
    ]}
    parent = [_write_run(tmp_path / f"p{s}", s, v, 0) for s, v in enumerate(PARENT)]
    faster = [_write_run(tmp_path / f"c{s}", s, v * 1.2, 0) for s, v in enumerate(PARENT)]
    [row], problems = compare.compare(parent, faster, definition)
    assert problems == []
    assert row["verdict"] == compare.IMPROVED and row["wins"] == row["pairs"] == 10
    failing = [_write_run(tmp_path / f"f{s}", s, v * 1.2, 1) for s, v in enumerate(PARENT)]
    [row], _ = compare.compare(parent, failing, definition)
    assert row["verdict"] == compare.WITHIN
    # Other outputs at one seed on the same stream are failures too.
    changed = [_write_run(tmp_path / f"o{s}", s, v * 1.2, 0, digest="d1" if s == 3 else "d0")
               for s, v in enumerate(PARENT)]
    [row], problems = compare.compare(parent, changed, definition)
    assert [seed for _, seed, _ in problems] == [3]
    assert row["verdict"] == compare.WITHIN


@pytest.mark.parametrize(
    "change, problem",
    [
        ({}, False),
        ({"digest": "d1"}, True),
        # Another stream: outputs must agree within the standard-error band.
        ({"digest": "d1", "streams": ["sparse/noise-v2"], "delivery": 0.95}, False),
        ({"digest": "d1", "streams": ["sparse/noise-v2"], "delivery": 0.97}, True),
    ],
)
def test_outputs_are_checked_against_the_parent_at_one_seed(tmp_path, change, problem):
    parent = compare.load_run(_write_run(tmp_path / "p", 1, 1.0, 0))
    changed = compare.load_run(_write_run(tmp_path / "c", 1, 1.0, 0, **change))
    assert (compare.output_problem(parent, changed) is not None) == problem


def test_tracing_overhead_pairs_units_of_one_index():
    def unit(index, traced, latency_s):
        return {"index": index, "traced": traced, "latency_s": latency_s, "error": None}

    record = {"units": [unit(0, True, 1.03), unit(0, False, 1.0),
                        unit(1, False, 2.0), unit(1, True, 2.1), unit(2, True, 3.0)]}
    assert run.tracing_overhead([record]) == pytest.approx(4.0)
