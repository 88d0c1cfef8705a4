"""Compare two commits' benchmark results, per workload and end-to-end metric.

    python3 bench/compare.py --parent p/*.txt --change c/*.txt

Each file holds the standard output of one ``bench/run.py --trace 0``
run. Runs are grouped by workload and paired by seed (parent seed ``s``
with change seed ``s``); a pair's two runs should have run back to back,
so that host drift cancels in their ratio.

Outputs first. At one seed both commits get the same inputs. Where the
two runs drew from the same single random stream (one backend, one
noise layout), their unit results must be identical, digest for
digest. Otherwise each checked output must agree within
``SE_BAND`` combined Monte-Carlo standard errors. A miss counts as a
failed operation of the change.

Then, for every workload × metric, the table gives each side's median
and quartiles, the pairs the change won, and a verdict. ``gain`` is a
pair's change/parent ratio less one, signed so that positive is better,
and the tolerance is the metric's bound in ``BENCHMARK.json`` capped at
``TOLERANCE``:

* ``improved`` — the change is better in at least 9/10 of the pairs
  (ties count for neither side) and the medians differ by more than the
  parent's interquartile spread (the choosing-metrics guide's rule);
* ``regressed`` — the median gain is a loss larger than the tolerance;
* ``unresolved`` — the gains' interquartile spread is wider than the
  tolerance, and not every change run is better than every parent run;
* ``within bound`` — otherwise.

A change with more failed operations than the parent claims no gain:
its ``improved`` verdicts read ``within bound``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

IMPROVED = "improved"
WITHIN = "within bound"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"

#: Largest paired change a verdict tolerates. The bounds in
#: ``BENCHMARK.json`` must cover the spread of unpaired runs made minutes
#: apart; paired runs cancel most of that drift, so they are held to this.
TOLERANCE = 0.10
#: Width of the output band where the random streams differ, in combined
#: standard errors: a false alarm about once in 16,000 outputs.
SE_BAND = 4.0


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pair_wins(parent: List[float], change: List[float], better: str) -> int:
    """Pairs ``(parent[i], change[i])`` in which the change reads better."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """Verdict for one metric; ``parent[i]`` and ``change[i]`` form pair ``i``."""
    sign = 1.0 if better == "higher" else -1.0
    tolerance = min(bound, TOLERANCE)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    n_pairs = min(len(parent), len(change))
    if (
        n_pairs
        and pair_wins(parent, change, better) >= 0.9 * n_pairs
        and sign * (c_median - p_median) > p_q3 - p_q1
    ):
        return IMPROVED
    gains = [sign * (c / p - 1.0) for p, c in zip(parent, change)]
    g_q1, g_median, g_q3 = quartiles(gains)
    if -g_median > tolerance:
        return REGRESSED
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if g_q3 - g_q1 > tolerance and not all_better:
        return UNRESOLVED
    return WITHIN


def output_problem(parent: dict, change: dict) -> Optional[str]:
    """Why the change's outputs at one seed disagree with the parent's, if
    they do; ``parent`` and ``change`` are :func:`load_run` results."""
    if len(parent["streams"]) == 1 and parent["streams"] == change["streams"]:
        if parent["digest"] != change["digest"]:
            return f"unit results differ on stream {parent['streams'][0]}"
        return None
    for key, p_se in parent["output_se"].items():
        p_value, c_value = parent["outputs"][key], change["outputs"][key]
        allowed = SE_BAND * math.hypot(p_se, change["output_se"][key])
        if abs(c_value - p_value) > allowed:
            return f"{key} {c_value:.6g} vs parent {p_value:.6g}, beyond ±{allowed:.3g}"
    return None


def load_run(path: Path) -> dict:
    """Workload, seed, outputs, metric values and failures of one ``run.py`` output."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "workload": detail["workload"],
        "seed": detail["seed"],
        "failed": result["failed"],
        "values": {name: m["value"] for name, m in result["metrics"].items()},
        **{key: detail[key] for key in ("outputs", "output_se", "streams", "digest")},
    }


def _by_workload(paths: List[Path]) -> Dict[str, Dict[int, dict]]:
    runs: Dict[str, Dict[int, dict]] = {}
    for path in paths:
        run = load_run(path)
        runs.setdefault(run["workload"], {})[run["seed"]] = run
    return runs


def compare(parent_paths: List[Path], change_paths: List[Path], definition: dict) -> tuple:
    """``(rows, output_problems)``: one row per workload × end-to-end
    metric over seeds run on both sides, and every output disagreement."""
    parent, change = _by_workload(parent_paths), _by_workload(change_paths)
    rows, problems = [], []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds]
        misses = [
            (workload, seed, problem)
            for seed, p, c in zip(seeds, p_runs, c_runs)
            for problem in [output_problem(p, c)] if problem
        ]
        problems += misses
        c_failed = sum(r["failed"] for r in c_runs) + len(misses)
        more_failures = c_failed > sum(r["failed"] for r in p_runs)
        for metric in definition["end_to_end"]:
            name = metric["name"]
            p_values = [r["values"][name] for r in p_runs]
            c_values = [r["values"][name] for r in c_runs]
            outcome = verdict(p_values, c_values, metric["better"], metric["bound"])
            if more_failures and outcome == IMPROVED:
                outcome = WITHIN
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "parent": quartiles(p_values),
                    "change": quartiles(c_values),
                    "wins": pair_wins(p_values, c_values, metric["better"]),
                    "pairs": len(seeds),
                    "verdict": outcome,
                }
            )
    return rows, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    definition = json.loads(args.benchmark.read_text())
    rows, problems = compare(args.parent, args.change, definition)
    for workload, seed, problem in problems:
        print(f"output mismatch: {workload} seed {seed}: {problem}")
    print(f"{'workload':18} {'metric':20} {'parent q1/med/q3':>35} "
          f"{'change q1/med/q3':>35} {'wins':>7}  verdict")
    for row in rows:
        p = "/".join(f"{v:.4g}" for v in row["parent"])
        c = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['workload']:18} {row['metric']:20} {p:>30} {row['unit']:>4} "
              f"{c:>30} {row['unit']:>4} {row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    return 1 if problems or any(row["verdict"] == REGRESSED for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
