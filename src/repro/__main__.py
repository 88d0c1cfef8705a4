"""Command-line experiment runner.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro run fig17            # regenerate one figure (full scale)
    python -m repro run fig12 --quick    # reduced-scale smoke run
    python -m repro all --quick          # smoke-run everything
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import (
    experiment_ids,
    run_experiment,
)


def _seed(text: str) -> int:
    """``--seed`` type: a non-negative integer (numpy's generators
    reject negative seeds)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NetScatter reproduction: regenerate paper figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=experiment_ids())
    run.add_argument(
        "--quick", action="store_true", help="reduced-scale run"
    )
    run.add_argument("--seed", type=_seed, default=0)

    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument(
        "--quick", action="store_true", help="reduced-scale runs"
    )
    everything.add_argument("--seed", type=_seed, default=0)
    return parser


def _run_one(experiment_id: str, quick: bool, seed: int) -> bool:
    started = time.time()
    result = run_experiment(experiment_id, quick=quick, seed=seed)
    elapsed = time.time() - started
    print(result.report(max_rows=30))
    print(f"[{experiment_id}] finished in {elapsed:.1f}s\n")
    return result.all_checks_pass()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    if args.command == "run":
        ok = _run_one(args.experiment, args.quick, args.seed)
        return 0 if ok else 1
    # command == "all"
    failures = []
    for experiment_id in experiment_ids():
        if not _run_one(experiment_id, args.quick, args.seed):
            failures.append(experiment_id)
    if failures:
        print(f"shape-check failures: {', '.join(failures)}")
        return 1
    print("all experiments passed their shape checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
