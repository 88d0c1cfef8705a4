"""Docs-consistency gate: the documentation suite cannot silently rot.

Three classes of drift this catches in tier-1:

* the documented hot-path modules must keep runnable doctest examples
  (and stay registered with the ``tests/test_doctests.py`` collector);
* the docs pages and the README must exist and keep naming the
  load-bearing anchors they document (env vars, schema names, modes,
  measured crossovers) — if a rename lands without a docs update, this
  fails;
* the benchmark trail must stay whole: every workload ``BENCHMARK.json``
  declares keeps a CI job that runs it, and the frozen history of the
  retired single-shot harness (``docs/PERFORMANCE.md`` §4) keeps the
  ratios that harness recorded, and no CI job or doc runs the retired
  pytest-benchmark tree.
"""

import doctest
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The hot-path modules the docs suite documents with runnable
#: examples; each must be registered with the doctest collector.
DOCUMENTED_MODULES = [
    "repro.phy.sparse_readout",
    "repro.phy.backend_plan",
    "repro.phy.noise",
    "repro.campaign.spec",
    "repro.campaign.store",
    "repro.campaign.runner",
    "repro.campaign.storage",
    "repro.campaign.objectstore",
    "repro.campaign.service",
    "repro.campaign.client",
    "repro.core.allocation",
    "repro.core.capacity",
    "repro.protocol.population",
]

#: Load-bearing anchors per documentation file: strings that must keep
#: appearing as long as the thing they document exists.
DOC_ANCHORS = {
    "docs/PERFORMANCE.md": [
        "REPRO_BACKEND_CALIBRATION",
        "gauss_elem_s",
        "noise_mode",
        "145 devices",  # measured analytic->FFT crossover, SF 9
        "S·N·D·W",      # the sparse backend's scaling law
        "Benchmark history (frozen)",
        "fig17_point256",
        "bench/README.md",
    ],
    "docs/ARCHITECTURE.md": [
        "compose_rounds",
        "compose_readout",
        "decode_readout",
        "_decide_chunk",
        "_decode_spans",
        "NoiseStream",
        "noise_mode=\"payload\"",
        "step_tracks",
        "located_bin_noise_covariance",
        "CampaignSpec",
        "content_hash",
        "resolve_pool_workers",
        "child_seed",
        "python -m repro.campaign",
        "tests/chaos.py",
        "WrappingDriver",
        "execute_point",
        "tests/test_campaign_chaos.py",
        "RetryPolicy",
        "quarantine",
        "leases/<hash>.lease",
        "StorageDriver",
        "put_atomic",
        "put_exclusive",
        "PersistentStorageError",
        "read-only serving",
        "python -m repro.campaign serve",
        "http://host:port/bucket",
        "X-Repro-Sha256",
        "If-None-Match: *",
        "CircuitOpenError",
        "half-open",
        "serve-api",
        "POST /campaigns",
        "/healthz",
        "campaign_id_for",
        "CampaignServiceClient",
        "MAX_BACKLOG",
        "points_computed == 0",
    ],
    "docs/SCALING.md": [
        "Population",
        "ObjectAllocationTable",
        "bulk_add",
        "spread_slot_indices",
        "span_group_bounds",
        "FidelityRule",
        "closed_form_min_snr_db",
        "validity_floor",
        "contended",
        "audit_fraction",
        "hybrid_population_round",
        "office_population",
        "population_scale",
        "scale-smoke",
        "--devices 100000",
        "tests/test_population_scale.py",
    ],
    "README.md": [
        "docs/PERFORMANCE.md",
        "docs/ARCHITECTURE.md",
        "noise_mode",
        "bench/run.py",
        "python -m repro.campaign",
        ".github/workflows/ci.yml",
        "tests/chaos.py",
        "timeout-minutes",
        "--storage-driver",
        "repro.campaign serve",
        "http://hostA:8123/campaign",
        "tests/test_campaign_chaos.py",
        "serve-api",
        "--service http://hostA:8124",
        "/healthz",
        "docs/SCALING.md",
        "--devices 100000",
        "hybrid fidelity",
    ],
}


#: The ratios runs 0-5 of the retired single-shot harness recorded, per
#: history-table column (``None`` where a run did not measure it). The
#: table in ``docs/PERFORMANCE.md`` §4 is their only copy now.
FROZEN_HISTORY = {
    "fig12": (8.93, 9.34, 9.77, 10.50, 10.57, 8.29),
    "fig17_sweep": (None, None, 2.79, 3.73, 3.74, 4.22),
    "fig17_point256": (None, None, 1.56, 1.80, 1.83, 1.91),
    "fading": (None, None, 1.77, 2.46, 2.42, 2.18),
    "noise_modes": (None, None, None, 1.34, 1.42, 1.25),
    "campaign": (None, None, None, None, 117.8, 45.85),
}

BENCHMARK_WORKLOADS = [
    w["name"]
    for w in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())[
        "workloads"
    ]
]


#: The docs a reader follows to run the project.
USER_DOCS = ["README.md", "bench/README.md"] + sorted(
    str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "docs").glob("*.md")
)

#: ``benchmarks/`` as a path of its own (not ``.benchmarks/``).
RETIRED_TREE = re.compile(r"(?<![\w./])benchmarks/")


def _history_table():
    """Parse the frozen history table into ``{column: [cell, ...]}``."""
    text = (REPO_ROOT / "docs/PERFORMANCE.md").read_text()
    section = text.split("## 4. Benchmark history (frozen)", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|\n").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and "---" not in line
    ]
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


class TestCiPipeline:
    """The CI workflow exists and keeps its load-bearing pieces."""

    def test_workflow_exists_with_required_jobs(self):
        path = REPO_ROOT / ".github" / "workflows" / "ci.yml"
        assert path.exists(), "CI workflow is missing"
        text = path.read_text()
        for anchor in (
            "ruff check",
            "bench-smoke",
            "bench/run.py --workload dense-256",
            "bench/run.py --workload campaign-service",
            "tests/test_campaign_chaos.py",
            "scale-smoke",
            "test_population_scale.py",
            "pooled-paths",
            "os.sched_getaffinity(0)",
            "-k pool",
        ):
            assert anchor in text, f"ci.yml lost {anchor!r}"

    def test_no_job_installs_pytest_benchmark(self):
        # bench/ is the one timing harness; tier-1 holds plain checks.
        text = (
            REPO_ROOT / ".github" / "workflows" / "ci.yml"
        ).read_text()
        assert "pytest-benchmark" not in text

    @pytest.mark.parametrize("relpath", USER_DOCS)
    def test_no_doc_runs_the_retired_benchmarks_tree(self, relpath):
        # The pytest-benchmark tree ``benchmarks/`` is gone; a doc may
        # still name its retired files as history, never run them.
        lines = (REPO_ROOT / relpath).read_text().splitlines()
        runs = [
            line for line in lines
            if RETIRED_TREE.search(line)
            and re.search(r"\bpy(test|thon)\b", line)
        ]
        assert not runs, f"{relpath} tells readers to run benchmarks/: {runs}"

    def test_every_job_is_time_bounded(self):
        # A hung job must never burn a runner's 6-hour default: each
        # job carries an explicit timeout-minutes bound.
        text = (
            REPO_ROOT / ".github" / "workflows" / "ci.yml"
        ).read_text()
        n_jobs = text.count("runs-on:")
        assert n_jobs >= 4
        assert text.count("timeout-minutes:") == n_jobs

    @pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
    def test_every_benchmark_workload_runs_in_ci(self, workload):
        # The retired perf-smoke job is replaced by short bench/run.py
        # runs; each declared workload must keep one CI job running it.
        text = (
            REPO_ROOT / ".github" / "workflows" / "ci.yml"
        ).read_text()
        assert f"bench/run.py --workload {workload} " in text, (
            f"no CI job runs the {workload} benchmark"
        )

    def test_ruff_config_present(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.ruff" in text


class TestDoctestCoverage:
    @pytest.mark.parametrize("name", DOCUMENTED_MODULES)
    def test_documented_modules_have_doctests(self, name):
        module = __import__(name, fromlist=["_"])
        examples = [
            test
            for test in doctest.DocTestFinder().find(module)
            if test.examples
        ]
        assert examples, f"{name} documents no runnable examples"

    @pytest.mark.parametrize("name", DOCUMENTED_MODULES)
    def test_documented_modules_registered_with_collector(self, name):
        from test_doctests import MODULES_WITH_DOCTESTS

        assert name in [m.__name__ for m in MODULES_WITH_DOCTESTS], (
            f"{name} is documented but not run by test_doctests.py"
        )


class TestDocAnchors:
    @pytest.mark.parametrize("relpath", sorted(DOC_ANCHORS))
    def test_docs_exist_and_keep_their_anchors(self, relpath):
        path = REPO_ROOT / relpath
        assert path.exists(), f"{relpath} is missing"
        text = path.read_text()
        assert len(text) > 1500, f"{relpath} is a stub"
        missing = [a for a in DOC_ANCHORS[relpath] if a not in text]
        assert not missing, (
            f"{relpath} lost anchors {missing} — update the docs "
            "alongside the code"
        )

    def test_docs_cross_link_each_other(self):
        performance = (REPO_ROOT / "docs/PERFORMANCE.md").read_text()
        architecture = (REPO_ROOT / "docs/ARCHITECTURE.md").read_text()
        assert "ARCHITECTURE.md" in performance
        assert "PERFORMANCE.md" in architecture


class TestBenchHistory:
    """The frozen record of the retired harness in PERFORMANCE.md §4."""

    def test_rows_are_runs_0_to_5_in_time_order(self):
        table = _history_table()
        assert table["run"] == [str(i) for i in range(6)]
        # Run 0 was an imported v1 file without a timestamp.
        assert table["timestamp"][0] == "–"
        stamps = table["timestamp"][1:]
        assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)

    @pytest.mark.parametrize("column", sorted(FROZEN_HISTORY))
    def test_column_keeps_the_recorded_ratios(self, column):
        cells = _history_table()[column]
        recorded = [
            "–" if value is None else value
            for value in FROZEN_HISTORY[column]
        ]
        parsed = [cell if cell == "–" else float(cell) for cell in cells]
        assert parsed == recorded, (
            f"history column {column!r} drifted from the recorded runs"
        )
