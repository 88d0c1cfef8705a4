"""Docs-consistency gate: the documentation suite cannot silently rot.

Three classes of drift this catches in tier-1:

* the documented hot-path modules must keep runnable doctest examples
  (and stay registered with the ``tests/test_doctests.py`` collector);
* the docs pages and the README must exist and keep naming the
  load-bearing anchors they document (env vars, schema names, modes,
  measured crossovers) — if a rename lands without a docs update, this
  fails;
* ``BENCH_fastpath.json`` must parse against the documented schema v2
  (via ``perf_smoke.validate_report``, the same validator the
  benchmark tool applies before every write) and carry the
  payload-noise trajectory entry.
"""

import doctest
import importlib.util
import json
import sys
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
    "repro.campaign.faults",
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
        "bench-fastpath-v2",
        "gauss_elem_s",
        "noise_mode",
        "145 devices",  # measured analytic->FFT crossover, SF 9
        "S·N·D·W",      # the sparse backend's scaling law
        "speedup_payload_vs_full",
        "perf_smoke.py --quick",
    ],
    "docs/ARCHITECTURE.md": [
        "compose_rounds",
        "compose_readout",
        "decode_readout",
        "_decide_chunk",
        "NoiseStream",
        "noise_mode=\"payload\"",
        "step_tracks",
        "located_bin_noise_covariance",
        "CampaignSpec",
        "content_hash",
        "resolve_pool_workers",
        "child_seed",
        "python -m repro.campaign",
        "REPRO_FAULT_PLAN",
        "RetryPolicy",
        "quarantine",
        "leases/<hash>.lease",
        "StorageDriver",
        "put_atomic",
        "put_exclusive",
        "REPRO_STORAGE_FAULT_PLAN",
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
        "max_backlog",
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
        "BENCH_fastpath.json",
        "python -m repro.campaign",
        ".github/workflows/ci.yml",
        "REPRO_FAULT_PLAN",
        "timeout-minutes",
        "--storage-driver",
        "REPRO_STORAGE_FAULT_PLAN",
        "repro.campaign serve",
        "http://hostA:8123/campaign",
        "network-chaos",
        "serve-api",
        "--service http://hostA:8124",
        "/healthz",
        "service-chaos",
        "docs/SCALING.md",
        "--devices 100000",
        "hybrid fidelity",
    ],
}


class TestCiPipeline:
    """The CI workflow exists and keeps its load-bearing pieces."""

    def test_workflow_exists_with_required_jobs(self):
        path = REPO_ROOT / ".github" / "workflows" / "ci.yml"
        assert path.exists(), "CI workflow is missing"
        text = path.read_text()
        for anchor in (
            "REPRO_SKIP_PERF_GUARD",
            "ruff check",
            "perf_smoke.py --quick",
            "REPRO_BACKEND_CALIBRATION",
            "validate_report",
            "REPRO_FAULT_PLAN",
            "fault-injection",
            "storage-fault",
            "--storage-fault-plan",
            "status --json",
            "network-chaos",
            "repro.campaign serve",
            "--storage-driver http://",
            "service-chaos",
            "serve-api",
            "--service-fault-plan",
            "submit --service",
            "scale-smoke",
            "test_population_scale.py",
            "pooled-paths",
            "os.sched_getaffinity(0)",
            "-k pool",
        ):
            assert anchor in text, f"ci.yml lost {anchor!r}"

    def test_every_job_is_time_bounded(self):
        # A hung job must never burn a runner's 6-hour default: each
        # job carries an explicit timeout-minutes bound.
        text = (
            REPO_ROOT / ".github" / "workflows" / "ci.yml"
        ).read_text()
        n_jobs = text.count("runs-on:")
        assert n_jobs >= 4
        assert text.count("timeout-minutes:") == n_jobs

    def test_ruff_config_present(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.ruff" in text


def _load_perf_smoke():
    """Import benchmarks/perf_smoke.py without requiring a package."""
    path = REPO_ROOT / "benchmarks" / "perf_smoke.py"
    spec = importlib.util.spec_from_file_location("perf_smoke", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("perf_smoke", module)
    spec.loader.exec_module(module)
    return module


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


class TestBenchSchema:
    def test_repo_bench_file_validates(self):
        perf_smoke = _load_perf_smoke()
        report = json.loads(
            (REPO_ROOT / "BENCH_fastpath.json").read_text()
        )
        perf_smoke.validate_report(report)  # raises on drift

    def test_repo_bench_has_payload_noise_entry(self):
        """The perf trajectory records the PR-4 noise-stream headline."""
        report = json.loads(
            (REPO_ROOT / "BENCH_fastpath.json").read_text()
        )
        entries = [
            run["noise_modes"]
            for run in report["runs"]
            if "noise_modes" in run
        ]
        assert entries, "no noise_modes entry recorded yet"
        latest = entries[-1]
        assert latest["full"]["noise_version"] == 1
        assert latest["payload"]["noise_version"] == 2
        assert latest["speedup_payload_vs_full"] > 0

    def test_validator_rejects_drift(self):
        perf_smoke = _load_perf_smoke()
        with pytest.raises(ValueError):
            perf_smoke.validate_report({"schema": "bench-fastpath-v1"})
        with pytest.raises(ValueError):
            perf_smoke.validate_report(
                {"schema": "bench-fastpath-v2", "runs": []}
            )
        with pytest.raises(ValueError):
            perf_smoke.validate_report(
                {
                    "schema": "bench-fastpath-v2",
                    "runs": [
                        {
                            "timestamp": "t",
                            "host": {},
                            "fig12": {"wall_clock_s": -1.0},
                        }
                    ],
                }
            )
        # Booleans are not numbers (bool subclasses int in Python),
        # and entries nested inside lists are still visited.
        with pytest.raises(ValueError):
            perf_smoke.validate_report(
                {
                    "schema": "bench-fastpath-v2",
                    "runs": [
                        {
                            "timestamp": "t",
                            "host": {},
                            "fig12": {"speedup": True},
                        }
                    ],
                }
            )
        with pytest.raises(ValueError):
            perf_smoke.validate_report(
                {
                    "schema": "bench-fastpath-v2",
                    "runs": [
                        {
                            "timestamp": "t",
                            "host": {},
                            "points": [{"wall_clock_s": -3.0}],
                        }
                    ],
                }
            )
        # Quick runs must carry the headline sections.
        with pytest.raises(ValueError):
            perf_smoke.validate_report(
                {
                    "schema": "bench-fastpath-v2",
                    "runs": [
                        {"timestamp": "t", "host": {}, "quick": True}
                    ],
                }
            )

    @pytest.mark.parametrize(
        "timing", ["per_round_fft_legacy", "batched_analytic", "batched_auto"]
    )
    def test_validator_requires_every_quick_fading_timing(self, timing):
        perf_smoke = _load_perf_smoke()
        campaign_entry = {"points_computed": 0, "points_cached": 1}
        quick = {
            "timestamp": "t",
            "host": {},
            "quick": True,
            "fig17_point256": {"speedup_auto": 1.0},
            "fading": {
                name: {"wall_clock_s": 0.1}
                for name in perf_smoke.FADING_TIMINGS
            },
            "noise_modes": {
                "full": {"noise_version": 1},
                "payload": {"noise_version": 2},
                "speedup_payload_vs_full": 1.0,
            },
            "campaign": {
                "cold": {"points_computed": 1, "points_cached": 0},
                "warm_rerun": campaign_entry,
                "fig18_reuse": campaign_entry,
            },
            "population_scale": {
                "devices_256": {
                    "n_devices": 256,
                    "n_groups": 1,
                    "closed_form_groups": 1,
                    "monte_carlo_groups": 0,
                }
            },
        }
        report = {"schema": "bench-fastpath-v2", "runs": [quick]}
        perf_smoke.validate_report(report)
        del quick["fading"][timing]["wall_clock_s"]
        with pytest.raises(ValueError, match=timing):
            perf_smoke.validate_report(report)
        del quick["fading"][timing]
        with pytest.raises(ValueError, match=timing):
            perf_smoke.validate_report(report)

    def test_validator_tolerates_older_section_layouts(self):
        """Append-only history: presence rules bind only the newest run.

        A quick run recorded by an older perf_smoke (no noise_modes
        section) must not block future benchmarking.
        """
        perf_smoke = _load_perf_smoke()
        historical_quick = {
            "timestamp": "t0",
            "host": {},
            "quick": True,
            "fig17_point256": {"speedup_auto": 1.5},
            "fading": {"speedup_batched_vs_legacy": 2.0},
        }
        current = {
            "timestamp": "t1",
            "host": {},
            "fig12": {"speedup": 9.0},
        }
        perf_smoke.validate_report(
            {
                "schema": "bench-fastpath-v2",
                "runs": [historical_quick, current],
            }
        )
