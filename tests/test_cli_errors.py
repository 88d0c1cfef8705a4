"""CLI error-path pins for ``python -m repro.campaign`` and
``python -m repro``.

:func:`repro.campaign.cli.entrypoint` is the console boundary: every
:class:`~repro.errors.ReproError` — bad driver URL, malformed fault
plan, unusable spec — must become one actionable ``error:`` line on
stderr and exit code 2, never a traceback. :func:`main` keeps raising
typed errors for library callers (pinned in ``test_campaign.py``).
Run-level failures (failed points) stay exit code 1.
"""

import json

import pytest

from repro.__main__ import main as experiment_main
from repro.campaign.cli import entrypoint, main
from repro.errors import ReproError


def run_entry(capsys, *argv):
    code = entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBadStorageDriver:
    def test_unknown_scheme_exits_2(self, capsys):
        code, _, err = run_entry(
            capsys,
            "run",
            "--spec",
            "fig17",
            "--storage-driver",
            "ftp://host/bucket",
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "ftp" in err
        assert "Traceback" not in err

    def test_http_driver_without_bucket_exits_2(self, capsys):
        code, _, err = run_entry(
            capsys,
            "status",
            "--storage-driver",
            "http://127.0.0.1:9",
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_posix_driver_without_store_exits_2(self, capsys):
        code, _, err = run_entry(capsys, "run", "--spec", "fig17")
        assert code == 2
        assert "--store is required" in err

    def test_main_raises_for_library_callers(self):
        with pytest.raises(ReproError):
            main(
                [
                    "run",
                    "--spec",
                    "fig17",
                    "--storage-driver",
                    "ftp://host/bucket",
                ]
            )


class TestMalformedFaultPlans:
    def test_malformed_fault_plan_json_exits_2(self, capsys, tmp_path):
        code, _, err = run_entry(
            capsys,
            "run",
            "--spec",
            "fig17",
            "--store",
            str(tmp_path / "store"),
            "--fault-plan",
            '{"rules": [}',
        )
        assert code == 2
        assert "malformed fault plan" in err
        assert "Traceback" not in err

    def test_malformed_storage_fault_plan_exits_2(
        self, capsys, tmp_path
    ):
        code, _, err = run_entry(
            capsys,
            "run",
            "--spec",
            "fig17",
            "--store",
            str(tmp_path / "store"),
            "--storage-fault-plan",
            '{"rules": [{"op": }]}',
        )
        assert code == 2
        assert "malformed storage fault plan" in err

    def test_missing_fault_plan_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_entry(
            capsys,
            "run",
            "--spec",
            "fig17",
            "--store",
            str(tmp_path / "store"),
            "--fault-plan",
            str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "malformed fault plan" in err

    def test_schema_violation_is_reported_not_tracebacked(
        self, capsys, tmp_path
    ):
        # Valid JSON, invalid rule schema: ConfigurationError is a
        # ReproError, so it still exits 2 with one line.
        plan = json.dumps(
            {"rules": [{"stage": "execute", "kind": "nonsense"}]}
        )
        code, _, err = run_entry(
            capsys,
            "run",
            "--spec",
            "fig17",
            "--store",
            str(tmp_path / "store"),
            "--fault-plan",
            plan,
        )
        assert code == 2
        assert "fault kind" in err


class TestExportAndSpecErrors:
    def test_export_on_empty_store_is_clean(self, capsys, tmp_path):
        code, out, err = run_entry(
            capsys, "export", "--store", str(tmp_path / "empty")
        )
        assert code == 0
        assert json.loads(out) == []
        assert err == ""

    def test_export_empty_store_csv(self, capsys, tmp_path):
        code, out, _ = run_entry(
            capsys,
            "export",
            "--store",
            str(tmp_path / "empty"),
            "--format",
            "csv",
        )
        assert code == 0
        assert out.strip() == ""

    def test_unknown_spec_exits_2(self, capsys, tmp_path):
        code, _, err = run_entry(
            capsys,
            "run",
            "--spec",
            "not-a-preset",
            "--store",
            str(tmp_path / "store"),
        )
        assert code == 2
        assert "neither a preset" in err

    def test_preset_knobs_rejected_for_json_specs(
        self, capsys, tmp_path
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{}")
        code, _, err = run_entry(
            capsys,
            "run",
            "--spec",
            str(spec_path),
            "--store",
            str(tmp_path / "store"),
            "--seed",
            "3",
        )
        assert code == 2
        assert "--seed" in err and "preset" in err

    def test_bad_service_url_exits_2(self, capsys):
        code, _, err = run_entry(
            capsys,
            "submit",
            "--service",
            "ftp://somewhere",
            "--spec",
            "fig17",
        )
        assert code == 2
        assert "http(s)" in err


CRASH_ALL_ATTEMPTS = json.dumps(
    {
        "rules": [
            {
                "stage": "execute",
                "kind": "crash",
                "match": {"n_devices": 2},
                "attempts": [1, 2],
            }
        ]
    }
)


class TestRunFailureExitCodes:
    def test_allow_partial_with_remaining_failures_exits_1(
        self, capsys, tmp_path
    ):
        code, out, _ = run_entry(
            capsys,
            "run",
            "--spec",
            "fig17",
            "--store",
            str(tmp_path / "store"),
            "--counts",
            "1,2",
            "--rounds",
            "1",
            "--engine",
            "analytic",
            "--no-leases",
            "--max-attempts",
            "2",
            "--allow-partial",
            "--fault-plan",
            CRASH_ALL_ATTEMPTS,
        )
        assert code == 1
        assert "1 failed" in out
        assert "[FAIL ]" in out

    def test_without_allow_partial_failure_exits_1_with_hint(
        self, capsys, tmp_path
    ):
        code, _, err = run_entry(
            capsys,
            "run",
            "--spec",
            "fig17",
            "--store",
            str(tmp_path / "store"),
            "--counts",
            "1,2",
            "--rounds",
            "1",
            "--engine",
            "analytic",
            "--no-leases",
            "--max-attempts",
            "2",
            "--fault-plan",
            CRASH_ALL_ATTEMPTS,
        )
        assert code == 1
        assert "FAILED" in err
        assert "--allow-partial" in err

    def test_allow_partial_then_clean_rerun_exits_0(
        self, capsys, tmp_path
    ):
        store = str(tmp_path / "store")
        first, _, _ = run_entry(
            capsys,
            "run",
            "--spec",
            "fig17",
            "--store",
            store,
            "--counts",
            "1,2",
            "--rounds",
            "1",
            "--engine",
            "analytic",
            "--no-leases",
            "--max-attempts",
            "2",
            "--allow-partial",
            "--fault-plan",
            CRASH_ALL_ATTEMPTS,
        )
        assert first == 1
        # Without the fault plan the failed point heals; the cached
        # point is not recomputed.
        second, out, _ = run_entry(
            capsys,
            "run",
            "--spec",
            "fig17",
            "--store",
            store,
            "--counts",
            "1,2",
            "--rounds",
            "1",
            "--engine",
            "analytic",
            "--no-leases",
        )
        assert second == 0
        assert "1 cached, 1 computed" in out


class TestExperimentCliSeed:
    """``python -m repro run/all --seed`` takes a non-negative integer;
    anything else is an argparse usage error (exit code 2), never a
    traceback from the random generator."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "fig04", "--quick", "--seed", "-3"),
            ("all", "--quick", "--seed", "-1"),
            ("run", "fig04", "--quick", "--seed", "x"),
        ],
    )
    def test_bad_seed_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            experiment_main(list(argv))
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "argument --seed: must be a non-negative integer" in err
        assert "Traceback" not in err
