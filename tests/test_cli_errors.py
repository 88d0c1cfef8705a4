"""CLI error-path pins for ``python -m repro.campaign`` and
``python -m repro``.

:func:`repro.campaign.cli.entrypoint` is the console boundary: every
:class:`~repro.errors.ReproError` — bad driver URL, unusable spec, a
port the host cannot bind — must become one actionable ``error:`` line on
stderr and exit code 2, never a traceback. :func:`main` keeps raising
typed errors for library callers (pinned in ``test_campaign.py``).
Run-level failures (failed points) stay exit code 1.
"""

import json
import socket

import pytest

import chaos
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


class TestBadPorts:
    """``serve`` and ``serve-api`` refuse a port outside 0-65535 and a
    port already in use with one line, never a bind traceback."""

    @pytest.fixture
    def busy_port(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen()
            yield str(sock.getsockname()[1])

    @pytest.mark.parametrize("command", ["serve", "serve-api"])
    @pytest.mark.parametrize("port", ["70000", "-1", "busy"])
    def test_bad_port_exits_2_in_one_line(
        self, capsys, command, port, busy_port
    ):
        port = busy_port if port == "busy" else port
        code, out, err = run_entry(capsys, command, "--port", port)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and "serving" not in out
        assert "port" in err or f"127.0.0.1:{port}" in err

    @pytest.mark.parametrize(
        "command,store_flag", [("serve", "--root"), ("serve-api", "--store")]
    )
    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_bad_port_leaves_no_store_behind(
        self, capsys, tmp_path, command, store_flag, port
    ):
        store = tmp_path / "store"
        code, _, err = run_entry(
            capsys, command, store_flag, str(store), "--port", port
        )
        assert code == 2 and "port" in err
        assert not store.exists()

    @pytest.mark.parametrize(
        "command,store_flag", [("serve", "--root"), ("serve-api", "--store")]
    )
    @pytest.mark.parametrize("store", ["store", "made/on/the/way"])
    def test_busy_port_leaves_no_store_behind(
        self, capsys, tmp_path, busy_port, command, store_flag, store
    ):
        """The store is made before the port is bound; a port another
        socket holds leaves no directory of the command's making."""
        code, out, err = run_entry(
            capsys, command, store_flag, str(tmp_path / store),
            "--port", busy_port,
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"127.0.0.1:{busy_port}" in err and "serving" not in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command,store_flag", [("serve", "--root"), ("serve-api", "--store")]
    )
    def test_busy_port_keeps_an_existing_store(
        self, capsys, tmp_path, busy_port, command, store_flag
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / "kept").write_text("data")
        code, _, err = run_entry(
            capsys, command, store_flag, str(store), "--port", busy_port
        )
        assert code == 2 and err.count("\n") == 1, err
        assert (store / "kept").read_text() == "data"


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


CRASH_ALL_ATTEMPTS = chaos.Rule(
    "crash", op="execute", match={"n_devices": 2}, calls=(1, 2)
)


class TestRunFailureExitCodes:
    def test_allow_partial_with_remaining_failures_exits_1(
        self, capsys, tmp_path, execute_chaos
    ):
        execute_chaos(CRASH_ALL_ATTEMPTS)
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
        )
        assert code == 1
        assert "1 failed" in out
        assert "[FAIL ]" in out

    def test_without_allow_partial_failure_exits_1_with_hint(
        self, capsys, tmp_path, execute_chaos
    ):
        execute_chaos(CRASH_ALL_ATTEMPTS)
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
        )
        assert code == 1
        assert "FAILED" in err
        assert "--allow-partial" in err

    def test_allow_partial_then_clean_rerun_exits_0(
        self, capsys, tmp_path, execute_chaos
    ):
        injector = execute_chaos(CRASH_ALL_ATTEMPTS)
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
        )
        assert first == 1
        # Without the fault the failed point heals; the cached point
        # is not recomputed.
        injector.plan = chaos.Plan()
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
