"""Tests for the extension experiments, the registry and the CLI."""

import pytest

from repro.errors import ReproError
from repro.experiments import choir_comparison, fig10_association
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    run_experiment,
)
from repro.__main__ import main as cli_main


class TestChoirComparison:
    def test_checks_pass(self):
        result = choir_comparison.run(
            device_counts=(2, 5, 20), n_rounds=150, rng=3
        )
        assert result.all_checks_pass(), result.report()

    def test_netscatter_outscales_choir(self):
        result = choir_comparison.run(
            device_counts=(10,), n_rounds=150, rng=3
        )
        row = result.rows[0]
        assert row["netscatter_delivery"] > 0.95
        assert row["choir_success"] < 0.05

    def test_ideal_radio_column_matches_analytics(self):
        from repro.baselines.choir import (
            choir_distinct_fraction_probability,
            choir_same_shift_collision_probability,
        )

        result = choir_comparison.run(
            device_counts=(5,), n_rounds=50, rng=3
        )
        expected = choir_distinct_fraction_probability(5) * (
            1 - choir_same_shift_collision_probability(5, 9)
        )
        assert result.rows[0]["choir_ideal_radio"] == pytest.approx(
            expected
        )


class TestAssociationExperiment:
    def test_flow_completes(self):
        result = fig10_association.run(n_trials=3, rng=4)
        assert result.all_checks_pass(), result.report()

    def test_rows_record_grants(self):
        result = fig10_association.run(n_trials=2, rng=4)
        for row in result.rows:
            assert row["ack_confirmed"]
            assert row["granted_shift"] >= 0


class TestGroupScaling:
    def test_checks_pass(self):
        from repro.experiments import group_scaling

        result = group_scaling.run(populations=(128, 512), rng=5)
        assert result.all_checks_pass(), result.report()

    def test_latency_steps_with_groups(self):
        from repro.experiments import group_scaling

        result = group_scaling.run(populations=(256, 1024), rng=5)
        small, large = result.rows
        assert large["n_groups"] > small["n_groups"]
        assert (
            large["netscatter_latency_ms"] > small["netscatter_latency_ms"]
        )


class TestRegistry:
    def test_all_paper_figures_registered(self):
        ids = experiment_ids()
        for required in (
            "fig04", "table1", "fig07", "fig08", "fig09", "fig12",
            "fig14a", "fig14b", "fig15a", "fig15b", "fig16", "fig17",
            "fig18", "fig19", "sec22",
        ):
            assert required in ids

    def test_run_by_id(self):
        result = run_experiment("table1")
        assert result.all_checks_pass()

    def test_quick_mode(self):
        result = run_experiment("fig09", quick=True, seed=1)
        assert result.all_checks_pass()

    def test_unknown_id_rejected(self):
        with pytest.raises(ReproError):
            run_experiment("fig99")

    def test_driver_type_error_propagates_after_one_run(self, monkeypatch):
        calls = []

        def driver(rng=None):
            calls.append(rng)
            raise TypeError("raised inside the driver")

        monkeypatch.setitem(EXPERIMENTS, "demo", driver)
        with pytest.raises(TypeError, match="inside the driver"):
            run_experiment("demo", seed=3)
        assert calls == [3]

    def test_registry_callables(self):
        for driver in EXPERIMENTS.values():
            assert callable(driver)


class TestCli:
    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig17" in out

    def test_run_command(self, capsys):
        assert cli_main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_run_quick(self, capsys):
        assert cli_main(["run", "fig08", "--quick"]) == 0

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "not-a-figure"])
