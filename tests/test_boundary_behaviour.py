"""Boundary cases of the kept library code that no other test reaches.

Each test pins what a function does at the edge of its domain — an
empty input, a single-element configuration, a tampered invariant, a
missing or unusable file — where a silent change would otherwise only
show up as a wrong number far downstream.
"""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

import repro.__main__ as experiment_cli
from repro.baselines.sf_pairs import SfBwPair, verify_pairwise_distinct_slopes
from repro.channel.deployment import Deployment
from repro.core.aggregation import AggregateBand
from repro.core.allocation import AllocationTable, association_shifts
from repro.core.config import NetScatterConfig
from repro.core.dcss import DeviceTransmission, compose_symbol
from repro.errors import AllocationError, ConfigurationError
from repro.hardware.switch_network import SwitchNetwork
from repro.phy import backend_plan
from repro.phy.chirp import ChirpParams
from repro.phy.demodulation import Demodulator
from repro.phy.spectrum import power_spectral_density
from repro.protocol.ap import AccessPoint
from repro.protocol.association import AssociationController
from repro.protocol.network import NetworkSimulator
from repro.protocol.population import (
    FidelityRule,
    Population,
    assign_cluster,
    split_fidelity,
)
from repro.protocol.session import SessionStats

SMALL = ChirpParams(bandwidth_hz=125e3, spreading_factor=6)
SMALL_CONFIG = NetScatterConfig(
    bandwidth_hz=125e3, spreading_factor=6, skip=2, n_association_shifts=0
)


class TestExperimentCli:
    """``python -m repro all`` folds every experiment's shape checks
    into one exit code."""

    @pytest.fixture
    def fake_registry(self, monkeypatch):
        calls = []
        verdicts = {"a": True, "b": False, "c": True}

        def run_one(experiment_id, quick, seed):
            calls.append((experiment_id, quick, seed))
            return verdicts[experiment_id]

        monkeypatch.setattr(experiment_cli, "experiment_ids", lambda: list(verdicts))
        monkeypatch.setattr(experiment_cli, "_run_one", run_one)
        return calls, verdicts

    def test_all_reports_failures_and_exits_1(self, fake_registry, capsys):
        calls, _ = fake_registry
        assert experiment_cli.main(["all", "--quick", "--seed", "7"]) == 1
        assert calls == [("a", True, 7), ("b", True, 7), ("c", True, 7)]
        assert "shape-check failures: b" in capsys.readouterr().out

    def test_all_passing_exits_0(self, fake_registry, capsys):
        _, verdicts = fake_registry
        verdicts["b"] = True
        assert experiment_cli.main(["all"]) == 0
        assert "all experiments passed" in capsys.readouterr().out

    def test_seed_with_leading_zeros_is_decimal(self, fake_registry):
        calls, _ = fake_registry
        assert experiment_cli.main(["run", "a", "--seed", "007"]) == 0
        assert calls == [("a", False, 7)]


class TestStaticDeployment:
    def test_unfaded_device_keeps_its_snr(self):
        device = Deployment.from_snrs([4.0, -3.0]).devices[1]
        assert device.fading is None
        assert device.current_uplink_snr_db() == -3.0
        assert device.step_channel(10.0, rng=0) == -3.0
        assert device.current_uplink_snr_db() == -3.0

    def test_network_simulator_takes_a_bare_snr_list(self):
        snrs = [12.0, 6.0, 0.0]
        from_list = NetworkSimulator(
            snrs, config=SMALL_CONFIG, power_control=False, rng=3
        )
        from_deployment = NetworkSimulator(
            Deployment.from_snrs(snrs), config=SMALL_CONFIG,
            power_control=False, rng=3,
        )
        assert from_list.config is SMALL_CONFIG
        assert from_list.assignments == from_deployment.assignments
        assert sorted(from_list.assignments) == [0, 1, 2]
        assert from_list.run_rounds(2) == from_deployment.run_rounds(2)


class TestAggregateBand:
    def test_silent_symbol_decodes_no_slots(self):
        band = AggregateBand(SMALL, aggregation_factor=2)
        assert band.decode_slots(np.zeros(band.n_samples)) == []

    def test_single_slot_round_trip(self):
        band = AggregateBand(SMALL, aggregation_factor=2)
        symbol = band.compose_symbol([37], rng=1)
        assert band.decode_slots(symbol) == [37]


class TestAssociationShifts:
    @pytest.mark.parametrize(
        "n_shifts, expected",
        [(0, []), (1, [0]), (2, [0, 32]), (3, [0, 32, 16]), (4, [0, 32, 16, 48]),
         (5, [0, 32, 16, 48, 8])],
    )
    def test_reserved_positions(self, n_shifts, expected):
        config = replace(SMALL_CONFIG, n_association_shifts=n_shifts)
        assert association_shifts(config) == expected

    def test_every_grid_position_can_be_reserved_once(self):
        config = replace(SMALL_CONFIG, skip=16, n_association_shifts=4)
        assert sorted(association_shifts(config)) == [0, 16, 32, 48]
        with pytest.raises(ConfigurationError, match="exceeds the 4 shifts"):
            replace(config, n_association_shifts=5)

    @pytest.mark.parametrize("rssi_dbm", [-10.0, -70.0])
    def test_single_reserved_shift_serves_every_device(self, rssi_dbm):
        config = replace(SMALL_CONFIG, n_association_shifts=1)
        controller = AssociationController(config)
        assert controller.request_shift_for_rssi(rssi_dbm) == 0


class TestAllocationTable:
    def _table(self, snrs=(20.0, 10.0, 0.0, -10.0)):
        table = AllocationTable(SMALL_CONFIG)
        for device_id, snr in enumerate(snrs):
            table.add_device(device_id, snr)
        return table

    def test_empty_table_is_valid(self):
        AllocationTable(SMALL_CONFIG).validate()

    def test_filled_table_is_valid(self):
        self._table().validate()

    def test_displacing_add_counts_one_reassignment(self):
        table = self._table((20.0, -10.0))
        before = dict(table.assignments())
        shift, moved = table.add_device(10, 30.0)
        assert moved
        assert table.reassignments == 1
        after = table.assignments()
        assert after[0] != before[0]  # the old strongest gave up slot 0
        assert after[10] == shift
        table.validate()

    def test_non_displacing_add_counts_none(self):
        table = self._table((20.0,))
        before = dict(table.assignments())
        _, moved = table.add_device(10, 5.0)
        assert not moved
        assert table.reassignments == 0
        assert {d: table.assignments()[d] for d in before} == before

    @pytest.mark.parametrize(
        "tamper, words",
        [
            (lambda shift: shift.__setitem__(0, shift[0] + 1), "SKIP alignment"),
            (lambda shift: shift.__setitem__(1, shift[0]), "double-booked"),
            (lambda shift: shift.__setitem__(0, 1000), "reserved or out of range"),
            (lambda shift: shift.__setitem__(slice(0, 2), shift[1::-1]),
             "ring order"),
        ],
        ids=["misaligned", "double-booked", "out-of-range", "swapped"],
    )
    def test_validate_catches_tampered_shifts(self, tamper, words):
        table = self._table()
        tamper(table.population.shift)
        with pytest.raises(AllocationError, match=words):
            table.validate()


class TestAccessPointAssociation:
    def test_displacing_joins_queue_one_reassignment_query(self):
        ap = AccessPoint(SMALL_CONFIG)
        ap.run_association(0, 20.0)
        ap.run_association(1, -10.0)
        first = ap.build_query()
        assert first.reassignment_order is None
        ap.run_association(2, 30.0)
        ap.run_association(3, 25.0)
        query = ap.build_query()
        assert query.reassignment_order is not None
        assert sorted(query.reassignment_order) == [0, 1, 2, 3]
        assert ap.stats.reassignment_queries == 1
        assert ap.build_query().reassignment_order is None
        assert ap.config is SMALL_CONFIG
        assert ap.association.n_members == 4


class TestComposeSymbol:
    def test_random_phases_keep_tone_power(self):
        actives = [DeviceTransmission(shift=8, bits=[1]),
                   DeviceTransmission(shift=20, bits=[1], power_gain_db=-6.0)]
        fixed = compose_symbol(SMALL, actives, random_phases=False)
        drawn = compose_symbol(SMALL, actives, rng=4, random_phases=True)
        assert not np.allclose(fixed, drawn)
        demod = Demodulator(SMALL, zero_pad_factor=1)
        assert demod.params == SMALL and demod.zero_pad_factor == 1
        fixed_power = demod.dechirp(fixed).power
        drawn_power = demod.dechirp(drawn).power
        for shift in (8, 20):
            assert drawn_power[shift] == pytest.approx(fixed_power[shift])


class TestSwitchNetwork:
    def test_solved_levels_realise_their_gains(self):
        assert SwitchNetwork().verify_realisation()

    def test_detuned_resistor_is_caught(self):
        network = SwitchNetwork()
        level = network.levels[1]
        network._levels[1] = replace(level, z0_ohm=level.z0_ohm * 2.0)
        assert not network.verify_realisation()


class TestSfPairs:
    def test_duplicate_slope_is_caught(self):
        pairs = [SfBwPair(125e3, 7), SfBwPair(250e3, 9)]
        assert verify_pairwise_distinct_slopes(pairs[:1])
        assert not verify_pairwise_distinct_slopes(pairs)


class TestPowerSpectralDensity:
    def test_short_signal_shrinks_the_segment(self):
        tone = np.exp(2j * np.pi * 0.25 * np.arange(64))
        freqs, psd = power_spectral_density(tone, 1e3, nfft=1024)
        assert freqs.size == psd.size == 64
        assert freqs[np.argmax(psd)] == pytest.approx(250.0)


class TestPopulationEdges:
    def test_len_counts_devices(self):
        population = Population()
        population.bulk_add([4, 9, 2], [1.0, 2.0, 3.0])
        assert len(population) == population.n_devices == 3

    def test_empty_population_has_no_clusters(self):
        assert assign_cluster(np.array([]), SMALL_CONFIG) == []

    @pytest.mark.parametrize(
        "snrs, rule, force, reason",
        [
            ([10.0, 8.0], FidelityRule(audit_fraction=0.0), True, "forced"),
            ([10.0, -20.0], FidelityRule(audit_fraction=0.0), False,
             "validity_floor"),
            ([40.0, 0.0], FidelityRule(audit_fraction=0.0,
                                       contention_span_db=30.0), False,
             "contended"),
            ([10.0, 8.0], FidelityRule(audit_fraction=1.0), False, "audit"),
            ([10.0, 8.0], FidelityRule(audit_fraction=0.0), False,
             "closed_form"),
        ],
    )
    def test_fidelity_routing_reason(self, snrs, rule, force, reason):
        groups = [np.arange(len(snrs))]
        split = split_fidelity(np.array(snrs), groups, rule, seed=5,
                               force_monte_carlo=force)
        assert split.reasons == [reason]
        assert split.n_monte_carlo == (0 if reason == "closed_form" else 1)


class TestSessionStats:
    def test_means_of_an_unrun_session_are_zero(self):
        stats = SessionStats()
        assert stats.mean_delivery == 0.0
        assert stats.mean_participation == 0.0

    def test_means_average_the_rounds(self):
        stats = SessionStats(delivery_by_round=[1.0, 0.5],
                             participation_by_round=[1.0, 0.0])
        assert stats.mean_delivery == 0.75
        assert stats.mean_participation == 0.5


class TestCalibrationFile:
    def test_default_path_is_per_user(self, monkeypatch, tmp_path):
        monkeypatch.delenv(backend_plan.CALIBRATION_ENV, raising=False)
        monkeypatch.setenv("USER", "alice")
        monkeypatch.setattr(backend_plan.tempfile, "gettempdir",
                            lambda: str(tmp_path))
        path = backend_plan._default_calibration_path()
        assert path == tmp_path / "repro-backend-plan-alice.json"

    def test_default_path_without_a_user_is_shared(self, monkeypatch, tmp_path):
        monkeypatch.delenv(backend_plan.CALIBRATION_ENV, raising=False)
        monkeypatch.delenv("USER", raising=False)
        monkeypatch.delenv("USERNAME", raising=False)
        monkeypatch.setattr(backend_plan.tempfile, "gettempdir",
                            lambda: str(tmp_path))
        path = backend_plan._default_calibration_path()
        assert path.name == "repro-backend-plan-shared.json"

    def test_empty_override_disables_persistence(self, monkeypatch):
        monkeypatch.setenv(backend_plan.CALIBRATION_ENV, "")
        assert backend_plan._default_calibration_path() is None

    @pytest.mark.parametrize(
        "coefficients",
        [{"real_mac_s": 1e-9}, {"bogus": 1.0},
         {"real_mac_s": -1.0, "cplx_mac_s": 1e-9, "fft_elem_s": 1e-9,
          "exp_elem_s": 1e-9, "ew_pass_s": 1e-9}],
        ids=["missing-fields", "unknown-field", "negative-cost"],
    )
    def test_unusable_coefficients_are_discarded(self, tmp_path, caplog,
                                                 coefficients):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"schema": backend_plan._SCHEMA,
                                    "coefficients": coefficients}))
        with caplog.at_level(logging.WARNING, logger=backend_plan.logger.name):
            assert backend_plan._load_coefficients(path) is None
        assert "unusable coefficients" in caplog.text

    def test_persist_into_a_missing_directory_is_a_no_op(self, tmp_path):
        path = tmp_path / "missing" / "calibration.json"
        backend_plan._persist_coefficients(
            path, backend_plan.DEFAULT_COEFFICIENTS
        )
        assert not path.parent.exists()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "calibration.json"

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(backend_plan.os, "fdopen", fail)
        backend_plan._persist_coefficients(
            path, backend_plan.DEFAULT_COEFFICIENTS
        )
        assert list(tmp_path.iterdir()) == []
