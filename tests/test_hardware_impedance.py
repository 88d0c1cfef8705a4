"""Unit tests for repro.hardware.impedance and switch network."""

import math

import numpy as np
import pytest

from repro.errors import HardwareModelError
from repro.hardware.impedance import (
    backscatter_power_gain,
    backscatter_power_gain_db,
    gain_sweep,
    paper_fig7a_series,
    reflection_coefficient,
    solve_z0_for_gain_db,
)
from repro.hardware.switch_network import PowerLevel, SwitchNetwork


class TestReflectionCoefficient:
    def test_matched_load(self):
        assert reflection_coefficient(50.0) == pytest.approx(0.0)

    def test_short(self):
        assert reflection_coefficient(0.0) == pytest.approx(-1.0)

    def test_open(self):
        assert reflection_coefficient(None) == pytest.approx(1.0)
        assert reflection_coefficient(math.inf) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(HardwareModelError):
            reflection_coefficient(-10.0)


class TestPowerGain:
    def test_short_open_is_0db(self):
        """Switching short <-> open maximises |G0 - G1| = 2: 0 dB gain."""
        assert backscatter_power_gain(0.0, None) == pytest.approx(1.0)
        assert backscatter_power_gain_db(0.0, None) == pytest.approx(0.0)

    def test_same_impedance_is_silent(self):
        assert backscatter_power_gain(100.0, 100.0) == pytest.approx(0.0)
        assert backscatter_power_gain_db(100.0, 100.0) == -math.inf

    def test_monotone_in_z0(self):
        gains = gain_sweep(np.linspace(0.0, 1000.0, 50))
        assert np.all(np.diff(gains) < 1e-9)

    def test_fig7a_range(self):
        """Fig. 7a spans roughly 0 to -30 dB over Z0 in [0, 1000]."""
        z0, gains = paper_fig7a_series()
        assert gains[0] == pytest.approx(0.0)
        assert -35.0 < gains[-1] < -20.0


class TestSolveZ0:
    def test_0db_is_short(self):
        assert solve_z0_for_gain_db(0.0) == pytest.approx(0.0)

    def test_solutions_realise_targets(self):
        for target in (-2.0, -4.0, -10.0, -20.0):
            z0 = solve_z0_for_gain_db(target)
            assert backscatter_power_gain_db(z0, None) == pytest.approx(
                target, abs=1e-9
            )

    def test_positive_gain_rejected(self):
        with pytest.raises(HardwareModelError):
            solve_z0_for_gain_db(1.0)


class TestSwitchNetwork:
    def test_paper_levels(self):
        network = SwitchNetwork()
        assert [lv.gain_db for lv in network.levels] == [0.0, -4.0, -10.0]

    def test_realisation_verified(self):
        assert SwitchNetwork().verify_realisation()

    def test_selection(self):
        network = SwitchNetwork()
        network.select(2)
        assert network.gain_db == -10.0

    def test_step_down_clamps(self):
        network = SwitchNetwork()
        network.select(2)
        network.step_down()
        assert network.gain_db == -10.0
        assert not network.can_step_down()

    def test_step_up_clamps(self):
        network = SwitchNetwork()
        network.step_up()
        assert network.gain_db == 0.0
        assert not network.can_step_up()

    def test_middle_index(self):
        assert SwitchNetwork().middle_index() == 1

    def test_invalid_index(self):
        with pytest.raises(HardwareModelError):
            SwitchNetwork().select(3)

    def test_duplicate_levels_rejected(self):
        with pytest.raises(HardwareModelError):
            SwitchNetwork(gains_db=(0.0, 0.0))

    def test_positive_level_rejected(self):
        with pytest.raises(HardwareModelError):
            SwitchNetwork(gains_db=(3.0,))

    def test_level_str(self):
        level = PowerLevel(index=0, gain_db=0.0, z0_ohm=0.0)
        assert "level 0" in str(level)
