"""Unit tests for the oscillator, MCU and power models."""

import numpy as np
import pytest

from repro.errors import HardwareModelError
from repro.hardware.mcu import McuTimingModel
from repro.hardware.oscillator import (
    CrystalOscillator,
    OscillatorBank,
    radio_oscillator,
    tag_oscillator,
)
from repro.hardware.power_model import IcPowerBudget
from repro.phy.packet import PacketStructure


class TestOscillator:
    def test_requires_calibration(self):
        osc = CrystalOscillator(nominal_freq_hz=3e6)
        with pytest.raises(HardwareModelError):
            _ = osc.cut_error_ppm

    def test_cut_error_within_tolerance(self, rng):
        osc = CrystalOscillator(nominal_freq_hz=3e6, tolerance_ppm=20.0)
        osc.calibrate(rng)
        assert abs(osc.cut_error_ppm) <= 20.0

    def test_offsets_track_cut_error(self, rng):
        osc = CrystalOscillator(
            nominal_freq_hz=3e6, tolerance_ppm=20.0, drift_ppm_std=0.0
        )
        osc.calibrate(rng)
        expected = osc.cut_error_ppm * 1e-6 * 3e6
        assert osc.offset_hz(rng) == pytest.approx(expected)

    def test_tag_offsets_match_fig14a(self, rng):
        """Tag offsets should stay within the paper's +/-150 Hz envelope."""
        worst = 0.0
        for i in range(50):
            osc = tag_oscillator()
            osc.calibrate(np.random.default_rng(i))
            series = osc.offset_series_hz(20, rng)
            worst = max(worst, float(np.max(np.abs(series))))
        assert worst <= 160.0

    def test_radio_offsets_much_larger(self, rng):
        tag = tag_oscillator()
        radio = radio_oscillator()
        tag.calibrate(np.random.default_rng(1))
        radio.calibrate(np.random.default_rng(1))
        # Identical ppm draw, 300x the synthesis frequency.
        assert abs(radio.offset_hz(rng)) > 10 * abs(tag.offset_hz(rng))

    def test_series_length(self, rng):
        osc = tag_oscillator()
        osc.calibrate(rng)
        assert osc.offset_series_hz(17, rng).size == 17

    def test_invalid_params(self):
        with pytest.raises(HardwareModelError):
            CrystalOscillator(nominal_freq_hz=0.0)


class TestOscillatorBank:
    def test_one_uniform_call_sets_every_cut_error(self):
        bank = OscillatorBank.calibrate(
            tag_oscillator(), 50, np.random.default_rng(4)
        )
        draws = np.random.default_rng(4).uniform(-1.0, 1.0, size=50)
        assert np.array_equal(bank.unit_draws, draws)
        for draw, osc, cut in zip(
            draws, bank.oscillators(), bank.cut_error_ppm
        ):
            part = tag_oscillator()
            part.calibrate_from_unit(draw)
            assert osc.cut_error_ppm == part.cut_error_ppm == cut

    def test_offsets_match_per_part_model(self):
        """Array offsets equal each part's offset_hz for the same drift."""
        bank = OscillatorBank.calibrate(
            tag_oscillator(), 6, np.random.default_rng(1)
        )
        normals = np.random.default_rng(2).standard_normal((3, 6))
        offsets = bank.offsets_hz(normals)
        assert offsets.shape == (3, 6)
        # Generator.normal draws the same standard normals, in order.
        twin = np.random.default_rng(2)
        per_part = [
            [osc.offset_hz(twin) for osc in bank.oscillators()]
            for _ in range(3)
        ]
        assert np.array_equal(offsets, per_part)


class TestMcuTiming:
    def test_latency_within_bounds(self, rng):
        model = McuTimingModel()
        for _ in range(500):
            latency = model.sample_latency_s(rng)
            assert model.min_latency_s <= latency <= model.max_latency_s

    def test_paper_model_max_under_3_5us(self):
        model = McuTimingModel()
        assert model.max_latency_s <= 3.5e-6 + 1e-9

    def test_jitter_bins_at_deployment_config(self, params):
        """The per-packet wobble must be on the order the SKIP = 2 guard
        absorbs (under ~2 bins including glitches)."""
        model = McuTimingModel()
        assert 0.3 < model.jitter_bins(params) < 2.0

    def test_glitches_create_tail(self, rng):
        model = McuTimingModel(glitch_probability=0.5)
        samples = model.sample_latencies_s(2000, rng)
        no_glitch_max = (
            model.min_latency_s
            + model.detector_jitter_s
            + model.mcu_jitter_s
            + model.fpga_jitter_s
        )
        assert np.mean(samples > no_glitch_max) > 0.2

    def test_no_glitch_mode(self, rng):
        model = McuTimingModel(glitch_probability=0.0)
        samples = model.sample_latencies_s(500, rng)
        assert np.max(samples) <= model.max_latency_s

    def test_invalid_params(self):
        with pytest.raises(HardwareModelError):
            McuTimingModel(mcu_jitter_s=-1e-6)
        with pytest.raises(HardwareModelError):
            McuTimingModel().sample_latencies_s(0)


class TestPowerBudget:
    def test_paper_total(self):
        budget = IcPowerBudget()
        assert budget.total_uw == pytest.approx(45.2, abs=0.01)

    def test_breakdown_sums(self):
        budget = IcPowerBudget()
        breakdown = budget.breakdown()
        parts = (
            breakdown["envelope_detector_uw"]
            + breakdown["baseband_uw"]
            + breakdown["chirp_generator_uw"]
            + breakdown["switch_network_uw"]
        )
        assert parts == pytest.approx(breakdown["total_uw"])

    def test_energy_per_packet(self, params):
        budget = IcPowerBudget()
        energy = budget.energy_per_packet_uj(params, PacketStructure())
        # 45.2 uW * 49.152 ms ~ 2.22 uJ.
        assert energy == pytest.approx(2.22, abs=0.05)

    def test_battery_feasibility_positive(self, params):
        budget = IcPowerBudget()
        packets = budget.packets_per_day_on_battery(
            params, PacketStructure()
        )
        assert packets > 100.0

    def test_rx_floor_consumes_budget(self, params):
        """A hypothetical always-on budget larger than the battery's
        daily allowance must yield zero packets."""
        budget = IcPowerBudget(baseband_uw=500.0)
        packets = budget.packets_per_day_on_battery(
            params, PacketStructure(), battery_mah=30.0
        )
        assert packets == 0.0

    def test_invalid_battery(self, params):
        with pytest.raises(HardwareModelError):
            IcPowerBudget().packets_per_day_on_battery(
                params, PacketStructure(), battery_mah=0.0
            )

    def test_negative_block_rejected(self):
        with pytest.raises(HardwareModelError):
            IcPowerBudget(baseband_uw=-1.0)
