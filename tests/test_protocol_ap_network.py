"""Unit tests for the access point and the network simulator."""

import dataclasses
import hashlib
from functools import cached_property

import numpy as np
import pytest

from repro.channel.deployment import paper_deployment
from repro.core.config import NetScatterConfig
from repro.core.receiver import RoundsDecode
from repro.errors import ConfigurationError, ProtocolError
from repro.protocol.ap import AccessPoint
from repro.protocol.network import (
    FADING_ROUND_INTERVAL_S,
    NetworkSimulator,
    sweep_device_counts,
)


def concatenate_decodes(decodes):
    """Stack the one-round decodes of the per-round oracle into one batch.

    The device columns and the backend / noise-stream labels are taken
    from the first decode; every decode comes from the same receiver.
    """
    first = decodes[0]
    return RoundsDecode(
        device_ids=first.device_ids,
        shifts=first.shifts,
        **{
            name: np.concatenate([getattr(d, name) for d in decodes])
            for name in (
                "detected", "preamble_power", "noise_power", "bits",
                "bit_powers",
            )
        },
        backend=first.backend,
        noise_mode=first.noise_mode,
        noise_version=first.noise_version,
    )


class PerRoundFadingSimulator(NetworkSimulator):
    """The round-by-round fading execution the batched path replaced.

    Each fading round is drawn *and decoded* on its own, with every
    device's Markov state stepped through its own fading process and
    every CFO drawn from its own oscillator object. It is the reference
    the batched AR(1)-track path is checked against statistically.
    """

    @cached_property
    def _oscillators(self):
        return self._oscillator_bank.oscillators()

    def _draw_round_inputs(self, fading: bool):
        """Draw one round's composition inputs (bins, amps, phases, bits)."""
        effective = self.effective_snrs_db()
        if fading:
            effective = [
                e
                + dev.step_channel(FADING_ROUND_INTERVAL_S, self._rng)
                - dev.uplink_snr_db
                for e, dev in zip(effective, self._deployment.devices)
            ]
        # Reference device: the weakest. Its amplitude is 1.0 and the
        # channel noise realises its SNR; others scale up from there.
        floor_snr = min(effective)
        rel_gains_db = np.asarray(effective) - floor_snr

        n_devices = self._deployment.n_devices
        params = self._params
        delays = self._timing.sample_latencies_s(n_devices, self._rng)
        delays = delays - delays.mean()
        cfos = np.array(
            [osc.offset_hz(self._rng) for osc in self._oscillators]
        )
        effective_bins = (
            np.array(
                [self._assignments[i] for i in range(n_devices)],
                dtype=float,
            )
            - delays * params.bandwidth_hz
            + cfos * params.n_samples / params.bandwidth_hz
        )
        amplitudes = 10.0 ** (rel_gains_db / 20.0)
        phases = self._rng.uniform(0.0, 2.0 * np.pi, size=n_devices)
        payload_bits = self._rng.integers(
            0, 2, size=(self._payload_bits, n_devices)
        )
        return effective_bins, amplitudes, phases, payload_bits, floor_snr

    def _draw_batch_inputs(self, n_rounds: int, fading: bool):
        if not fading:
            return super()._draw_batch_inputs(n_rounds, fading)
        draws = [self._draw_round_inputs(True) for _ in range(n_rounds)]
        return (
            np.stack([d[0] for d in draws]),
            np.stack([d[1] for d in draws]),
            np.stack([d[2] for d in draws]),
            np.stack([d[3] for d in draws]),
            np.array([d[4] for d in draws]),
        )

    def _run_batch(self, n_rounds: int, fading: bool):
        if not (fading and n_rounds > 1):
            return super()._run_batch(n_rounds, fading)
        parts = [self._run_batch(1, True) for _ in range(n_rounds)]
        decode = concatenate_decodes([p[0] for p in parts])
        payload = np.concatenate([p[1] for p in parts])
        floors = np.concatenate([p[2] for p in parts])
        return decode, payload, floors


class TestAccessPoint:
    def test_association_assigns_shift(self, config):
        ap = AccessPoint(config)
        shift = ap.run_association(0, measured_snr_db=12.0)
        assert shift % config.skip == 0
        assert ap.n_members == 1

    def test_queries_counted(self, config):
        ap = AccessPoint(config)
        ap.run_association(0, 12.0)
        ap.build_query()
        assert ap.stats.queries_sent >= 2
        assert ap.stats.downlink_bits_sent > 0

    def test_reassignment_piggybacked_once(self, config):
        ap = AccessPoint(config)
        ap.run_association(0, 10.0)
        # A stronger newcomer displaces device 0 -> reassignment query.
        ap.run_association(1, 30.0)
        query = ap.build_query()
        assert query.reassignment_order is not None
        follow_up = ap.build_query()
        assert follow_up.reassignment_order is None

    def test_receiver_bound_to_assignments(self, config):
        ap = AccessPoint(config)
        ap.run_association(0, 12.0)
        ap.run_association(1, 20.0)
        receiver = ap.receiver()
        assert set(receiver.assignments) == {0, 1}

    def test_receiver_requires_members(self, config):
        with pytest.raises(ProtocolError):
            AccessPoint(config).receiver()

    def test_round_scheduling(self, config):
        ap = AccessPoint(config)
        for device_id in range(5):
            ap.run_association(device_id, 10.0 + device_id)
        devices = ap.next_round_devices()
        assert sorted(devices) == [0, 1, 2, 3, 4]

    def test_member_snr_update(self, config):
        ap = AccessPoint(config)
        ap.run_association(0, 10.0)
        ap.run_association(1, 20.0)
        changed = ap.update_member_snr(0, 35.0)
        assert changed
        query = ap.build_query()
        assert query.reassignment_order is not None

    def test_unknown_member_update_rejected(self, config):
        ap = AccessPoint(config)
        with pytest.raises(Exception):
            ap.update_member_snr(9, 10.0)


class TestNetworkSimulator:
    def test_small_network_perfect_delivery(self):
        deployment = paper_deployment(n_devices=8, rng=3)
        sim = NetworkSimulator(deployment, rng=4)
        metrics = sim.run_rounds(3)
        assert metrics.delivery_ratio == pytest.approx(1.0)
        assert metrics.bit_error_rate == pytest.approx(0.0, abs=1e-3)

    def test_phy_rate_tracks_device_count(self):
        deployment = paper_deployment(n_devices=64, rng=3)
        small = NetworkSimulator(deployment.subset(16), rng=4).run_rounds(2)
        large = NetworkSimulator(deployment.subset(64), rng=4).run_rounds(2)
        assert large.phy_rate_bps > 3.0 * small.phy_rate_bps

    def test_power_control_limits_spread(self):
        deployment = paper_deployment(n_devices=64, rng=3)
        sim = NetworkSimulator(deployment, power_control=True, rng=4)
        effective = sim.effective_snrs_db()
        assert max(effective) - min(effective) <= 36.0

    def test_no_power_control_wider_spread(self):
        deployment = paper_deployment(n_devices=64, rng=3)
        on = NetworkSimulator(deployment, power_control=True, rng=4)
        off = NetworkSimulator(deployment, power_control=False, rng=4)
        spread_on = max(on.effective_snrs_db()) - min(on.effective_snrs_db())
        spread_off = max(off.effective_snrs_db()) - min(
            off.effective_snrs_db()
        )
        assert spread_off > spread_on

    def test_latency_matches_airtime_accounting(self):
        deployment = paper_deployment(n_devices=4, rng=3)
        sim = NetworkSimulator(deployment, query_bits=32, rng=4)
        metrics = sim.run_rounds(1)
        # 32/160k + 48 * 1.024 ms = 49.35 ms.
        assert metrics.latency_s == pytest.approx(49.35e-3, abs=0.1e-3)

    def test_oversubscription_rejected(self):
        deployment = paper_deployment(n_devices=64, rng=3)
        config = NetScatterConfig(
            bandwidth_hz=125e3, spreading_factor=6, skip=2,
            n_association_shifts=0,
        )
        with pytest.raises(ConfigurationError):
            NetworkSimulator(deployment, config=config)

    def test_zero_rounds_rejected(self):
        deployment = paper_deployment(n_devices=4, rng=3)
        sim = NetworkSimulator(deployment, rng=4)
        with pytest.raises(ConfigurationError):
            sim.run_rounds(0)

    def test_fading_round_runs(self):
        deployment = paper_deployment(n_devices=8, rng=3)
        sim = NetworkSimulator(deployment, rng=4)
        metrics = sim.run_rounds(1, fading=True)
        assert metrics.n_devices == 8


class TestSweep:
    def test_sweep_shapes(self):
        deployment = paper_deployment(n_devices=32, rng=3)
        metrics = sweep_device_counts(
            deployment, (4, 16, 32), n_rounds=1, rng=5
        )
        assert [m.n_devices for m in metrics] == [4, 16, 32]
        rates = [m.phy_rate_bps for m in metrics]
        assert rates[0] < rates[1] < rates[2]

    def test_invalid_engine_rejected(self):
        deployment = paper_deployment(n_devices=4, rng=3)
        with pytest.raises(ConfigurationError):
            NetworkSimulator(deployment, engine="fft")
        with pytest.raises(ConfigurationError):
            sweep_device_counts(deployment, (2,), engine="waveform")

    def test_engines_agree_on_clean_networks(self):
        """Both engines deliver perfectly on an easy deployment."""
        deployment = paper_deployment(n_devices=8, rng=3)
        for engine in ("analytic", "time"):
            sim = NetworkSimulator(deployment, rng=4, engine=engine)
            metrics = sim.run_rounds(3)
            assert metrics.delivery_ratio == pytest.approx(1.0)
            assert metrics.goodput_bits_per_round == pytest.approx(
                8 * 40
            )

    def test_float32_threshold_applies_to_large_points(self):
        deployment = paper_deployment(n_devices=32, rng=3)
        metrics = sweep_device_counts(
            deployment,
            (8, 32),
            n_rounds=1,
            rng=5,
            float32_min_devices=16,
        )
        assert [m.n_devices for m in metrics] == [8, 32]
        assert all(m.delivery_ratio > 0.9 for m in metrics)

class TestAdaptiveEngineAndFading:
    def test_auto_engine_records_backend(self):
        deployment = paper_deployment(n_devices=8, rng=3)
        sim = NetworkSimulator(deployment, rng=4, engine="auto")
        metrics = sim.run_rounds(2)
        assert metrics.backend in ("analytic", "sparse", "fft")
        assert metrics.delivery_ratio == pytest.approx(1.0)
        assert sim.run_rounds(1).backend == metrics.backend

    def test_fixed_engines_record_their_backend(self):
        deployment = paper_deployment(n_devices=4, rng=3)
        analytic = NetworkSimulator(deployment, rng=4, engine="analytic")
        assert analytic.run_rounds(1).backend == "analytic"
        time_sim = NetworkSimulator(deployment, rng=4, engine="time")
        assert time_sim.run_rounds(1).backend == "sparse"

    def test_sweep_auto_engine(self):
        deployment = paper_deployment(n_devices=32, rng=3)
        metrics = sweep_device_counts(
            deployment, (4, 32), n_rounds=1, rng=5, engine="auto"
        )
        assert [m.n_devices for m in metrics] == [4, 32]
        assert all(
            m.backend in ("analytic", "sparse", "fft") for m in metrics
        )

    def test_batched_fading_statistically_matches_per_round(self):
        """Same deployment, same seed: the batched AR(1)-track path and
        the per-round oracle draw through different stream
        interleavings, so metrics agree statistically, not bitwise.
        The nonzero reference scale must shift both paths alike."""
        outcomes = {}
        for mode, simulator in (
            ("batched", NetworkSimulator),
            ("per_round", PerRoundFadingSimulator),
        ):
            deployment = paper_deployment(n_devices=24, rng=6)
            sim = simulator(
                deployment,
                rng=7,
                engine="analytic",
                reference_snr_scale_db=4.0,
            )
            outcomes[mode] = sim.run_rounds(60, fading=True)
        batched, legacy = outcomes["batched"], outcomes["per_round"]
        assert batched.delivery_ratio == pytest.approx(
            legacy.delivery_ratio, abs=0.03
        )
        assert batched.bit_error_rate == pytest.approx(
            legacy.bit_error_rate, abs=0.01
        )
        assert batched.phy_rate_bps == pytest.approx(
            legacy.phy_rate_bps, rel=0.05
        )

    #: Recorded from the in-``src/`` per-round execution before it moved
    #: into :class:`PerRoundFadingSimulator`: the ``NetworkMetrics`` of
    #: 60 fading rounds over ``paper_deployment(24, rng=6)`` (rng=7,
    #: analytic engine), and the sha256 of the decoded bits, detection
    #: flags, sent payload and per-round noise floors.
    PER_ROUND_PINS = {
        4.0: (
            {
                "n_devices": 24,
                "phy_rate_bps": 23437.500000000004,
                "link_layer_rate_bps": 19452.099205705952,
                "latency_s": 0.04935199999999999,
                "delivery_ratio": 1.0,
                "bit_error_rate": 0.0,
                "goodput_bits_per_round": 960.0,
                "backend": "analytic",
                "noise_mode": "payload",
                "noise_version": 2,
            },
            "98ec80ceb4a695fefb81e6bbaf2e93439ff7ee9bd974a3b113e2603d46337df2",
        ),
        -20.0: (
            {
                "n_devices": 24,
                "phy_rate_bps": 23432.210286458336,
                "link_layer_rate_bps": 19447.70897498244,
                "latency_s": 0.04935199999999999,
                "delivery_ratio": 0.9923611111111111,
                "bit_error_rate": 0.00022569444444442421,
                "goodput_bits_per_round": 959.7833333333333,
                "backend": "analytic",
                "noise_mode": "payload",
                "noise_version": 2,
            },
            "91b6de7c6aa1a13f2ee54496ce53657bb9d595101930c63ea7d367a40fec61ea",
        ),
    }

    @pytest.mark.parametrize("scale_db", sorted(PER_ROUND_PINS))
    def test_per_round_oracle_reproduces_recorded_rounds(self, scale_db):
        """The per-round oracle draws and decodes exactly as before."""
        fields, digest = self.PER_ROUND_PINS[scale_db]

        def simulator():
            return PerRoundFadingSimulator(
                paper_deployment(24, rng=6),
                rng=7,
                engine="analytic",
                reference_snr_scale_db=scale_db,
            )

        metrics = simulator().run_rounds(60, fading=True)
        assert dataclasses.asdict(metrics) == fields
        decode, payload, floors = simulator()._run_batch(60, True)
        sha = hashlib.sha256()
        for array in (decode.bits, decode.detected, payload, floors):
            sha.update(np.ascontiguousarray(array).tobytes())
        assert sha.hexdigest() == digest

    def test_fading_rounds_flow_through_batched_engine(self):
        """A multi-round fading batch is one decode call (not a Python
        loop): its backend is recorded and the metrics are finite."""
        deployment = paper_deployment(n_devices=8, rng=3)
        sim = NetworkSimulator(deployment, rng=4, engine="auto")
        metrics = sim.run_rounds(5, fading=True)
        assert metrics.backend in ("analytic", "sparse", "fft")
        assert 0.0 <= metrics.delivery_ratio <= 1.0

    def test_batched_fading_keeps_reference_scale(self):
        """The batched track floor equals the per-round convention:
        fading SNR + reference scale + power gain."""
        deployment = paper_deployment(n_devices=6, rng=6)
        sim = NetworkSimulator(
            deployment, rng=7, engine="analytic",
            reference_snr_scale_db=6.0,
        )
        effective = sim._fading_effective_snrs_db(4)
        states = np.array(
            [d.fading.current_snr_db for d in deployment.devices]
        )
        expected_last = states + 6.0 + np.array(sim._gains_db)
        assert np.allclose(effective[-1], expected_last)
