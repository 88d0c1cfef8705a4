"""Occupancy-adaptive backend planner: cost model + auto equivalence.

Two contracts under test:

* the planner itself — the calibrated cost model orders the three
  spectral backends correctly across occupancy (analytic at small ``D``,
  FFT near ``D = N/2``), calibration persists/reloads, and inapplicable
  backends are never offered;
* ``readout="auto"`` — whatever backend the planner picks (or is forced
  to pick), the decode decisions are bit-identical to every fixed
  backend at, below and above the crossover, with CFO/jitter offsets
  and with same-seed engine noise.
"""

import json

import numpy as np
import pytest

from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.receiver import NetScatterReceiver
from repro.errors import ConfigurationError, DecodingError
from repro.phy.backend_plan import (
    BACKENDS,
    DEFAULT_COEFFICIENTS,
    BackendPlanner,
    CalibrationCoefficients,
    ReadoutWorkload,
    _load_coefficients,
    _persist_coefficients,
    calibrate,
    host_planner,
)

#: The deployment operating point's readout shape (SF 9, zp 10, W = 13).
def _workload(n_devices, n_samples=512, zp=10, window_width=13,
              n_symbols=46, n_rounds=3, tone_input=True,
              noise_mode=None, carry_width=False):
    return ReadoutWorkload(
        n_rounds=n_rounds,
        n_symbols=n_symbols,
        n_devices=n_devices,
        n_samples=n_samples,
        zero_pad_factor=zp,
        window_bins=n_devices * window_width,
        probe_bins=min(n_samples, 512),
        tone_input=tone_input,
        window_width=window_width if (noise_mode or carry_width) else 0,
        noise_mode=noise_mode,
    )


class _ForcedPlanner:
    """Duck-typed planner pinning the auto dispatch to one backend."""

    def __init__(self, backend: str) -> None:
        self.backend = backend

    def select(self, workload) -> str:
        if not workload.tone_input and self.backend == "analytic":
            return "sparse"
        return self.backend


class TestCostModel:
    def test_analytic_wins_small_occupancy(self):
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        for d in (1, 2, 8):
            assert planner.select(_workload(d)) == "analytic"

    def test_fft_wins_half_occupancy(self):
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        costs = planner.costs(_workload(256))
        assert planner.select(_workload(256)) == "fft"
        assert costs["fft"] < costs["analytic"] < costs["sparse"]

    def test_crossover_is_monotone(self):
        """Once the FFT wins, it keeps winning at higher occupancy."""
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        picks = [planner.select(_workload(d)) for d in range(1, 257)]
        first_fft = picks.index("fft")
        assert all(p == "fft" for p in picks[first_fft:])
        assert all(p != "fft" for p in picks[:first_fft])

    def test_tensor_input_excludes_analytic(self):
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        costs = planner.costs(_workload(16, tone_input=False))
        assert set(costs) == {"sparse", "fft"}
        assert planner.select(_workload(16, tone_input=False)) in (
            "sparse",
            "fft",
        )

    def test_tensor_costs_carry_no_synthesis_term(self):
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        with_tones = planner.costs(_workload(64))
        tensor = planner.costs(_workload(64, tone_input=False))
        assert tensor["sparse"] < with_tones["sparse"]
        assert tensor["fft"] < with_tones["fft"]

    def test_invalid_workloads_rejected(self):
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        with pytest.raises(ConfigurationError):
            planner.costs(_workload(0))  # tone input needs devices
        with pytest.raises(ConfigurationError):
            planner.costs(_workload(4, n_symbols=0))

    def test_coefficients_validated(self):
        with pytest.raises(ConfigurationError):
            CalibrationCoefficients(0.0, 1e-9, 1e-9, 1e-9, 1e-9)
        with pytest.raises(ConfigurationError):
            CalibrationCoefficients(1e-9, 1e-9, float("nan"), 1e-9, 1e-9)


class TestCalibration:
    def test_calibrate_measures_positive_finite(self):
        coefficients = calibrate()
        for value in (
            coefficients.real_mac_s,
            coefficients.cplx_mac_s,
            coefficients.fft_elem_s,
            coefficients.exp_elem_s,
            coefficients.ew_pass_s,
        ):
            assert value > 0 and np.isfinite(value)
        # A real GEMM multiply-add cannot cost more than a complex one.
        assert coefficients.real_mac_s <= coefficients.cplx_mac_s * 2

    def test_persist_and_reload(self, tmp_path):
        path = tmp_path / "calibration.json"
        _persist_coefficients(path, DEFAULT_COEFFICIENTS)
        loaded = _load_coefficients(path)
        assert loaded == DEFAULT_COEFFICIENTS

    def test_persist_replaces_atomically(self, tmp_path, monkeypatch):
        # The file changes only through one rename: a write that fails
        # before it leaves the previous calibration and no temp file.
        import repro.phy.backend_plan as plan_module

        path = tmp_path / "calibration.json"
        _persist_coefficients(path, DEFAULT_COEFFICIENTS)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(plan_module.os, "replace", fail)
        other = CalibrationCoefficients(1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9)
        _persist_coefficients(path, other)
        assert _load_coefficients(path) == DEFAULT_COEFFICIENTS
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "calibration.json"
        assert _load_coefficients(path) is None  # missing
        path.write_text("not json")
        assert _load_coefficients(path) is None
        path.write_text(json.dumps({"schema": "other", "coefficients": {}}))
        assert _load_coefficients(path) is None

    def test_corrupt_file_logs_and_recalibrates(
        self, tmp_path, monkeypatch, caplog
    ):
        # A torn/corrupt $REPRO_BACKEND_CALIBRATION must log a warning
        # and fall through to a fresh calibration, never raise.
        import repro.phy.backend_plan as plan_module

        path = tmp_path / "host.json"
        path.write_text('{"schema": "repro-backend-c')  # torn write
        monkeypatch.setenv("REPRO_BACKEND_CALIBRATION", str(path))
        monkeypatch.setattr(plan_module, "_HOST_PLANNER", None)
        with caplog.at_level("WARNING", logger="repro.phy.backend_plan"):
            planner = host_planner()
        assert any(
            "re-calibrating" in record.message
            for record in caplog.records
        )
        assert planner.coefficients is not None
        # The re-calibration overwrote the corrupt file with a valid one.
        assert _load_coefficients(path) == planner.coefficients

    def test_host_planner_persists_once(self, tmp_path, monkeypatch):
        import repro.phy.backend_plan as plan_module

        path = tmp_path / "host.json"
        monkeypatch.setenv("REPRO_BACKEND_CALIBRATION", str(path))
        monkeypatch.setattr(plan_module, "_HOST_PLANNER", None)
        first = host_planner()
        assert path.exists()
        monkeypatch.setattr(plan_module, "_HOST_PLANNER", None)
        second = host_planner()
        # The second process-equivalent load reuses the persisted file.
        assert second.coefficients == first.coefficients

    def test_failed_calibration_is_not_persisted(
        self, tmp_path, monkeypatch, caplog
    ):
        # A calibration that raises plans with the defaults in this
        # process only; the file is left for a later real measurement.
        import repro.phy.backend_plan as plan_module

        path = tmp_path / "host.json"
        monkeypatch.setenv("REPRO_BACKEND_CALIBRATION", str(path))
        monkeypatch.setattr(plan_module, "_HOST_PLANNER", None)

        def fail(rng=None):
            raise MemoryError("probe allocation failed")

        monkeypatch.setattr(plan_module, "calibrate", fail)
        with caplog.at_level("WARNING", logger="repro.phy.backend_plan"):
            planner = host_planner()
        assert planner.coefficients == DEFAULT_COEFFICIENTS
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
        assert any(
            "calibration failed" in record.message
            for record in caplog.records
        )
        monkeypatch.setattr(plan_module, "calibrate", calibrate)
        measured = host_planner(force_recalibrate=True)
        assert _load_coefficients(path) == measured.coefficients
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_calibration_memory_budget(self):
        # Each probe frees its inputs before the next allocates, so the
        # traced peak is the largest single probe's (the elementwise
        # pass's three 8 MiB arrays), not the sum over all six.
        import tracemalloc

        calibrate()  # lazy imports and first-call set-up
        tracemalloc.start()
        try:
            calibrate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 25 * 2**20, f"calibrate() peak {peak / 2**20:.2f} MiB"


def _random_batch(shifts, n_rounds, n_payload, rng, offsets_std=0.4):
    n_devices = shifts.size
    bits = rng.integers(0, 2, size=(n_rounds, n_payload, n_devices))
    bit_tensor = np.concatenate(
        [np.ones((n_rounds, 6, n_devices)), bits], axis=1
    )
    bins = shifts[None, :] + rng.normal(
        0.0, offsets_std, size=(n_rounds, n_devices)
    )
    amplitudes = 10.0 ** (
        rng.uniform(-6.0, 6.0, size=(n_rounds, n_devices)) / 20.0
    )
    phases = rng.uniform(0, 2 * np.pi, size=(n_rounds, n_devices))
    return bins, amplitudes, phases, bit_tensor


def _assert_same_decisions(reference, *others):
    for other in others:
        assert np.array_equal(reference.detected, other.detected)
        assert np.array_equal(reference.bits, other.bits)


class TestAutoEquivalence:
    """Auto decisions == every fixed backend, across the crossover grid.

    ``D = N/2`` sits above the measured crossover (the planner moves to
    the FFT), 16 below it (analytic), and the forced planners exercise
    every auto branch regardless of where this host's calibration put
    the crossover.
    """

    @pytest.mark.parametrize(
        "sf,n_devices",
        [
            (7, 1), (7, 16), (7, 64),       # 64 = N/2 at SF 7
            (9, 1), (9, 16), (9, 256),      # 256 = N/2 at SF 9
            (12, 1), (12, 16),
        ],
    )
    def test_noiseless_grid(self, sf, n_devices):
        config = NetScatterConfig(
            spreading_factor=sf, n_association_shifts=0
        )
        assignments = {i: i * config.skip for i in range(n_devices)}
        rng = np.random.default_rng(1000 * sf + n_devices)
        shifts = np.array(list(assignments.values()), dtype=float)
        bins, amps, phases, bt = _random_batch(shifts, 2, 6, rng)
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )

        auto = NetScatterReceiver(config, assignments, readout="auto")
        reference = auto.decode_readout(bins, amps, phases, bt)
        assert reference.backend in BACKENDS

        fixed = [
            NetScatterReceiver(
                config, assignments, readout="analytic"
            ).decode_readout(bins, amps, phases, bt),
            NetScatterReceiver(config, assignments).decode_rounds(symbols),
            NetScatterReceiver(
                config, assignments, readout="fft"
            ).decode_rounds(symbols),
        ]
        forced = [
            NetScatterReceiver(
                config,
                assignments,
                readout="auto",
                planner=_ForcedPlanner(backend),
            ).decode_readout(bins, amps, phases, bt)
            for backend in BACKENDS
        ]
        for decode, backend in zip(forced, BACKENDS):
            assert decode.backend == backend
        _assert_same_decisions(reference, *fixed, *forced)

    def test_half_occupancy_sf12(self):
        """The heaviest paper point: SF 12 at D = N/2 (2048 devices).

        The sparse matmul is deliberately excluded (its ``N * K`` cost
        is exactly what the planner exists to avoid here); auto, forced
        FFT and analytic must still agree bit for bit.
        """
        config = NetScatterConfig(
            spreading_factor=12, zero_pad_factor=4, n_association_shifts=0
        )
        n_devices = config.n_bins // 2
        assignments = {i: 2 * i for i in range(n_devices)}
        rng = np.random.default_rng(12)
        shifts = np.array(list(assignments.values()), dtype=float)
        bins, amps, phases, bt = _random_batch(shifts, 1, 2, rng)

        auto = NetScatterReceiver(config, assignments, readout="auto")
        reference = auto.decode_readout(bins, amps, phases, bt)
        analytic = NetScatterReceiver(
            config,
            assignments,
            readout="auto",
            planner=_ForcedPlanner("analytic"),
        ).decode_readout(bins, amps, phases, bt)
        fft = NetScatterReceiver(
            config,
            assignments,
            readout="auto",
            planner=_ForcedPlanner("fft"),
        ).decode_readout(bins, amps, phases, bt)
        assert analytic.backend == "analytic"
        assert fft.backend == "fft"
        _assert_same_decisions(reference, analytic, fft)

    def test_auto_tensor_input_matches_fixed_backends(self):
        """decode_rounds under auto == sparse == fft on the same tensor."""
        config = NetScatterConfig(n_association_shifts=0)
        assignments = {i: 2 * i for i in range(16)}
        rng = np.random.default_rng(3)
        shifts = np.array(list(assignments.values()), dtype=float)
        bins, amps, phases, bt = _random_batch(shifts, 3, 8, rng)
        symbols = compose_rounds(
            config.chirp_params, bins, amps, phases, bt
        )
        auto = NetScatterReceiver(
            config, assignments, readout="auto"
        ).decode_rounds(symbols)
        assert auto.backend in ("sparse", "fft")
        sparse = NetScatterReceiver(config, assignments).decode_rounds(
            symbols
        )
        fft = NetScatterReceiver(
            config, assignments, readout="fft"
        ).decode_rounds(symbols)
        _assert_same_decisions(auto, sparse, fft)

    def test_same_seed_noise_identical_across_auto_backends(self):
        """Engine noise: every auto branch consumes the generator alike."""
        config = NetScatterConfig(n_association_shifts=0)
        assignments = {i: 2 * i for i in range(8)}
        rng = np.random.default_rng(9)
        shifts = np.array(list(assignments.values()), dtype=float)
        bins, amps, phases, bt = _random_batch(shifts, 4, 10, rng)
        decodes = [
            NetScatterReceiver(
                config,
                assignments,
                readout="auto",
                planner=_ForcedPlanner(backend),
            ).decode_readout(
                bins,
                amps,
                phases,
                bt,
                noise_snr_db=-18.0,
                rng=np.random.default_rng(77),
            )
            for backend in BACKENDS
        ]
        _assert_same_decisions(decodes[0], *decodes[1:])
        for a, b in zip(decodes, decodes[1:]):
            assert np.allclose(a.noise_power, b.noise_power, rtol=1e-9)

    def test_planner_returning_nonsense_is_rejected(self):
        config = NetScatterConfig(n_association_shifts=0)
        receiver = NetScatterReceiver(
            config,
            {0: 0, 1: 2},
            readout="auto",
            planner=_ForcedPlanner("bogus"),
        )
        bins = np.zeros((1, 2))
        ones = np.ones((1, 2))
        with pytest.raises(DecodingError):
            receiver.decode_readout(bins, ones, bins, np.ones((1, 8, 2)))
        with pytest.raises(DecodingError):
            receiver.decode_rounds(np.zeros((1, 8, 512), dtype=complex))


class TestNoiseCostModel:
    """Engine-noise accounting in the cost model (PR-4).

    The noise term follows the versioned stream layouts of
    :mod:`repro.phy.noise` and is backend-common by construction — it
    must scale the totals without ever flipping the selection.
    """

    def test_payload_cheaper_than_full_everywhere(self):
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        for d in (1, 16, 64, 256):
            full = planner.costs(_workload(d, noise_mode="full"))
            payload = planner.costs(_workload(d, noise_mode="payload"))
            for backend in full:
                assert payload[backend] < full[backend]

    def test_noise_term_is_backend_common(self):
        """Pairwise cost gaps are mode-independent (selection-neutral)."""
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        for d in (8, 64, 256):
            baseline = planner.costs(_workload(d, carry_width=True))
            for mode in ("full", "payload"):
                noisy = planner.costs(_workload(d, noise_mode=mode))
                gaps = {
                    b: noisy[b] - baseline[b] for b in baseline
                }
                values = list(gaps.values())
                assert all(
                    abs(v - values[0]) < 1e-12 for v in values
                ), gaps
                assert values[0] > 0.0

    def test_selection_unchanged_by_noise_mode(self):
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        for d in (1, 32, 100, 145, 200, 256):
            picks = {
                planner.select(_workload(d, carry_width=True)),
                planner.select(_workload(d, noise_mode="full")),
                planner.select(_workload(d, noise_mode="payload")),
            }
            assert len(picks) == 1

    def test_noise_validation(self):
        planner = BackendPlanner(DEFAULT_COEFFICIENTS)
        with pytest.raises(ConfigurationError):
            planner.costs(_workload(8, noise_mode="bogus"))
        with pytest.raises(ConfigurationError):
            planner.costs(
                _workload(8, window_width=0, noise_mode="payload")
            )

    def test_calibrate_measures_gauss_primitive(self):
        coefficients = calibrate()
        assert coefficients.gauss_elem_s > 0
        assert np.isfinite(coefficients.gauss_elem_s)

    def test_v1_schema_files_recalibrated(self, tmp_path):
        """A five-primitive v1 calibration file is ignored, not guessed."""
        path = tmp_path / "calibration.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro-backend-plan-v1",
                    "coefficients": {
                        "real_mac_s": 1e-9,
                        "cplx_mac_s": 1e-9,
                        "fft_elem_s": 1e-9,
                        "exp_elem_s": 1e-9,
                        "ew_pass_s": 1e-9,
                    },
                }
            )
        )
        assert _load_coefficients(path) is None

    def test_persisted_schema_carries_gauss(self, tmp_path):
        path = tmp_path / "calibration.json"
        _persist_coefficients(path, DEFAULT_COEFFICIENTS)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-backend-plan-v2"
        assert "gauss_elem_s" in payload["coefficients"]
        assert _load_coefficients(path) == DEFAULT_COEFFICIENTS
