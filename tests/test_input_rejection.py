"""Every library entry point refuses an impossible argument up front.

One table row per guard: the call, the typed error it must raise and
the words of its message. A guard that stops raising (or starts raising
a different type) would let a NaN floor, an empty population or a
mis-shaped tensor flow into a decode and fail far from its cause, so
each one is pinned here rather than trusted.
"""

import numpy as np
import pytest

from repro.analysis.reports import format_table
from repro.baselines.choir import (
    choir_distinct_fraction_probability,
    choir_same_shift_collision_probability,
)
from repro.channel.awgn import awgn_rounds
from repro.channel.deployment import (
    Deployment,
    generate_office_deployment,
)
from repro.channel.fading import FadingProcess
from repro.channel.link import LinkBudget
from repro.channel.pathloss import indoor_path_loss_db
from repro.core.aggregation import required_aggregation_factor
from repro.core.allocation import AllocationTable
from repro.core.capacity import (
    approximation_error,
    below_noise_approximation_bps,
)
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.receiver import NetScatterReceiver
from repro.errors import (
    AllocationError,
    AssociationError,
    ConfigurationError,
    DecodingError,
    HardwareModelError,
    LinkBudgetError,
    ProtocolError,
    ReproError,
)
from repro.hardware.device import BackscatterDevice
from repro.hardware.impedance import (
    paper_fig7a_series,
    reflection_coefficient,
    solve_z0_for_gain_db,
)
from repro.hardware.oscillator import CrystalOscillator
from repro.hardware.switch_network import SwitchNetwork
from repro.phy.backend_plan import (
    DEFAULT_COEFFICIENTS,
    BackendPlanner,
    ReadoutWorkload,
)
from repro.phy.chirp import ChirpParams
from repro.phy.noise import estimate_noise_floor
from repro.phy.sparse_readout import (
    SparseReadout,
    full_fft_values,
    located_bin_noise_covariance,
)
from repro.phy.spectrum import side_lobe_profile
from repro.protocol.population import (
    Population,
    hybrid_population_round,
    office_population,
    spread_slot_indices,
)
from repro.protocol.scheduler import GroupScheduler
from repro.utils.conversions import freq_offset_to_bins
from repro.utils.stats import cdf_at

SMALL = ChirpParams(bandwidth_hz=125e3, spreading_factor=6)
SMALL_CONFIG = NetScatterConfig(
    bandwidth_hz=125e3, spreading_factor=6, skip=2, n_association_shifts=0
)


def _round_arrays(n_rounds=2, n_devices=3, n_symbols=4):
    """Well-formed ``compose_rounds`` inputs, to break one at a time."""
    return dict(
        effective_bins=np.tile(np.arange(n_devices, dtype=float) * 4.0,
                               (n_rounds, 1)),
        amplitudes=np.ones((n_rounds, n_devices)),
        phases_rad=np.zeros((n_rounds, n_devices)),
        bit_tensor=np.ones((n_rounds, n_symbols, n_devices)),
    )


def _compose_with(**broken):
    arrays = _round_arrays()
    arrays.update(broken)
    return compose_rounds(SMALL, **arrays)


def _tone_workload(**overrides):
    """A tone-input workload with every dimension >= 1 unless overridden,
    so the guard under test is the only one that can fire."""
    fields = dict(
        n_rounds=2, n_symbols=10, n_devices=4, n_samples=64,
        zero_pad_factor=4, window_bins=16, probe_bins=8,
        tone_input=True, window_width=4, n_preamble=6, noise_mode=None,
    )
    fields.update(overrides)
    return ReadoutWorkload(**fields)


def _scheduler_with(*device_ids):
    scheduler = GroupScheduler(max_group_size=8)
    for device_id in device_ids:
        scheduler.add_device(device_id, -5.0)
    return scheduler


REJECTIONS = [
    # analysis / baselines
    pytest.param(lambda: format_table([], ["a"]), ReproError,
                 "no rows", id="format_table-empty"),
    pytest.param(lambda: choir_distinct_fraction_probability(-1),
                 ConfigurationError, "non-negative",
                 id="choir_distinct-negative-count"),
    pytest.param(lambda: choir_same_shift_collision_probability(-1, 9),
                 ConfigurationError, "non-negative",
                 id="choir_collision-negative-count"),
    # channel
    pytest.param(lambda: awgn_rounds(np.complex128(1.0), 0.0, rng=0),
                 LinkBudgetError, "leading round axis",
                 id="awgn_rounds-scalar-signal"),
    pytest.param(lambda: awgn_rounds(np.ones((2, 8)), 0.0, rng=0,
                                     signal_power=0.0),
                 LinkBudgetError, "signal_power",
                 id="awgn_rounds-zero-power"),
    pytest.param(lambda: awgn_rounds(np.ones((2, 8)), [0.0, 1.0, 2.0], rng=0),
                 LinkBudgetError, "one value per round",
                 id="awgn_rounds-snr-per-round-mismatch"),
    pytest.param(lambda: awgn_rounds(np.ones((2, 8)), np.zeros((2, 1)), rng=0),
                 LinkBudgetError, "one value per round",
                 id="awgn_rounds-snr-2d"),
    pytest.param(lambda: Deployment(devices=[], ap_position_m=(0.0, 0.0),
                                    floor_size_m=(1.0, 1.0),
                                    budget=LinkBudget()),
                 ReproError, "no devices", id="deployment-empty"),
    pytest.param(lambda: Deployment.from_snrs(np.zeros((2, 2))),
                 ReproError, "one-dimensional", id="from_snrs-2d"),
    pytest.param(lambda: Deployment.from_snrs([1.0, 2.0], device_ids=[7]),
                 ReproError, "align", id="from_snrs-ids-mismatch"),
    pytest.param(lambda: generate_office_deployment(4, room_size_m=0.0, rng=0),
                 ReproError, "room size", id="office_deployment-zero-room"),
    pytest.param(lambda: FadingProcess(mean_snr_db=0.0).track(1.0, 0.0, rng=0),
                 ReproError, "dt_s", id="fading_track-zero-step"),
    pytest.param(lambda: LinkBudget(bandwidth_hz=0.0), LinkBudgetError,
                 "bandwidth", id="link_budget-zero-bandwidth"),
    pytest.param(lambda: LinkBudget(carrier_freq_hz=-1.0), LinkBudgetError,
                 "carrier", id="link_budget-negative-carrier"),
    pytest.param(lambda: indoor_path_loss_db(0.0, 900e6), LinkBudgetError,
                 "distance", id="path_loss-zero-distance"),
    pytest.param(lambda: indoor_path_loss_db(5.0, 900e6, exponent=0.0),
                 LinkBudgetError, "exponent", id="path_loss-zero-exponent"),
    # core
    pytest.param(lambda: required_aggregation_factor(0, 256),
                 ConfigurationError, "at least one device",
                 id="aggregation-no-devices"),
    pytest.param(lambda: required_aggregation_factor(10, 0),
                 ConfigurationError, "per-band capacity",
                 id="aggregation-zero-capacity"),
    pytest.param(lambda: below_noise_approximation_bps(0.0, -10.0, 4),
                 LinkBudgetError, "bandwidth",
                 id="below_noise-zero-bandwidth"),
    pytest.param(lambda: below_noise_approximation_bps(1e3, -10.0, -1),
                 LinkBudgetError, "non-negative",
                 id="below_noise-negative-count"),
    pytest.param(lambda: approximation_error(-np.inf, 4), LinkBudgetError,
                 "exact capacity is zero", id="approximation_error-zero-snr"),
    pytest.param(lambda: NetScatterConfig(n_association_shifts=-1),
                 ConfigurationError, "n_association_shifts",
                 id="config-negative-association-shifts"),
    pytest.param(lambda: _compose_with(phases_rad=np.zeros((2, 2))),
                 ConfigurationError, "must align",
                 id="compose_rounds-phase-shape"),
    pytest.param(lambda: _compose_with(amplitudes=np.ones((1, 3))),
                 ConfigurationError, "must align",
                 id="compose_rounds-amplitude-shape"),
    pytest.param(lambda: NetScatterReceiver(SMALL_CONFIG, {0: 4})
                 .decode_rounds(np.zeros((2, 8, 32))),
                 DecodingError, "symbol tensor must be",
                 id="decode_rounds-wrong-symbol-length"),
    pytest.param(lambda: NetScatterReceiver(SMALL_CONFIG, {0: 4})
                 .decode_rounds(np.zeros((8, 64))),
                 DecodingError, "symbol tensor must be",
                 id="decode_rounds-missing-round-axis"),
    pytest.param(lambda: NetScatterReceiver(SMALL_CONFIG, {0: 4})
                 .decode_rounds(np.zeros((2, 8, 64)),
                                noise_snr_db=[0.0, 1.0, 2.0], rng=0),
                 DecodingError, "one value per round",
                 id="decode_rounds-noise-per-round-mismatch"),
    pytest.param(lambda: NetScatterReceiver(SMALL_CONFIG, {0: 4})
                 .decode_rounds(np.zeros((1, 8, 64))).frame(1),
                 DecodingError, "out of range", id="rounds_decode-frame-past-end"),
    pytest.param(lambda: NetScatterReceiver(SMALL_CONFIG, {0: 4})
                 .decode_rounds(np.zeros((1, 8, 64))).frame(-1),
                 DecodingError, "out of range", id="rounds_decode-frame-negative"),
    # hardware
    pytest.param(lambda: BackscatterDevice(-1, SMALL), HardwareModelError,
                 "device_id", id="device-negative-id"),
    pytest.param(lambda: reflection_coefficient(50.0, z_antenna_ohm=0.0),
                 HardwareModelError, "antenna impedance",
                 id="reflection-zero-antenna"),
    pytest.param(lambda: solve_z0_for_gain_db(-3.0, z1_ohm=0.0),
                 HardwareModelError, "not realisable",
                 id="solve_z0-short-z1"),
    pytest.param(lambda: paper_fig7a_series(n_points=1), HardwareModelError,
                 "two sweep points", id="fig7a-one-point"),
    pytest.param(lambda: CrystalOscillator(3e6, tolerance_ppm=-1.0),
                 HardwareModelError, "ppm", id="oscillator-negative-tolerance"),
    pytest.param(lambda: CrystalOscillator(3e6, drift_ppm_std=-0.1),
                 HardwareModelError, "ppm", id="oscillator-negative-drift"),
    pytest.param(lambda: CrystalOscillator(3e6).calibrate_from_unit(1.5),
                 HardwareModelError, "unit draw",
                 id="oscillator-unit-draw-out-of-range"),
    pytest.param(lambda: CrystalOscillator(3e6).offset_series_hz(0, rng=0),
                 HardwareModelError, "at least one measurement",
                 id="oscillator-empty-series"),
    pytest.param(lambda: SwitchNetwork(()), HardwareModelError,
                 "at least one power level", id="switch-no-levels"),
    # phy
    pytest.param(lambda: BackendPlanner(DEFAULT_COEFFICIENTS)
                 .costs(_tone_workload(n_devices=0)),
                 ConfigurationError, "n_devices >= 1",
                 id="planner-tone-input-without-devices"),
    pytest.param(lambda: BackendPlanner(DEFAULT_COEFFICIENTS)
                 .costs(_tone_workload(window_width=0, noise_mode="payload")),
                 ConfigurationError, "window_width >= 1",
                 id="planner-noise-without-window-width"),
    pytest.param(lambda: estimate_noise_floor(np.empty((2, 0))),
                 DecodingError, "no fallback powers",
                 id="noise_floor-no-candidates-no-fallback"),
    pytest.param(lambda: estimate_noise_floor(np.empty((2, 0)),
                                              np.empty((2, 0))),
                 DecodingError, "must not be empty",
                 id="noise_floor-empty-fallback"),
    pytest.param(lambda: located_bin_noise_covariance(SMALL, 4, width=0),
                 DecodingError, "width", id="located_covariance-zero-width"),
    pytest.param(lambda: located_bin_noise_covariance(SMALL, 0),
                 DecodingError, "zero_pad_factor",
                 id="located_covariance-zero-pad"),
    pytest.param(lambda: SparseReadout(SMALL, 0, np.arange(4)),
                 DecodingError, "zero_pad_factor", id="sparse_readout-zero-pad"),
    pytest.param(lambda: SparseReadout(SMALL, 4, np.array([], dtype=int)),
                 DecodingError, "at least one readout bin",
                 id="sparse_readout-no-bins"),
    pytest.param(lambda: SparseReadout(SMALL, 4, np.arange(4))
                 .spectrum(np.zeros(32)),
                 DecodingError, "expected 64 samples",
                 id="sparse_readout-short-symbol"),
    pytest.param(lambda: full_fft_values(SMALL, 4, np.zeros((2, 63))),
                 DecodingError, "expected 64 samples",
                 id="full_fft_values-short-symbol"),
    pytest.param(lambda: side_lobe_profile(SMALL, 4).worst_side_lobe_beyond(40.0),
                 ConfigurationError, "half the spectrum",
                 id="side_lobe-offset-past-half"),
    pytest.param(lambda: side_lobe_profile(SMALL, 4).worst_in_range(1.0, 64.0),
                 ConfigurationError, "exceeds the spectrum",
                 id="side_lobe-range-past-end"),
    # protocol
    pytest.param(lambda: Population().bulk_add([1, 2], [0.0]),
                 AllocationError, "aligned", id="population-bulk-misaligned"),
    pytest.param(lambda: Population().bulk_add([[1]], [[0.0]]),
                 AllocationError, "1-D", id="population-bulk-2d"),
    pytest.param(lambda: spread_slot_indices(5, 4), AllocationError,
                 "more devices than slots", id="spread_slots-overfull"),
    pytest.param(lambda: office_population(0, rng=0), ConfigurationError,
                 "at least one device", id="office_population-empty"),
    pytest.param(lambda: hybrid_population_round(Population()),
                 ConfigurationError, "population is empty",
                 id="hybrid_round-empty-population"),
    pytest.param(lambda: _scheduler_with().bulk_add([1], [0.0],
                                                    duty_cycle_rounds=0),
                 ProtocolError, "duty cycle", id="scheduler-bulk-zero-duty"),
    pytest.param(lambda: _scheduler_with().bulk_add([1, 1], [0.0, 1.0]),
                 ProtocolError, "duplicate", id="scheduler-bulk-duplicate"),
    pytest.param(lambda: _scheduler_with(3).bulk_add([2, 3], [0.0, 1.0]),
                 ProtocolError, "device 3 already scheduled",
                 id="scheduler-bulk-already-scheduled"),
    pytest.param(lambda: _scheduler_with(3).group_of(4), ProtocolError,
                 "device 4 is not scheduled", id="scheduler-group_of-unknown"),
    pytest.param(lambda: AllocationTable(SMALL_CONFIG).bulk_add(
                     range(SMALL_CONFIG.max_devices + 1),
                     np.zeros(SMALL_CONFIG.max_devices + 1)),
                 AllocationError, "network full", id="allocation-bulk-overfull"),
    # utils
    pytest.param(lambda: freq_offset_to_bins(100.0, 0.0, 9), LinkBudgetError,
                 "bandwidth", id="freq_offset_to_bins-zero-bandwidth"),
    pytest.param(lambda: cdf_at([], 0.0), ReproError, "empty sample set",
                 id="cdf_at-empty"),
]


@pytest.mark.parametrize("call, error, words", REJECTIONS)
def test_rejected_with_typed_error(call, error, words):
    with pytest.raises(error, match=words):
        call()


def test_mid_association_request_is_refused():
    """A device that sent a request and holds no grant yet cannot ask
    again: the controller would otherwise admit it twice."""
    from repro.protocol.association import AssociationController
    from repro.protocol.population import PHASE_REQUESTED

    controller = AssociationController(SMALL_CONFIG)
    controller.handle_request(5, 10.0)
    population = controller.table.population
    population.phase[population.row_of(5)] = PHASE_REQUESTED
    with pytest.raises(AssociationError, match="mid-association"):
        controller.handle_request(5, 10.0)
