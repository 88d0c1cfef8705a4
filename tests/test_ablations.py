"""Ablations of the paper's design choices, each run once at a fixed seed.

* power-aware vs random cyclic-shift allocation at fixed dynamic range,
* packet delivery vs SKIP under measured jitter,
* 3-level power control on/off under fading,
* bandwidth aggregation: one aggregate FFT vs filtered sub-bands,
* zero padding vs an unpadded FFT at threshold SNR,
* the dechirp + FFT read across spreading factors,
* receiver work vs the number of concurrent devices (the paper's
  single-FFT claim), counted in transformed elements.
"""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.core import receiver as receiver_module
from repro.core.aggregation import AggregateBand, compare_receiver_costs
from repro.core.allocation import power_aware_allocation, random_allocation
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.power_control import simulate_power_control
from repro.core.receiver import NetScatterReceiver
from repro.hardware.mcu import McuTimingModel
from repro.phy.chirp import ChirpParams, cyclic_shifted_upchirp
from repro.phy.demodulation import Demodulator


def _delivered(receiver, bins, amplitudes, phases, payload, snr_db, rng):
    """Decode one noisy round; the number of devices whose payload
    came back whole."""
    n = bins.size
    bit_matrix = np.vstack([np.ones((6, n)), payload])
    symbols = compose_rounds(
        receiver.config.chirp_params,
        bins[None], amplitudes[None], phases[None], bit_matrix[None],
    )
    decode = receiver.decode_rounds(awgn(symbols, snr_db, rng)).frame(0)
    return sum(
        list(decode.devices[d].bits) == payload[:, d].tolist()
        for d in range(n)
    )


def _round_delivery(config, assignments, snrs_db, rng, n_rounds=3):
    """Packet delivery ratio of jittered concurrent rounds."""
    params = config.chirp_params
    timing = McuTimingModel()
    n = len(snrs_db)
    amplitudes = 10.0 ** ((np.asarray(snrs_db) - min(snrs_db)) / 20.0)
    receiver = NetScatterReceiver(config, assignments)
    delivered = 0
    for _ in range(n_rounds):
        delays = np.array(
            [timing.sample_latency_s(rng) for _ in range(n)]
        )
        delays -= delays.mean()
        bins = (
            np.array([assignments[i] for i in range(n)], dtype=float)
            - delays * params.bandwidth_hz
        )
        phases = rng.uniform(0, 2 * np.pi, size=n)
        payload = rng.integers(0, 2, size=(20, n))
        delivered += _delivered(
            receiver, bins, amplitudes, phases, payload,
            float(min(snrs_db)), rng,
        )
    return delivered / (n_rounds * n)


def test_ablation_allocation():
    """Power-aware allocation must beat SNR-blind allocation at equal
    dynamic range (the Section 3.2.3 design claim)."""
    config = NetScatterConfig(n_association_shifts=0)
    snrs = np.linspace(0.0, 35.0, 128).tolist()
    aware = power_aware_allocation(snrs, config)
    blind = random_allocation(len(snrs), config, np.random.default_rng(7))
    d_aware = _round_delivery(config, aware, snrs, np.random.default_rng(8))
    d_blind = _round_delivery(config, blind, snrs, np.random.default_rng(8))
    assert d_aware > d_blind
    assert d_aware > 0.9


def test_ablation_skip():
    """Delivery vs guard spacing under measured jitter.

    Devices are pinned at exactly ``skip`` bins apart (the allocator's
    under-capacity spreading would otherwise hide the guard), so this
    isolates Section 3.2.1's trade-off: adjacent bins (SKIP = 1)
    collapse under per-packet jitter; one empty bin (SKIP = 2) holds.
    """
    snrs = np.linspace(0.0, 10.0, 64).tolist()
    outcomes = {}
    for skip in (1, 2, 3, 4):
        config = NetScatterConfig(skip=skip, n_association_shifts=0)
        assignments = {i: i * skip for i in range(len(snrs))}
        outcomes[skip] = _round_delivery(
            config, assignments, snrs, np.random.default_rng(9)
        )
    assert outcomes[2] > outcomes[1]
    assert outcomes[2] > 0.85
    assert outcomes[4] >= outcomes[2] - 0.05


def test_ablation_power_control():
    """3-level self power adjustment shrinks effective-SNR wander under
    strong fading (Section 3.2.3's fine-grained half)."""
    snrs = np.linspace(0.0, 25.0, 32).tolist()

    def wander(enabled):
        run = simulate_power_control(
            snrs, n_rounds=300, enabled=enabled, fading_std_db=6.0, rng=1
        )
        return float(np.mean(np.std(run["effective_snr_db"], axis=0)))

    assert wander(True) < wander(False)


def test_ablation_aggregation():
    """Bandwidth aggregation: the single 2*2^SF FFT decodes devices in
    both sub-bands and costs about the same FFT work as two filtered
    bands — without the filters (Section 3.1)."""
    params = ChirpParams(bandwidth_hz=250e3, spreading_factor=8)
    band = AggregateBand(params, aggregation_factor=2)
    rng = np.random.default_rng(44)
    active = [10, 100, 300, 500]
    symbol = awgn(band.compose_symbol(active, rng=rng), 0.0, rng)
    decoded = set(band.decode_slots(symbol, threshold_ratio=0.3))
    costs = compare_receiver_costs(band)
    assert set(active) <= decoded
    assert costs["aggregate_over_filtered"] < 1.5


def test_ablation_zero_padding():
    """Sub-bin resolution ablation: with realistic fractional offsets,
    zero-padding (zp = 10, the Choir-derived choice) must beat an
    unpadded FFT (zp = 1), whose half-bin quantisation misreads peaks."""
    n = 32
    # Near-sensitivity SNR: the up-to-4 dB scalloping loss of an
    # unpadded FFT reading a fractionally offset peak becomes decisive.
    snr_db = -13.0
    shifts = {i: int(i * 16) for i in range(n)}

    def delivery_for(zp):
        config = NetScatterConfig(zero_pad_factor=zp, n_association_shifts=0)
        receiver = NetScatterReceiver(config, shifts)
        generator = np.random.default_rng(10)
        delivered, n_rounds = 0, 4
        for _ in range(n_rounds):
            offsets = generator.uniform(-0.45, 0.45, size=n)
            bins = np.array(list(shifts.values()), dtype=float) + offsets
            payload = generator.integers(0, 2, size=(20, n))
            phases = generator.uniform(0, 2 * np.pi, size=n)
            delivered += _delivered(
                receiver, bins, np.ones(n), phases, payload, snr_db,
                generator,
            )
        return delivered / (n_rounds * n)

    outcomes = {zp: delivery_for(zp) for zp in (1, 2, 10)}
    # At threshold SNR the padded read buys several points of delivery
    # (scalloping recovery); we assert the ordering, not an absolute.
    assert outcomes[10] > outcomes[1] + 0.02
    assert outcomes[2] >= outcomes[1]


@pytest.mark.parametrize("sf", [7, 9, 11])
def test_decoder_cost_vs_spreading_factor(sf):
    """The dechirp + zero-padded FFT read finds a device's cyclic shift
    at every SF: the per-symbol work grows with 2^SF (longer symbols),
    but each symbol carries one bit from every concurrent device."""
    params = ChirpParams(bandwidth_hz=500e3, spreading_factor=sf)
    symbol = np.asarray(cyclic_shifted_upchirp(params, 3))
    assert round(Demodulator(params).dechirp(symbol).peak_bin()) == 3


def test_receiver_complexity_constant(monkeypatch):
    """The paper's receiver-complexity claim, counted: decoding 16 or
    256 concurrent devices from equal-shape symbol tensors transforms
    the same padded-FFT elements, one transform per received symbol
    (only the per-device bin reads grow with the device count)."""
    config = NetScatterConfig(n_association_shifts=0)
    params = config.chirp_params
    n_rounds, n_payload = 2, 20
    padded = params.n_samples * config.zero_pad_factor
    fft = receiver_module.full_fft_values
    transformed = []

    def counting_fft(params, zp, symbols, *args, **kwargs):
        transformed.append(np.shape(symbols)[0] * params.n_samples * zp)
        return fft(params, zp, symbols, *args, **kwargs)

    monkeypatch.setattr(receiver_module, "full_fft_values", counting_fft)
    work = {}
    for n_devices in (16, 256):
        rng = np.random.default_rng(n_devices)
        shifts = {d: d * config.skip for d in range(n_devices)}
        bins = np.tile(np.array(list(shifts.values()), float), (n_rounds, 1))
        payload = rng.integers(0, 2, size=(n_rounds, n_payload, n_devices))
        bit_tensor = np.concatenate(
            [np.ones((n_rounds, 6, n_devices)), payload], axis=1
        )
        symbols = compose_rounds(
            params, bins, np.ones_like(bins),
            rng.uniform(0, 2 * np.pi, bins.shape), bit_tensor,
        )
        receiver = NetScatterReceiver(config, shifts, readout="fft")
        transformed.clear()
        decode = receiver.decode_rounds(awgn(symbols, 0.0, rng))
        work[n_devices] = (len(transformed), sum(transformed))
        assert np.mean(decode.bits == payload) > 0.99
    assert work[16] == work[256]
    assert work[256][1] == n_rounds * (6 + n_payload) * padded
