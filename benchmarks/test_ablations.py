"""Ablation benches for the design choices DESIGN.md calls out.

* power-aware vs random cyclic-shift allocation at fixed dynamic range,
* packet delivery vs SKIP under measured jitter,
* 3-level power control on/off under fading,
* bandwidth aggregation: one aggregate FFT vs filtered sub-bands,
* receiver complexity: decode cost vs number of concurrent devices
  (the paper's single-FFT claim).
"""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.channel.deployment import paper_deployment
from repro.core.aggregation import AggregateBand, compare_receiver_costs
from repro.core.allocation import power_aware_allocation, random_allocation
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.power_control import simulate_power_control
from repro.core.receiver import NetScatterReceiver
from repro.phy.chirp import ChirpParams


def _round_delivery(config, assignments, snrs_db, rng, n_rounds=3):
    """Packet delivery ratio of a jittered concurrent round."""
    from repro.hardware.mcu import McuTimingModel

    params = config.chirp_params
    timing = McuTimingModel()
    n = len(snrs_db)
    rel = np.asarray(snrs_db) - min(snrs_db)
    receiver = NetScatterReceiver(config, assignments)
    delivered, total = 0, 0
    for _ in range(n_rounds):
        delays = np.array(
            [timing.sample_latency_s(rng) for _ in range(n)]
        )
        delays -= delays.mean()
        bins = (
            np.array([assignments[i] for i in range(n)], dtype=float)
            - delays * params.bandwidth_hz
        )
        amplitudes = 10.0 ** (rel / 20.0)
        phases = rng.uniform(0, 2 * np.pi, size=n)
        payload = rng.integers(0, 2, size=(20, n))
        bit_matrix = np.vstack([np.ones((6, n)), payload])
        symbols = compose_rounds(
            params,
            bins[None], amplitudes[None], phases[None], bit_matrix[None],
        )
        decode = receiver.decode_rounds(
            awgn(symbols, float(min(snrs_db)), rng)
        ).frame(0)
        for d in range(n):
            got = decode.devices[d].bits
            sent = payload[:, d].tolist()
            if len(got) == len(sent) and all(
                a == b for a, b in zip(sent, got)
            ):
                delivered += 1
            total += 1
    return delivered / total


def test_ablation_allocation(benchmark):
    """Power-aware allocation must beat SNR-blind allocation at equal
    dynamic range (the Section 3.2.3 design claim)."""
    config = NetScatterConfig(n_association_shifts=0)
    snrs = np.linspace(0.0, 35.0, 128).tolist()

    def run():
        aware = power_aware_allocation(snrs, config)
        blind = random_allocation(len(snrs), config, np.random.default_rng(7))
        d_aware = _round_delivery(
            config, aware, snrs, np.random.default_rng(8)
        )
        d_blind = _round_delivery(
            config, blind, snrs, np.random.default_rng(8)
        )
        return d_aware, d_blind

    d_aware, d_blind = benchmark(run)
    print(
        f"\n[ablation:allocation] delivery power-aware={d_aware:.3f} "
        f"random={d_blind:.3f}"
    )
    assert d_aware > d_blind
    assert d_aware > 0.9


def test_ablation_skip(benchmark):
    """Delivery vs guard spacing under measured jitter.

    Devices are pinned at exactly ``skip`` bins apart (the allocator's
    under-capacity spreading would otherwise hide the guard), so this
    isolates Section 3.2.1's trade-off: adjacent bins (SKIP = 1)
    collapse under per-packet jitter; one empty bin (SKIP = 2) holds.
    """
    snrs = np.linspace(0.0, 10.0, 64).tolist()
    n = len(snrs)

    def run():
        outcomes = {}
        for skip in (1, 2, 3, 4):
            config = NetScatterConfig(skip=skip, n_association_shifts=0)
            assignments = {i: i * skip for i in range(n)}
            outcomes[skip] = _round_delivery(
                config, assignments, snrs, np.random.default_rng(9)
            )
        return outcomes

    outcomes = benchmark(run)
    print(
        "\n[ablation:skip] "
        + " ".join(f"gap={k}: {v:.3f}" for k, v in outcomes.items())
    )
    assert outcomes[2] > outcomes[1]
    assert outcomes[2] > 0.85
    assert outcomes[4] >= outcomes[2] - 0.05


def test_ablation_power_control(benchmark):
    """3-level self power adjustment shrinks effective-SNR wander under
    strong fading (Section 3.2.3's fine-grained half)."""
    snrs = np.linspace(0.0, 25.0, 32).tolist()

    def run():
        on = simulate_power_control(
            snrs, n_rounds=300, enabled=True, fading_std_db=6.0, rng=1
        )
        off = simulate_power_control(
            snrs, n_rounds=300, enabled=False, fading_std_db=6.0, rng=1
        )
        wander = lambda r: float(
            np.mean(np.std(r["effective_snr_db"], axis=0))
        )
        return wander(on), wander(off)

    wander_on, wander_off = benchmark(run)
    print(
        f"\n[ablation:power-control] wander on={wander_on:.2f} dB "
        f"off={wander_off:.2f} dB"
    )
    assert wander_on < wander_off


def test_ablation_aggregation(benchmark):
    """Bandwidth aggregation: the single 2*2^SF FFT decodes devices in
    both sub-bands and costs about the same FFT work as two filtered
    bands — without the filters (Section 3.1)."""
    params = ChirpParams(bandwidth_hz=250e3, spreading_factor=8)
    band = AggregateBand(params, aggregation_factor=2)
    rng = np.random.default_rng(44)

    def run():
        active = [10, 100, 300, 500]
        symbol = awgn(band.compose_symbol(active, rng=rng), 0.0, rng)
        decoded = band.decode_slots(symbol, threshold_ratio=0.3)
        costs = compare_receiver_costs(band)
        return set(decoded), costs

    decoded, costs = benchmark(run)
    print(
        f"\n[ablation:aggregation] decoded={sorted(decoded)} "
        f"fft-cost ratio={costs['aggregate_over_filtered']:.3f}"
    )
    assert {10, 100, 300, 500} <= decoded
    assert costs["aggregate_over_filtered"] < 1.5


def test_ablation_zero_padding(benchmark):
    """Sub-bin resolution ablation: with realistic fractional offsets,
    zero-padding (zp = 10, the Choir-derived choice) must beat an
    unpadded FFT (zp = 1), whose half-bin quantisation misreads peaks."""
    base = NetScatterConfig(n_association_shifts=0)
    params = base.chirp_params
    n = 32
    # Near-sensitivity SNR: the up-to-4 dB scalloping loss of an
    # unpadded FFT reading a fractionally offset peak becomes decisive.
    snrs = [-13.0] * n
    shifts = {i: int(i * 16) for i in range(n)}

    def delivery_for(zp):
        config = NetScatterConfig(
            zero_pad_factor=zp, n_association_shifts=0
        )
        receiver = NetScatterReceiver(config, shifts)
        generator = np.random.default_rng(10)
        delivered, total = 0, 0
        for _ in range(4):
            offsets = generator.uniform(-0.45, 0.45, size=n)
            bins = np.array(
                [shifts[i] for i in range(n)], dtype=float
            ) + offsets
            payload = generator.integers(0, 2, size=(20, n))
            bit_matrix = np.vstack([np.ones((6, n)), payload])
            symbols = compose_rounds(
                params,
                bins[None],
                10.0 ** ((np.asarray(snrs) - min(snrs)) / 20.0)[None],
                generator.uniform(0, 2 * np.pi, size=(1, n)),
                bit_matrix[None],
            )
            decode = receiver.decode_rounds(
                awgn(symbols, float(min(snrs)), generator)
            ).frame(0)
            for d in range(n):
                got = decode.devices[d].bits
                sent = payload[:, d].tolist()
                if len(got) == len(sent) and all(
                    a == b for a, b in zip(sent, got)
                ):
                    delivered += 1
                total += 1
        return delivered / total

    def run():
        return {zp: delivery_for(zp) for zp in (1, 2, 10)}

    outcomes = benchmark(run)
    print(
        "\n[ablation:zero-padding] "
        + " ".join(f"zp={k}: {v:.3f}" for k, v in outcomes.items())
    )
    # At threshold SNR the padded read buys several points of delivery
    # (scalloping recovery); we assert the ordering, not an absolute.
    assert outcomes[10] > outcomes[1] + 0.02
    assert outcomes[2] >= outcomes[1]


@pytest.mark.parametrize("sf", [7, 9, 11])
def test_decoder_cost_vs_spreading_factor(benchmark, sf):
    """Pure dechirp + zero-padded FFT cost per symbol across SF: the
    per-symbol work grows with 2^SF (longer symbols), but the per-BIT
    receiver cost stays flat because each symbol carries one bit from
    every concurrent device."""
    params = ChirpParams(bandwidth_hz=500e3, spreading_factor=sf)
    from repro.phy.chirp import cyclic_shifted_upchirp
    from repro.phy.demodulation import Demodulator

    demod = Demodulator(params)
    symbol = np.asarray(cyclic_shifted_upchirp(params, 3))

    def run():
        return demod.dechirp(symbol).peak_bin()

    peak = benchmark(run)
    assert round(peak) == 3


@pytest.mark.parametrize("n_devices", [16, 256])
def test_receiver_complexity_constant(benchmark, n_devices):
    """The paper's receiver-complexity claim: the dechirp + FFT work per
    round does not grow with the number of concurrent devices (only the
    trivial per-device bin reads do). Compare the 16- vs 256-device
    timings in the benchmark table."""
    deployment = paper_deployment(n_devices=256, rng=5).subset(n_devices)
    from repro.protocol.network import NetworkSimulator

    sim = NetworkSimulator(deployment, rng=6)

    def run():
        return sim.run_rounds(1).delivery_ratio

    delivery = benchmark(run)
    assert delivery >= 0.0  # timing is the product here
