"""Fig. 17 — network PHY rate vs number of concurrent devices.

Four schemes over the 256-device office deployment:

* LoRa backscatter without rate adaptation (fixed 8.7 kbps, TDMA),
* LoRa backscatter with ideal rate adaptation (SX1276 SNR table, TDMA),
* NetScatter ideal (every device at BW / 2^SF, perfect delivery),
* NetScatter measured (round simulation with jitter, CFO, near-far).

The headline shape: NetScatter scales ~linearly to ~250 kbps at 256
devices (with visible variance as SKIP tightens to 2), while both TDMA
baselines stay flat; the paper reports 26.2x / 6.8x gains at 256.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.lora_backscatter import LoRaBackscatterNetwork
from repro.channel.deployment import Deployment
from repro.core.config import NetScatterConfig
from repro.experiments.common import ExperimentResult, netscatter_sweep
from repro.protocol.network import DEFAULT_DEVICE_COUNTS, SWEEP_CONFIG
from repro.utils.rng import RngLike

PAPER_GAIN_OVER_FIXED = 26.2
PAPER_GAIN_OVER_RA = 6.8


def run(
    deployment: Optional[Deployment] = None,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    n_rounds: int = 3,
    rng: RngLike = None,
    engine: str = "auto",
) -> ExperimentResult:
    """Sweep device counts and tabulate all four schemes' PHY rates.

    The NetScatter points run through
    :func:`~repro.protocol.network.sweep_device_counts` under the
    occupancy-adaptive ``"auto"`` engine by default — the calibrated
    backend planner keeps small counts on the analytic
    Dirichlet-kernel path and moves the near-full-occupancy points
    (the 224/256-device tail, where ``D ~ N/2``) onto the padded FFT,
    with bit-identical decisions. Pass ``engine="analytic"`` to pin
    the closed-form path, or ``engine="time"`` for the reference
    time-domain path. The campaign CLI's ``run --spec fig17`` computes
    the same points with a store (shared with Fig. 18), a process pool
    and retries.
    """
    config = NetScatterConfig(**SWEEP_CONFIG)
    deployment, device_counts, sweep = netscatter_sweep(
        deployment, device_counts, config, n_rounds, rng, engine
    )

    result = ExperimentResult(
        experiment_id="fig17",
        title="Network PHY rate vs concurrent devices (kbps)",
        columns=[
            "n_devices",
            "lora_fixed_kbps",
            "lora_ra_kbps",
            "netscatter_ideal_kbps",
            "netscatter_kbps",
        ],
    )
    netscatter_rates = []
    for count, metrics in zip(device_counts, sweep):
        snrs = deployment.subset(count).snrs_db().tolist()
        fixed = LoRaBackscatterNetwork(snrs, rate_adaptation=False)
        adaptive = LoRaBackscatterNetwork(snrs, rate_adaptation=True)
        ideal = count * config.device_bitrate_bps
        netscatter_rates.append(metrics.phy_rate_bps)
        result.rows.append(
            {
                "n_devices": count,
                "lora_fixed_kbps": fixed.network_phy_rate_bps() / 1e3,
                "lora_ra_kbps": adaptive.network_phy_rate_bps() / 1e3,
                "netscatter_ideal_kbps": ideal / 1e3,
                "netscatter_kbps": metrics.phy_rate_bps / 1e3,
            }
        )

    last = result.rows[-1]
    gain_fixed = last["netscatter_kbps"] / last["lora_fixed_kbps"]
    gain_ra = last["netscatter_kbps"] / last["lora_ra_kbps"]
    rates = np.array(netscatter_rates)
    counts = np.array(list(device_counts), dtype=float)
    result.check(
        "NetScatter PHY rate scales ~linearly with device count "
        "(r > 0.99)",
        bool(np.corrcoef(counts, rates)[0, 1] > 0.99),
    )
    result.check(
        "LoRa baselines stay flat while NetScatter grows",
        last["netscatter_kbps"] > 5.0 * last["lora_ra_kbps"],
    )
    result.check(
        f"gain over fixed-rate LoRa near the paper's "
        f"{PAPER_GAIN_OVER_FIXED}x (within 2x)",
        PAPER_GAIN_OVER_FIXED / 2.0
        <= gain_fixed
        <= PAPER_GAIN_OVER_FIXED * 2.0,
    )
    result.check(
        f"gain over rate-adapted LoRa near the paper's "
        f"{PAPER_GAIN_OVER_RA}x (within 2x)",
        PAPER_GAIN_OVER_RA / 2.0 <= gain_ra <= PAPER_GAIN_OVER_RA * 2.0,
    )
    result.notes.append(
        f"at 256 devices: {gain_fixed:.1f}x over fixed "
        f"(paper {PAPER_GAIN_OVER_FIXED}x), {gain_ra:.1f}x over RA "
        f"(paper {PAPER_GAIN_OVER_RA}x)"
    )
    return result
