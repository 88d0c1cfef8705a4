"""Fig. 19 — network latency vs number of concurrent devices.

The time for the AP to collect one payload from every device: one shared
round for NetScatter (query + preamble + 40 payload symbols, ~49 ms at
config 1 regardless of device count) versus a sum of sequential polls for
the TDMA baselines (~3.3 s at 256 devices without rate adaptation).
Paper reductions at 256: 67.0x / 15.3x (config 1) and 55.1x / 12.6x
(config 2) over LoRa without / with rate adaptation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.airtime import netscatter_network_latency_s
from repro.baselines.lora_backscatter import LoRaBackscatterNetwork
from repro.channel.deployment import Deployment
from repro.constants import QUERY_BITS_CONFIG1, QUERY_BITS_CONFIG2
from repro.core.config import NetScatterConfig
from repro.experiments.common import ExperimentResult, sweep_deployment
from repro.protocol.network import DEFAULT_DEVICE_COUNTS, SWEEP_CONFIG
from repro.utils.rng import RngLike, make_rng

PAPER_REDUCTIONS = {
    ("config1", "fixed"): 67.0,
    ("config1", "ra"): 15.3,
    ("config2", "fixed"): 55.1,
    ("config2", "ra"): 12.6,
}


def run(
    deployment: Optional[Deployment] = None,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    rng: RngLike = None,
) -> ExperimentResult:
    """Latency accounting across device counts for all schemes."""
    deployment, device_counts = sweep_deployment(
        deployment, device_counts, make_rng(rng)
    )
    config = NetScatterConfig(**SWEEP_CONFIG)

    cfg1_latency = netscatter_network_latency_s(config, QUERY_BITS_CONFIG1)
    cfg2_latency = netscatter_network_latency_s(config, QUERY_BITS_CONFIG2)

    result = ExperimentResult(
        experiment_id="fig19",
        title="Network latency vs concurrent devices (ms)",
        columns=[
            "n_devices",
            "lora_fixed_ms",
            "lora_ra_ms",
            "netscatter_cfg1_ms",
            "netscatter_cfg2_ms",
        ],
    )
    for count in device_counts:
        subset = deployment.subset(count)
        snrs = subset.snrs_db().tolist()
        fixed = LoRaBackscatterNetwork(snrs, rate_adaptation=False)
        adaptive = LoRaBackscatterNetwork(snrs, rate_adaptation=True)
        result.rows.append(
            {
                "n_devices": count,
                "lora_fixed_ms": fixed.network_latency_s() * 1e3,
                "lora_ra_ms": adaptive.network_latency_s() * 1e3,
                "netscatter_cfg1_ms": cfg1_latency * 1e3,
                "netscatter_cfg2_ms": cfg2_latency * 1e3,
            }
        )

    last = result.rows[-1]
    reductions: Dict = {
        ("config1", "fixed"): last["lora_fixed_ms"]
        / last["netscatter_cfg1_ms"],
        ("config1", "ra"): last["lora_ra_ms"] / last["netscatter_cfg1_ms"],
        ("config2", "fixed"): last["lora_fixed_ms"]
        / last["netscatter_cfg2_ms"],
        ("config2", "ra"): last["lora_ra_ms"] / last["netscatter_cfg2_ms"],
    }
    for key, paper_value in PAPER_REDUCTIONS.items():
        measured = reductions[key]
        result.check(
            f"{key[0]} vs {key[1]}: latency reduction near the paper's "
            f"{paper_value}x (within 2x)",
            paper_value / 2.0 <= measured <= paper_value * 2.0,
        )
    result.check(
        "NetScatter latency is flat in the device count",
        True,  # by construction: one shared round
    )
    result.check(
        "TDMA latency grows linearly with the device count",
        last["lora_fixed_ms"]
        > 100.0 * result.rows[0]["lora_fixed_ms"] * 0.9,
    )
    result.notes.append(
        "measured reductions at 256: "
        + ", ".join(
            f"{k[0]}/{k[1]} {reductions[k]:.1f}x (paper {v}x)"
            for k, v in PAPER_REDUCTIONS.items()
        )
    )
    return result
