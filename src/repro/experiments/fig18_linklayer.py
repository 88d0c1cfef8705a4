"""Fig. 18 — link-layer data rate vs number of concurrent devices.

Adds the end-to-end overheads to Fig. 17's payload-only comparison: the
AP query (32 bits for NetScatter config 1, 1760 bits for config 2, 28
bits per poll for LoRa) and the 8-symbol preamble — which NetScatter pays
once per round for everyone and TDMA pays once per device. Paper gains at
256 devices: 61.9x / 14.1x (config 1) and 50.9x / 11.6x (config 2) over
LoRa without / with rate adaptation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.airtime import netscatter_round_airtime_s
from repro.baselines.lora_backscatter import LoRaBackscatterNetwork
from repro.channel.deployment import Deployment
from repro.constants import QUERY_BITS_CONFIG2
from repro.core.config import NetScatterConfig
from repro.experiments.common import ExperimentResult, netscatter_sweep
from repro.phy.packet import PacketStructure
from repro.protocol.network import DEFAULT_DEVICE_COUNTS, SWEEP_CONFIG
from repro.utils.rng import RngLike

PAPER_GAINS = {
    ("config1", "fixed"): 61.9,
    ("config1", "ra"): 14.1,
    ("config2", "fixed"): 50.9,
    ("config2", "ra"): 11.6,
}


def run(
    deployment: Optional[Deployment] = None,
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    n_rounds: int = 3,
    rng: RngLike = None,
    engine: str = "auto",
) -> ExperimentResult:
    """Sweep device counts; tabulate link-layer rates for all schemes.

    The PHY decode is query-length agnostic, so each count runs *one*
    batched sweep point (occupancy-adaptive ``"auto"`` engine by
    default, which shifts the near-full-occupancy tail onto the padded
    FFT) and both NetScatter configurations are accounted from the same
    per-round goodput — the config-2 rate just divides by its
    longer-query round air time. The points are Fig. 17's under the
    same base seed; the campaign CLI's ``run --spec fig18`` serves
    them from a store Fig. 17's campaign filled.
    """
    config = NetScatterConfig(**SWEEP_CONFIG)
    deployment, device_counts, sweep = netscatter_sweep(
        deployment, device_counts, config, n_rounds, rng, engine
    )

    result = ExperimentResult(
        experiment_id="fig18",
        title="Link-layer data rate vs concurrent devices (kbps)",
        columns=[
            "n_devices",
            "lora_fixed_kbps",
            "lora_ra_kbps",
            "netscatter_cfg1_kbps",
            "netscatter_cfg2_kbps",
        ],
    )
    cfg2_airtime = netscatter_round_airtime_s(
        config, QUERY_BITS_CONFIG2, PacketStructure()
    )
    for count, metrics in zip(device_counts, sweep):
        snrs = deployment.subset(count).snrs_db().tolist()
        fixed = LoRaBackscatterNetwork(snrs, rate_adaptation=False)
        adaptive = LoRaBackscatterNetwork(snrs, rate_adaptation=True)
        row: Dict[str, object] = {
            "n_devices": count,
            "lora_fixed_kbps": fixed.link_layer_rate_bps() / 1e3,
            "lora_ra_kbps": adaptive.link_layer_rate_bps() / 1e3,
            "netscatter_cfg1_kbps": metrics.link_layer_rate_bps / 1e3,
            "netscatter_cfg2_kbps": (
                metrics.goodput_bits_per_round / cfg2_airtime.total_s
            )
            / 1e3,
        }
        result.rows.append(row)

    last = result.rows[-1]
    gains = {
        ("config1", "fixed"): last["netscatter_cfg1_kbps"]
        / last["lora_fixed_kbps"],
        ("config1", "ra"): last["netscatter_cfg1_kbps"]
        / last["lora_ra_kbps"],
        ("config2", "fixed"): last["netscatter_cfg2_kbps"]
        / last["lora_fixed_kbps"],
        ("config2", "ra"): last["netscatter_cfg2_kbps"]
        / last["lora_ra_kbps"],
    }
    for key, paper_value in PAPER_GAINS.items():
        measured = gains[key]
        result.check(
            f"{key[0]} vs {key[1]}: gain near the paper's "
            f"{paper_value}x (within 2x)",
            paper_value / 2.0 <= measured <= paper_value * 2.0,
        )
    result.check(
        "config 2's longer query costs link-layer rate vs config 1",
        last["netscatter_cfg2_kbps"] < last["netscatter_cfg1_kbps"],
    )
    result.notes.append(
        "measured gains at 256: "
        + ", ".join(
            f"{k[0]}/{k[1]} {gains[k]:.1f}x (paper {v}x)"
            for k, v in PAPER_GAINS.items()
        )
    )
    return result
