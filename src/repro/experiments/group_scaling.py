"""Extension experiment: networks larger than one concurrent round.

Section 3.3.3: when the population exceeds the 2^SF/SKIP concurrency
ceiling, the AP groups devices by signal strength (which simultaneously
bounds each round's dynamic range) and schedules groups round-robin.
This experiment scales the population past 256 and measures how latency
and aggregate goodput degrade: latency should grow in *steps of one
round time per group* — still orders of magnitude below TDMA.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.analysis.airtime import netscatter_round_airtime_s
from repro.baselines.lora_backscatter import LoRaBackscatterNetwork
from repro.channel.deployment import paper_deployment
from repro.constants import PAYLOAD_CRC_BITS, QUERY_BITS_CONFIG1
from repro.core.config import NetScatterConfig
from repro.experiments.common import ExperimentResult
from repro.protocol.population import assign_cluster
from repro.utils.rng import RngLike, child_rng, make_rng


def run(
    populations: Sequence[int] = (128, 256, 512, 1024),
    group_span_db: float = 35.0,
    rng: RngLike = None,
) -> ExperimentResult:
    """Latency/goodput vs population size with SNR grouping."""
    generator = make_rng(rng)
    config = NetScatterConfig(n_association_shifts=0)
    round_time = netscatter_round_airtime_s(
        config, QUERY_BITS_CONFIG1
    ).total_s

    result = ExperimentResult(
        experiment_id="ext-groups",
        title="Scheduling beyond one round: latency vs population",
        columns=[
            "n_devices",
            "n_groups",
            "netscatter_latency_ms",
            "lora_fixed_latency_ms",
            "reduction",
        ],
    )
    for population in populations:
        deployment = paper_deployment(
            n_devices=population, rng=child_rng(generator, population)
        )
        snrs = deployment.snrs_db()
        # Group by SNR span, then split to the concurrency ceiling.
        n_groups = len(assign_cluster(snrs, config, group_span_db))
        netscatter_latency = n_groups * round_time
        lora_latency = LoRaBackscatterNetwork(snrs).network_latency_s()
        result.rows.append(
            {
                "n_devices": population,
                "n_groups": n_groups,
                "netscatter_latency_ms": netscatter_latency * 1e3,
                "lora_fixed_latency_ms": lora_latency * 1e3,
                "reduction": lora_latency / netscatter_latency,
            }
        )

    rows = result.rows
    result.check(
        "latency grows in whole rounds (steps), not per device",
        all(
            abs(r["netscatter_latency_ms"] / (round_time * 1e3)
                - r["n_groups"]) < 1e-9
            for r in rows
        ),
    )
    result.check(
        "group count tracks ceil(population / 256) within the SNR-span "
        "constraint",
        all(
            r["n_groups"] >= math.ceil(r["n_devices"] / config.max_devices)
            for r in rows
        ),
    )
    result.check(
        "reduction over TDMA stays above 10x at every population",
        all(r["reduction"] > 10.0 for r in rows),
    )
    per_device_bits = PAYLOAD_CRC_BITS
    goodput_1024 = (
        rows[-1]["n_devices"] * per_device_bits
        / (rows[-1]["netscatter_latency_ms"] / 1e3)
    )
    result.notes.append(
        f"at {rows[-1]['n_devices']:.0f} devices: "
        f"{rows[-1]['n_groups']:.0f} groups, aggregate goodput "
        f"{goodput_1024 / 1e3:.0f} kbps (the paper's 2 MHz-for-1000-"
        "devices claim scales through bandwidth aggregation instead)"
    )
    return result
