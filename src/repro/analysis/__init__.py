"""Evaluation analytics: air-time accounting and report tables.

These helpers turn raw simulation outcomes into the quantities the
paper's evaluation section reports: the round and poll air times behind
the link-layer data rate (with query and preamble overheads) and the
network latency.
"""

from repro.analysis.airtime import (
    netscatter_round_airtime_s,
    lora_backscatter_poll_airtime_s,
)

__all__ = [
    "netscatter_round_airtime_s",
    "lora_backscatter_poll_airtime_s",
]
