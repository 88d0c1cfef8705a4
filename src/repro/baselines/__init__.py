"""Comparison baselines the paper evaluates against.

* ``lora_backscatter`` — the sequential query-response TDMA design of
  LoRa Backscatter [25], with and without ideal rate adaptation;
* ``rate_adaptation`` — the SX1276 SNR -> (SF, BW) rate table used for
  the ideal-rate-adaptation variant;
* ``choir`` — the analytic models of Choir's [12] fractional-FFT-bin
  disambiguation and its same-shift collisions (Section 2.2);
* ``sf_pairs`` — the concurrent (SF, BW) pair analysis (19 slope-distinct
  pairs, 8 usable under sensitivity/bitrate constraints).
"""

from repro.baselines.choir import (
    choir_distinct_fraction_probability,
    choir_same_shift_collision_probability,
)
from repro.baselines.lora_backscatter import LoRaBackscatterNetwork
from repro.baselines.rate_adaptation import best_choice, RateChoice
from repro.baselines.sf_pairs import (
    slope_distinct_pairs,
    usable_concurrent_pairs,
)

__all__ = [
    "choir_distinct_fraction_probability",
    "choir_same_shift_collision_probability",
    "LoRaBackscatterNetwork",
    "best_choice",
    "RateChoice",
    "slope_distinct_pairs",
    "usable_concurrent_pairs",
]
