"""Choir [12] baseline: fractional-FFT-bin disambiguation.

Choir decodes concurrent LoRa radios by attributing each FFT peak to a
transmitter via the *fractional* part of its bin index (hardware offsets
give each radio a stable fraction, resolvable to ~1/10 bin). Section 2.2
gives two reasons this cannot scale to backscatter:

1. distinct-fraction probability: with a 1/10-bin resolution, the chance
   that N transmitters all land on different fractions is
   ``10! / ((10-N)! * 10^N)`` — only ~30% at N = 5;
2. same-shift collisions: two radios transmitting the same data symbol
   collide irrecoverably with probability ``~N(N-1)/2^(SF+1)`` per symbol;
3. backscatter tags synthesise ~3 MHz instead of 900 MHz, shrinking their
   frequency spread ~90x to under a third of a bin (Fig. 4), so the
   fractions are not distinct in the first place.

This module implements the analytic models of reasons 1 and 2; the
head-to-head experiment (``ext-choir``) demonstrates them end to end.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

CHOIR_FRACTION_RESOLUTION = 10
"""Choir resolves one-tenth of an FFT bin."""


def choir_distinct_fraction_probability(
    n_devices: int, resolution: int = CHOIR_FRACTION_RESOLUTION
) -> float:
    """Probability all ``n_devices`` land on distinct bin fractions.

    ``resolution! / ((resolution - n)! * resolution^n)``; zero once the
    device count exceeds the number of distinguishable fractions.
    """
    if n_devices < 0:
        raise ConfigurationError("device count must be non-negative")
    if n_devices > resolution:
        return 0.0
    probability = 1.0
    for i in range(n_devices):
        probability *= (resolution - i) / resolution
    return probability


def choir_same_shift_collision_probability(
    n_devices: int, spreading_factor: int, exact: bool = True
) -> float:
    """Per-symbol probability that two devices pick the same cyclic shift.

    Exact form ``1 - prod_{i=1..N} (1 - (i-1)/2^SF)``; the paper also
    quotes the approximation ``N(N-1)/2^(SF+1)``.
    """
    if n_devices < 0:
        raise ConfigurationError("device count must be non-negative")
    n_shifts = 2**spreading_factor
    if n_devices > n_shifts:
        return 1.0
    if exact:
        p_all_distinct = 1.0
        for i in range(1, n_devices + 1):
            p_all_distinct *= 1.0 - (i - 1) / n_shifts
        return 1.0 - p_all_distinct
    return n_devices * (n_devices - 1) / (2 ** (spreading_factor + 1))
