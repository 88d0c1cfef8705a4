"""Utility helpers shared across the NetScatter reproduction.

Submodules
----------
``conversions``
    Decibel / linear conversions and timing- and frequency-to-bin maps.
``parallel``
    Usable-CPU counting and the decode pipeline, whose reads a stage
    thread and the caller share.
``stats``
    CDF lookups and confidence intervals for BER counting.
``rng``
    Seeded random generator plumbing so every experiment is reproducible.
"""

from repro.utils.conversions import (
    db_to_linear,
    amplitude_from_db,
)
from repro.utils.rng import make_rng

__all__ = [
    "db_to_linear",
    "amplitude_from_db",
    "make_rng",
]
