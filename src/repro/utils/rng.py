"""Seeded random-generator plumbing.

Every stochastic component in the library accepts either a
``numpy.random.Generator`` or a plain integer seed. Centralising the
coercion here keeps experiments reproducible: the experiment runner passes
integer seeds, and each module derives independent child streams where it
needs them.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh OS-entropy generator; an existing generator is
    passed through untouched so callers can share one stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_seed(rng: np.random.Generator, index: int) -> int:
    """Derive an independent child *seed* (a plain int) from ``rng``.

    The integer form of :func:`child_rng`: consuming one draw from
    ``rng``, it returns the exact seed that ``child_rng`` would have
    handed to ``numpy.random.default_rng``. Because the seed is a plain
    int it can be stored, hashed and shipped across processes — the
    campaign layer persists it on every sweep point so a stored result
    is reproducible (and content-addressable) from its record alone.
    """
    return int(rng.integers(0, 2**63 - 1)) ^ (
        index * 0x9E3779B97F4A7C15 & (2**63 - 1)
    )


def child_rng(rng: np.random.Generator, index: int) -> np.random.Generator:
    """Derive an independent child stream from ``rng``.

    Used when a simulation fans out over many devices: each device gets its
    own deterministic stream so adding a device does not perturb the noise
    seen by the others. Equivalent to seeding a fresh generator with
    :func:`child_seed` — the two stay interchangeable by construction.
    """
    return np.random.default_rng(child_seed(rng, index))


def standard_complex_normal(rng: RngLike, shape) -> np.ndarray:
    """iid circular CN(0, 1) draws of the given shape.

    One interleaved real Gaussian call re-viewed as complex — identical
    statistics to two separate real/imaginary draws, half the RNG-call
    overhead. Each component has unit *complex* variance (real and
    imaginary parts each carry 1/2), so callers scale by the square
    root of the desired complex noise power.
    """
    generator = make_rng(rng)
    shape = tuple(shape)
    draws = generator.standard_normal(shape + (2,))
    # Scaled in place: a scaled copy would double the peak of a large draw.
    draws *= np.sqrt(0.5)
    return draws.view(complex).reshape(shape)
