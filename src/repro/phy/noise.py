"""Shared noise-floor estimation and versioned engine-noise streams.

Every decode asks one question of its noise probes — "what does an
unoccupied bin look like?" — and the receiver's one decision rule
(:meth:`repro.core.receiver.NetScatterReceiver._decide_chunk`) answers
it here:

* median of the candidate (signal-free) bin powers when any survive the
  exclusions, because the median is insensitive to stray peaks;
* a low quantile of a fallback set when the exclusions cover everything
  (e.g. 256 devices at SKIP = 2 occupy every natural bin), which tracks
  the combined noise + side-lobe floor.

The helper is batch-aware: a ``(n_rounds, n_probes)`` power matrix yields
one floor per round, which is what the batched decode engine needs.

The second half of the module is the *engine-noise* side of the same
story: when the batched decode engine injects channel AWGN directly at
the readout bins, the draws come from a :class:`NoiseStream` — a thin,
versioned wrapper over one ``numpy`` generator. The ``version`` field
names the exact draw layout, so a recorded decode
(:class:`repro.core.receiver.RoundsDecode`) is reproducible from its
``(seed, noise_mode, noise_version)`` triple alone:

* ``version 1`` (``noise_mode="full"``) — correlated window noise for
  every readout bin of every device of every symbol, then the probe
  block: the stream the engine has drawn since the batched decode was
  introduced, pinned bit-for-bit by the regression goldens;
* ``version 2`` (``noise_mode="payload"``) — the located-bin payload
  stream: full windows for the preamble symbols only (the peak search
  needs them), the probe block, then per-device draws at just the
  located ``±1`` payload bins via the 3×3 Toeplitz covariance factor
  (:func:`repro.phy.sparse_readout.located_bin_noise_covariance`).
  ~3× fewer window draws per round; the decision statistics are exactly
  those of the full stream because the payload decisions never read the
  bins the stream stops drawing.

Doctest — the shared floor rule and the stream/version mapping:

>>> import numpy as np
>>> from repro.phy.noise import NoiseStream, estimate_noise_floor
>>> float(estimate_noise_floor(np.array([1.0, 2.0, 9.0])))
2.0
>>> stream = NoiseStream(np.random.default_rng(0))
>>> (stream.mode, stream.version)
('payload', 2)
>>> NoiseStream(np.random.default_rng(0), mode="full").version
1
>>> z = stream.standard_complex((2, 3))
>>> (z.shape, z.dtype.kind, stream.draws)
((2, 3), 'c', 6)
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import DecodingError
from repro.utils.rng import RngLike, make_rng, standard_complex_normal

NOISE_FALLBACK_QUANTILE = 0.25
"""Quantile of the fallback powers used under full occupancy."""

#: Engine-noise draw layouts, mode -> stream version. Versions are
#: append-only: a new layout gets a new number, existing numbers keep
#: reproducing their historical draws bit for bit.
NOISE_STREAM_VERSIONS = {"full": 1, "payload": 2}

#: Accepted ``noise_mode`` values, in version order.
NOISE_MODES = tuple(
    sorted(NOISE_STREAM_VERSIONS, key=NOISE_STREAM_VERSIONS.get)
)

#: The newest stream version (the default ``"payload"`` layout).
CURRENT_NOISE_VERSION = max(NOISE_STREAM_VERSIONS.values())


class NoiseStream:
    """Versioned source of the engine's readout-domain noise draws.

    Wraps one generator and stamps every decode with an explicit
    ``(mode, version)`` pair, so two runs of the engine agree bit for
    bit exactly when their seeds *and* stream versions agree — the
    versioning story that lets the draw layout evolve (fewer draws,
    different ordering) without silently invalidating recorded runs.

    Parameters
    ----------
    rng:
        Generator (or seed) the draws consume. Passing an existing
        generator shares its state, exactly like the pre-stream code
        paths did.
    mode:
        Draw layout name: ``"full"`` (version 1) or ``"payload"``
        (version 2). See the module docstring for what each draws.
    version:
        Optional explicit version; must match ``mode``'s version. Accepting
        it redundantly lets callers that persist ``(mode, version)``
        pairs fail loudly on a mismatch instead of silently decoding
        with the wrong layout.
    """

    def __init__(
        self,
        rng: RngLike,
        mode: str = "payload",
        version: Optional[int] = None,
    ) -> None:
        if mode not in NOISE_STREAM_VERSIONS:
            raise DecodingError(
                f"noise mode must be one of {NOISE_MODES}, got {mode!r}"
            )
        expected = NOISE_STREAM_VERSIONS[mode]
        # Plain equality, not int() coercion: a fractional or
        # non-numeric persisted version must fail loudly, as the
        # contract promises (2.7 or "two" are mismatches, not 2).
        if version is not None and (
            isinstance(version, bool) or version != expected
        ):
            raise DecodingError(
                f"noise mode {mode!r} is stream version {expected}, "
                f"got version {version!r}"
            )
        self._rng = make_rng(rng)
        self._mode = mode
        self._version = expected
        self._draws = 0

    @property
    def mode(self) -> str:
        """Draw-layout name (``"full"`` or ``"payload"``)."""
        return self._mode

    @property
    def version(self) -> int:
        """Stream version stamped onto decodes drawn from this stream."""
        return self._version

    @property
    def draws(self) -> int:
        """Complex CN(0,1) elements drawn so far (cost introspection)."""
        return self._draws

    def standard_complex(self, shape) -> np.ndarray:
        """iid circular CN(0,1) draws, consuming the wrapped generator.

        Identical consumption to
        :func:`repro.utils.rng.standard_complex_normal` on the same
        generator — which is what keeps version-1 streams bit-identical
        to the pre-stream engine.
        """
        shape = tuple(shape)
        self._draws += math.prod(shape)
        return standard_complex_normal(self._rng, shape)


def covariance_factor(covariance: np.ndarray) -> np.ndarray:
    """Factor ``L`` with ``L @ L^H == covariance``, rank-deficiency-safe.

    ``L @ zeta`` (``zeta`` iid CN(0,1)) then has exactly the joint
    distribution of zero-mean circular noise with the given covariance.
    Factored through the eigendecomposition rather than a Cholesky:
    readout bins spaced by sub-bin distances are almost perfectly
    correlated, so readout-noise covariances are numerically
    rank-deficient and a plain Cholesky fails on round-off. Negative
    round-off eigenvalues are clipped to zero.

    >>> import numpy as np
    >>> cov = np.array([[2.0, 1.0], [1.0, 2.0]])
    >>> factor = covariance_factor(cov)
    >>> bool(np.allclose(factor @ factor.conj().T, cov))
    True
    """
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    return eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))


def estimate_noise_floor(
    candidate_powers: np.ndarray,
    fallback_powers: Optional[np.ndarray] = None,
    fallback_quantile: float = NOISE_FALLBACK_QUANTILE,
) -> np.ndarray:
    """Noise floor from signal-free candidate bins, with occupancy fallback.

    Parameters
    ----------
    candidate_powers:
        Powers of bins believed to be signal-free, shape ``(..., n_free)``.
        ``n_free`` may be zero (full occupancy).
    fallback_powers:
        Powers used when no candidates survive, shape ``(..., n_probes)``.
        Required if ``candidate_powers`` is empty along its last axis.
    fallback_quantile:
        Quantile of the fallback powers standing in for the floor.

    Returns
    -------
    The floor per leading index (0-d array for 1-D inputs).
    """
    candidate_powers = np.asarray(candidate_powers, dtype=float)
    if candidate_powers.shape[-1] > 0:
        return np.median(candidate_powers, axis=-1)
    if fallback_powers is None:
        raise DecodingError(
            "no signal-free bins and no fallback powers provided"
        )
    fallback_powers = np.asarray(fallback_powers, dtype=float)
    if fallback_powers.shape[-1] == 0:
        raise DecodingError("fallback powers must not be empty")
    return np.quantile(fallback_powers, fallback_quantile, axis=-1)


def exclusion_mask(
    n_bins: int,
    zero_pad_factor: int,
    exclude_shifts: Sequence[float],
    guard_bins: float = 1.0,
) -> np.ndarray:
    """Boolean mask over the interpolated grid: True = excluded.

    A bin is excluded when it lies within ``guard_bins`` natural bins of
    any excluded cyclic shift (cyclically): ``+/- zp`` interpolated bins
    for the default guard of one natural bin. Centres round half
    to even, like Python's ``round``.
    """
    mask = np.zeros(n_bins, dtype=bool)
    zp = int(zero_pad_factor)
    guard = max(1, int(round(guard_bins * zp)))
    offsets = np.arange(-guard, guard + 1)
    centres = np.rint(np.asarray(exclude_shifts, dtype=float) * zp)
    mask[(centres.astype(np.int64)[:, None] + offsets) % n_bins] = True
    return mask

