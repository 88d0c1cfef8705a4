"""Whole-grid references for the sparse readout, kept as a test oracle.

The engine contracts the Dirichlet tone kernel block by block
(``SparseReadout.tone_sum``) and draws readout noise from its closed-form
covariance (``SparseReadout.analytic_noise_covariance``). This module
builds the objects those fast paths avoid, so the tests can compare:

* :func:`tone_ratio` — the real ``(..., n_tones, K)`` part-ratio grid
  ``sin(pi*u)/sin(pi*u/N)`` at ``u = b - q/zp``, from the same block
  kernel ``tone_sum`` contracts;
* :func:`tone_kernel` — the complex kernel ``D_N(b - q/zp)``: a
  weighted sum of its rows reproduces ``SparseReadout.spectrum`` of a
  composed tone-sum symbol to round-off, with no waveform in between;
* :func:`noise_covariance` — ``op^T conj(op)`` from the materialised
  ``(N, K)`` readout operator.
"""

from typing import Optional

import numpy as np

from repro.phy.sparse_readout import SparseReadout


def tone_ratio(
    readout: SparseReadout,
    effective_bins: np.ndarray,
    dtype=np.float64,
    columns: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The whole ratio grid; ``dtype`` casts the double evaluation.

    ``effective_bins`` is ``(..., n_tones)``. ``columns`` evaluates each
    row at its own subset of the readout's bins: for ``(R, n_tones)``
    bins and an ``(R, K')`` array of positions into ``bin_indices``, the
    result is ``(R, n_tones, K')``, entry for entry equal to the full
    result gathered at those positions.
    """
    b = np.asarray(effective_bins, dtype=float)
    # Without columns, every tone is one row against all bins.
    tones = b.reshape(1, b.size) if columns is None else b
    ratio = np.empty(tones.shape + (readout._n_columns(b, columns),))
    for rows, cut, block in readout._ratio_blocks(tones, columns):
        ratio[rows, cut] = block
    ratio = ratio.reshape(b.shape + ratio.shape[-1:])
    if np.dtype(dtype) != np.float64:
        ratio = ratio.astype(dtype)
    return ratio


def tone_kernel(readout: SparseReadout, effective_bins: np.ndarray) -> np.ndarray:
    """Closed-form readout of unit tones at fractional natural bins.

    ``effective_bins`` is ``(..., n_tones)``; the result is
    ``(..., n_tones, K)`` with entry ``D_N(b - q_k / zp)``, the value the
    padded FFT of the dechirped unit tone at fractional bin ``b`` takes
    at readout bin ``q_k``.
    """
    b = np.asarray(effective_bins, dtype=float)
    phase_b = np.exp(1j * readout.tone_phase_coeff * b)
    return (phase_b[..., None] * readout.bin_phase_factor()) * tone_ratio(readout, b)


def noise_covariance(readout: SparseReadout) -> np.ndarray:
    """Covariance of unit-power complex AWGN through the materialised operator."""
    return readout._operator.T @ np.conjugate(readout._operator)
