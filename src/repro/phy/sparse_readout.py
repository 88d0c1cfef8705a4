"""Sparse spectral readout: evaluate the padded FFT only where it is read.

The concurrent receiver takes a ``2^SF * zp``-point zero-padded FFT per
symbol but then reads only a handful of interpolated bins: each device's
search window around its assigned shift, plus a probe set for the noise
floor. For a 2-device Fig. 12 sweep that is ~30 useful bins out of 5120
computed — the dominant cost of every bin-domain Monte-Carlo sweep.

This module computes exactly those bins with a Goertzel/CZT-style matmul.
The zero-padded FFT of a length-``N`` dechirped symbol at interpolated
bin ``q`` is

    X[q] = sum_{t < N} x[t] * d[t] * exp(-2j*pi*q*t / (N*zp))

(``d`` the baseline downchirp), so stacking the selected ``q`` as columns
of a precomputed ``(N, K)`` operator turns a whole ``(n_symbols, N)``
round — or a ``(n_rounds * n_symbols, N)`` batch — into one BLAS matmul.
Values agree with ``np.fft.fft(x * d, N*zp)[q]`` to floating-point
round-off, which the equivalence tests pin down at the bit-decision
level.

The operator is built once per receiver (the bins depend only on the
assignments) and reused for every round — the caching the per-call FFT
path never had.

For *tone-sum* inputs the time domain can be skipped altogether: a
device whose dechirped contribution is the pure tone
``a * exp(j*(2*pi*b*t/N + phi))`` reads out at interpolated bin ``q``
as ``a * exp(j*phi) * D_N(b - q/zp)`` where ``D_N`` is the Dirichlet
kernel (:func:`dirichlet_kernel`), a closed form that needs no
``n_samples``-length waveform (``tests/readout_oracle.py`` evaluates it
at every readout bin as the reference); the closed-form route of
:func:`repro.core.dcss.compose_readout` contracts its factored form
block by block (:meth:`SparseReadout.tone_sum`), so not even the
``(tones, bins)`` kernel grid is held whole. That route serves sparse
reads; dense ones (whole windows of many devices) cost less as one
synthesised row and a few ``n_samples``-point FFTs, which
``compose_readout``'s FFT route takes instead. The operator matrix
itself is built lazily so purely analytic consumers never pay for it.

White time-domain noise maps linearly onto any readout, and the
covariance it acquires depends only on bin *separations* (it is the
Dirichlet kernel of the separation), so equispaced readouts have
Toeplitz noise covariances: :meth:`SparseReadout.analytic_noise_covariance`
for a readout's own bins, :func:`located_bin_noise_covariance` for the
3-bin located ``±1`` neighbourhood the payload decisions read — the one
3×3 factor that serves every located position of every device in the
engine's ``noise_mode="payload"`` stream.

Doctest — the sparse readout *is* the padded FFT at the read columns,
and the closed-form kernel of an on-grid tone is the full window power:

>>> import numpy as np
>>> from repro.phy.chirp import ChirpParams
>>> from repro.phy.sparse_readout import (
...     SparseReadout, dirichlet_kernel, full_fft_values)
>>> params = ChirpParams(bandwidth_hz=125e3, spreading_factor=6)
>>> bins = np.array([8, 9, 10])
>>> readout = SparseReadout(params, zero_pad_factor=4, bin_indices=bins)
>>> rng = np.random.default_rng(0)
>>> symbol = rng.standard_normal(64) + 1j * rng.standard_normal(64)
>>> sparse = readout.spectrum(symbol)
>>> exact = full_fft_values(params, 4, symbol, bin_indices=bins)
>>> bool(np.allclose(sparse, exact))
True
>>> int(dirichlet_kernel(64, np.array([0.0]))[0].real)  # unit tone, on-grid
64
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.errors import DecodingError
from repro.phy.chirp import ChirpParams, downchirp

#: Magnitude of ``sin(pi*u/N)`` below which the Dirichlet ratio switches
#: to its L'Hopital form ``N*cos(pi*u)/cos(pi*u/N)``. That form is off by
#: ``(pi*u)**2 / 3`` of the tone's peak, and it serves ``|u|`` up to
#: ``N * tol / pi`` (mod ``N``), so its worst error grows as ``N**2``.
#: Measured against an extended-precision direct sum: 8.4e-8 of the
#: peak at SF 9 (a tone 1.6e-4 bin from a read bin), 3.3e-6 at SF 12
#: (1e-3 bin). The FFT route of :func:`repro.core.dcss.compose_readout`
#: has no such branch (≤ 2e-15 on the same tones).
_DIRICHLET_SINGULAR_TOL = 1e-6

#: Grid elements per block of the ratio kernel behind
#: :meth:`SparseReadout.tone_sum`:
#: the block's numerator and denominator scratch (1 MB together, plus
#: 0.5 MB for a quotient that is contracted rather than stored) stay
#: cache-resident.
_RATIO_BLOCK_ELEMENTS = 1 << 16

#: Largest product, in real multiply-adds, that :meth:`SparseReadout.tone_sum`
#: hands BLAS in one call (a complex multiply-add counts as four, as in
#: ``core/dcss.py::_factored_tone_sum``). BLAS libraries split larger
#: products over a thread pool of their own (OpenBLAS above 2^18), which
#: oversubscribes the CPUs when callers already run contractions
#: concurrently, as the population cycle's Monte-Carlo leg processes do,
#: one per CPU; below it every call stays on its caller's thread.
_GEMM_MAX_MACS = 1 << 18


def dirichlet_kernel(n_samples: int, offsets: np.ndarray) -> np.ndarray:
    """Closed-form readout of a unit tone: ``sum_{t<N} exp(2j*pi*u*t/N)``.

    ``offsets`` is the (possibly fractional) bin distance ``u`` between
    the tone and the evaluated frequency, in *natural* bins. The sum has
    the closed form

        ``D_N(u) = exp(j*pi*u*(N-1)/N) * sin(pi*u) / sin(pi*u/N)``

    with the removable singularities at ``u = 0 (mod N)`` — where the
    value is exactly ``N`` — filled via L'Hopital. ``D_N`` is periodic
    in ``u`` with period ``N`` and satisfies ``D_N(-u) = conj(D_N(u))``.
    """
    n = int(n_samples)
    if n < 1:
        raise DecodingError("n_samples must be >= 1")
    u = np.asarray(offsets, dtype=float)
    phase = np.exp(1j * (np.pi * (n - 1) / n) * u)
    den = np.sin(np.pi * u / n)
    near = np.abs(den) < _DIRICHLET_SINGULAR_TOL
    ratio = np.sin(np.pi * u) / np.where(near, 1.0, den)
    limit = n * np.cos(np.pi * u) / np.cos(np.pi * u / n)
    return phase * np.where(near, limit, ratio)


def located_bin_noise_covariance(
    params: ChirpParams, zero_pad_factor: int, width: int = 3
) -> np.ndarray:
    """Unit-AWGN covariance of ``width`` *adjacent* interpolated bins.

    Entry ``[k, j]`` is ``D_N((j - k) / zp)`` — the covariance white
    time-domain noise acquires between interpolated bins ``j - k`` grid
    steps apart. The matrix is Hermitian Toeplitz because the covariance
    depends only on the separation, which is the property the payload
    noise path of the decode engine exploits: the located peak ``±1``
    read is always three adjacent interpolated bins, so this one
    ``width=3`` covariance (and its factor,
    :func:`repro.phy.noise.covariance_factor`) serves every located
    position in every device's window. Bit-identical to the
    corresponding block of any equispaced window's
    :meth:`SparseReadout.analytic_noise_covariance`.
    """
    if int(width) < 1:
        raise DecodingError("width must be >= 1")
    if int(zero_pad_factor) < 1:
        raise DecodingError("zero_pad_factor must be >= 1")
    q = np.arange(int(width), dtype=float)
    return dirichlet_kernel(
        params.n_samples,
        (q[None, :] - q[:, None]) / int(zero_pad_factor),
    )


class SparseReadout:
    """Precomputed sparse evaluation of the dechirped, padded spectrum.

    Parameters
    ----------
    params:
        Chirp parameters of the symbols to read.
    zero_pad_factor:
        Interpolation factor of the (virtual) padded grid.
    bin_indices:
        Interpolated-grid indices to evaluate, in ``[0, 2^SF * zp)``.
        Duplicates are allowed (windows of nearby devices may overlap).
    fold_downchirp:
        When True (default) the baseline downchirp is folded into the
        operator, so inputs are raw *pre-dechirp* symbols. When False
        inputs must already be dechirped.
    """

    def __init__(
        self,
        params: ChirpParams,
        zero_pad_factor: int,
        bin_indices: np.ndarray,
        fold_downchirp: bool = True,
    ) -> None:
        if zero_pad_factor < 1:
            raise DecodingError("zero_pad_factor must be >= 1")
        bin_indices = np.asarray(bin_indices, dtype=np.int64).ravel()
        n = params.n_samples
        n_grid = n * int(zero_pad_factor)
        if bin_indices.size == 0:
            raise DecodingError("need at least one readout bin")
        if np.any(bin_indices < 0) or np.any(bin_indices >= n_grid):
            raise DecodingError(
                f"readout bins must lie in [0, {n_grid})"
            )
        self._params = params
        self._zero_pad_factor = int(zero_pad_factor)
        self._bin_indices = bin_indices
        self._fold_downchirp = bool(fold_downchirp)
        self._op: Optional[np.ndarray] = None
        self._bin_trig: Optional[tuple] = None
        self._sorted_bins: Optional[tuple] = None

    @property
    def _operator(self) -> np.ndarray:
        """The ``(N, K)`` readout matrix, built on first time-domain use.

        Purely analytic consumers (:meth:`tone_sum`) never touch it,
        so receivers on the analytic composition path skip the
        ``N * K`` complex-exponential build entirely.
        """
        if self._op is None:
            params = self._params
            n = params.n_samples
            n_grid = n * self._zero_pad_factor
            t = np.arange(n, dtype=float)
            op = np.exp(
                (-2j * np.pi / n_grid)
                * np.outer(t, self._bin_indices.astype(float))
            )
            if self._fold_downchirp:
                op *= downchirp(params)[:, None]
            self._op = op
        return self._op

    @property
    def params(self) -> ChirpParams:
        return self._params

    @property
    def zero_pad_factor(self) -> int:
        return self._zero_pad_factor

    @property
    def bin_indices(self) -> np.ndarray:
        """The interpolated-grid indices this readout evaluates."""
        return self._bin_indices

    @property
    def n_bins(self) -> int:
        """Number of evaluated bins (columns of the operator)."""
        return self._bin_indices.size

    def spectrum(self, symbols: np.ndarray) -> np.ndarray:
        """Complex spectrum values at the readout bins.

        ``symbols`` is ``(..., 2^SF)``; the result is ``(..., K)``.
        """
        symbols = np.asarray(symbols, dtype=complex)
        n = self._params.n_samples
        if symbols.shape[-1] != n:
            raise DecodingError(
                f"expected {n} samples per symbol, got {symbols.shape[-1]}"
            )
        return symbols @ self._operator

    def analytic_noise_covariance(self) -> np.ndarray:
        """Covariance of unit-power complex AWGN seen through this readout.

        For ``n`` iid circular CN(0, 1) time samples the readout values
        ``y = n @ op`` are jointly circular Gaussian with
        ``E[y y^H] = op^T conj(op)``, whose entry ``[k, j]`` has the
        closed form ``D_N((q_j - q_k) / zp)`` (see
        :func:`dirichlet_kernel`), evaluated here without the operator.
        It lets the decode engine draw noise *after* the readout instead
        of over the full time-domain tensor.

        Bit-for-bit independent of ``fold_downchirp`` (the unit-modulus
        fold cancels only up to round-off in the matmul form), so noise
        drawn from this covariance is identical across the pre-dechirp
        and dechirped-domain readout plans.
        """
        q = self._bin_indices.astype(float)
        return dirichlet_kernel(
            self._params.n_samples,
            (q[None, :] - q[:, None]) / self._zero_pad_factor,
        )

    @property
    def tone_phase_coeff(self) -> float:
        """Coefficient of the separable Dirichlet phase, ``pi*(N-1)/N``.

        ``D_N(b - q/zp) = exp(1j*c*b) * exp(-1j*c*q/zp) * ratio``
        with ``c`` this coefficient: the complex part of the kernel is
        rank one over the ``(tones, bins)`` grid, so composition paths
        fold ``exp(1j*c*b)`` into the per-device weights and
        ``exp(-1j*c*q/zp)`` into a final per-bin scale — the big matmul
        then runs on the *real* ratio matrix.
        """
        n = self._params.n_samples
        return np.pi * (n - 1) / n

    def bin_phase_factor(self) -> np.ndarray:
        """Per-readout-bin Dirichlet phase, ``exp(-1j*c*q/zp)``."""
        return self._trig_tables()[0]

    def _trig_tables(self) -> tuple:
        """Cached per-bin phase and sin/cos tables of the tone kernel."""
        if self._bin_trig is None:
            n = self._params.n_samples
            qp = self._bin_indices / float(self._zero_pad_factor)
            self._bin_trig = (
                np.exp(-1j * self.tone_phase_coeff * qp),
                np.sin(np.pi * qp),
                np.cos(np.pi * qp),
                np.sin(np.pi * qp / n),
                np.cos(np.pi * qp / n),
            )
        return self._bin_trig

    def tone_sum(
        self,
        effective_bins: np.ndarray,
        weights: np.ndarray,
        columns: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``weights @ ratio``, never building the ratio grid.

        The ratio is the real part-ratio of the tone kernel,
        ``sin(pi*u)/sin(pi*u/N)`` at ``u = b - q/zp``, which the
        separable phases (:attr:`tone_phase_coeff`) turn into
        ``D_N(b - q/zp)``; ``tests/readout_oracle.py::tone_ratio`` builds
        the whole grid as this method's reference.

        ``effective_bins`` is ``(R, n_tones)`` and ``weights``
        ``(R, S, n_tones)``; the result is the ``(R, S, K)`` contraction
        over tones. ``columns``, an ``(R, K')`` array of positions into
        :attr:`bin_indices`, evaluates each row at its own subset of the
        readout's bins, giving ``(R, S, K')``: the decode engine reads
        payload symbols this way, at each device's located ``±1`` bins
        only. Each cache-sized block of the grid is
        contracted with its slice of the weights as soon as the shared
        block kernel builds it, so the working set is one block instead
        of the ``(R, n_tones, K)`` grid, and each product goes to BLAS
        in calls of at most :data:`_GEMM_MAX_MACS` multiply-adds, split
        by symbol rows. The entries are those of the full grid; only the
        order of the sum over tones differs, by round-off. The grid is
        evaluated in double via angle-difference identities: per-bin
        trigonometry is cached, per-tone trigonometry is linear in the
        inputs, and the grid sees only multiply/subtract/divide passes.
        """
        b = np.asarray(effective_bins, dtype=float)
        weights = np.asarray(weights)
        if (
            b.ndim != 2
            or weights.ndim != 3
            or weights.shape[::2] != b.shape
        ):
            raise DecodingError(
                "weights must be (n_rows, n_symbols, n_tones) for "
                "(n_rows, n_tones) effective bins"
            )
        total = np.zeros(
            (b.shape[0], weights.shape[1], self._n_columns(b, columns))
        )
        for rows, cut, block in self._ratio_blocks(b, columns):
            part = weights[rows, :, cut]
            step = max(1, _GEMM_MAX_MACS // max(1, block[0].size))
            for start in range(0, part.shape[1], step):
                symbols = slice(start, start + step)
                if cut.start == 0:
                    # A row's first block writes its sums; later ones add.
                    np.matmul(
                        part[:, symbols], block, out=total[rows, symbols]
                    )
                else:
                    total[rows, symbols] += part[:, symbols] @ block
        return total

    def _n_columns(
        self, b: np.ndarray, columns: Optional[np.ndarray]
    ) -> int:
        """Grid width for ``columns``, validated against ``b``'s rows."""
        if columns is None:
            return self.n_bins
        columns = np.asarray(columns)
        if b.ndim != 2 or columns.ndim != 2 or columns.shape[0] != b.shape[0]:
            raise DecodingError(
                "columns must be (n_rows, k) for (n_rows, n_tones) "
                "effective bins"
            )
        # A negative position would wrap to the far end of the readout.
        if columns.size and (
            columns.dtype.kind not in "iu"
            or columns.min() < 0
            or columns.max() >= self.n_bins
        ):
            raise DecodingError(
                f"columns must be integer positions in [0, {self.n_bins})"
            )
        return columns.shape[1]

    def _ratio_blocks(
        self,
        tones: np.ndarray,
        columns: Optional[np.ndarray],
    ):
        """The block kernel behind :meth:`tone_sum` (and the oracle's ratio grid).

        ``tones`` is ``(n_rows, n_tones)``; row ``r`` is evaluated at
        every readout bin, or at ``columns[r]``. Yields ``(rows, cut,
        block)`` with ``block`` the grid entries ``[rows, cut, :]``,
        L'Hopital entries included, in a scratch buffer the next block
        overwrites.

        The grid is large and bandwidth-bound, so the numerator and
        denominator of each block are built in a cache-sized scratch
        buffer and only the quotient is written out. A block spans
        whole rows, or part of one row, so its entries are one
        contiguous range of the row-major ``(n_rows, n_tones)`` tones.
        """
        n = self._params.n_samples
        tables = self._trig_tables()[1:]
        if columns is None:
            # One row of tables shared by every tone row.
            tables = tuple(table[None, :] for table in tables)
        else:
            columns = np.asarray(columns, dtype=np.int64)
            tables = tuple(table[columns] for table in tables)
        n_rows, n_tones = tones.shape
        n_cols = tables[0].shape[1]
        sb, cb = np.sin(np.pi * tones), np.cos(np.pi * tones)
        sbn, cbn = np.sin(np.pi * tones / n), np.cos(np.pi * tones / n)
        flat, col, limit = self._singular_limits(
            tones, columns, tables, (sb, cb, sbn, cbn)
        )
        row_tables = tuple(
            np.broadcast_to(table, (n_rows, n_cols)) for table in tables
        )
        row_elems = max(1, n_tones * n_cols)
        row_block = max(1, _RATIO_BLOCK_ELEMENTS // row_elems)
        tone_block = max(1, n_tones)
        if row_block == 1:
            tone_block = max(1, _RATIO_BLOCK_ELEMENTS // max(1, n_cols))
        scratch = np.empty(
            (3, min(row_block, n_rows), min(tone_block, n_tones), n_cols)
        )
        for row in range(0, n_rows, row_block):
            rows = slice(row, row + row_block)
            r = min(row_block, n_rows - row)
            sq, cq, sqn, cqn = (table[rows, None, :] for table in row_tables)
            for start in range(0, n_tones, tone_block):
                cut = slice(start, start + tone_block)
                t = min(tone_block, n_tones - start)
                tmp, den, block = scratch[:, :r, :t]
                # sin(pi*(b - q)) / sin(pi*(b - q)/N); the L'Hopital
                # entries, whose quotient is meaningless, are
                # overwritten below.
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.multiply(sb[rows, cut, None], cq, out=block)
                    np.multiply(cb[rows, cut, None], sq, out=tmp)
                    block -= tmp
                    np.multiply(sbn[rows, cut, None], cqn, out=den)
                    np.multiply(cbn[rows, cut, None], sqn, out=tmp)
                    den -= tmp
                    block /= den
                lo = row * n_tones + start
                a, z = flat.searchsorted((lo, lo + (r - 1) * n_tones + t))
                if z > a:
                    local = flat[a:z] - lo
                    block[local // n_tones, local % n_tones, col[a:z]] = (
                        limit[a:z]
                    )
                yield rows, cut, block

    def _singular_limits(
        self,
        tones: np.ndarray,
        columns: Optional[np.ndarray],
        tables: tuple,
        tone_trig: tuple,
    ) -> tuple:
        """The L'Hopital entries of a ratio grid and their values.

        Returns ``(flat, col, value)``, ascending in ``flat``, the
        row-major index into ``tones``; ``col`` is the grid column and
        ``value`` the limit ``N*cos(pi*u)/cos(pi*u/N)`` at ``u ~ 0
        (mod N)``, assembled from the same per-axis trig as the grid.
        """
        n = self._params.n_samples
        n_cols = tables[0].shape[1]
        tone, hit = self._singular_entries(tones, columns)
        sq, cq, sqn, cqn = (table.ravel() for table in tables)
        sb, cb, sbn, cbn = (x.ravel() for x in tone_trig)
        # The same products as the grid's denominator, so the tolerance
        # sees bit-identical values.
        den = sbn[tone] * cqn[hit] - cbn[tone] * sqn[hit]
        near = np.abs(den) < _DIRICHLET_SINGULAR_TOL
        tone, hit = tone[near], hit[near]
        cos_u = cb[tone] * cq[hit] + sb[tone] * sq[hit]
        cos_un = cbn[tone] * cqn[hit] + sbn[tone] * sqn[hit]
        return tone, hit % n_cols, n * cos_u / cos_un

    def _singular_entries(
        self, tones: np.ndarray, columns: Optional[np.ndarray]
    ) -> tuple:
        """Candidate L'Hopital entries of a ratio grid.

        ``sin(pi*u/N)`` drops below ``_DIRICHLET_SINGULAR_TOL`` only
        within ``n_grid * tol / pi`` grid steps (~0.002 at SF 9, zp 10)
        of a tone's own grid position ``b * zp`` (mod ``n_grid``), far
        less than one step. So a tone can be singular only at the
        readout bins equal to the grid points nearest that position,
        which a ``searchsorted`` over the sorted bin indices finds in
        ``O(n_tones * log K)`` instead of a pass over the whole
        ``(n_tones, K)`` grid.

        ``tones`` is ``(n_rows, n_tones)``: one row against all bins,
        or with ``columns`` one row per ``columns`` row. Returns
        ``(tone, hit)``: ``tone`` indexes the flattened tones, ``hit``
        the flattened ``(n_rows, K')`` per-bin tables, so ``hit % K'``
        is the grid column. The caller keeps the entries whose
        denominator is actually below the tolerance.
        """
        zp = self._zero_pad_factor
        n_grid = self._params.n_samples * zp
        radius = 1 + int(n_grid * _DIRICHLET_SINGULAR_TOL / np.pi + 0.5)
        steps = np.arange(-radius, radius + 1)
        nearest = np.rint(tones * zp).astype(np.int64)
        wanted = (nearest[..., None] + steps) % n_grid
        if columns is None:
            if self._sorted_bins is None:
                order = np.argsort(self._bin_indices, kind="stable")
                self._sorted_bins = (order, self._bin_indices[order])
            order, keys = self._sorted_bins
        else:
            # Offset each row by n_grid so one sorted array serves all
            # rows and a tone only ever matches its own row's bins.
            row_base = np.arange(columns.shape[0])[:, None] * n_grid
            flat = (self._bin_indices[columns] + row_base).ravel()
            order = np.argsort(flat, kind="stable")
            keys = flat[order]
            wanted += row_base[:, :, None]
        wanted = wanted.ravel()
        lo = np.searchsorted(keys, wanted, "left")
        counts = np.searchsorted(keys, wanted, "right") - lo
        tone = np.repeat(np.arange(wanted.size) // steps.size, counts)
        # Positions lo .. lo + count - 1 of every query, concatenated.
        starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        return tone, order[starts + np.arange(tone.size)]



def full_fft_values(
    params: ChirpParams,
    zero_pad_factor: int,
    symbols: np.ndarray,
    bin_indices: Optional[np.ndarray] = None,
    fold_downchirp: bool = True,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact reference: zero-padded FFT values, optionally column-gathered.

    The readout of the decode engine's ``fft`` backend and of every
    single-frame decode: identical readout layout to
    :class:`SparseReadout` but computed through ``np.fft.fft`` on the
    full padded grid, the cheaper choice where the number of read bins
    approaches the grid size.

    ``out``, a complex128 array of the padded grid's shape, receives the
    spectrum (``np.fft.fft(..., out=)``, NumPy >= 2.0), so a caller
    reading many symbol batches of one shape reuses one grid buffer.
    """
    symbols = np.asarray(symbols, dtype=complex)
    n = params.n_samples
    if symbols.shape[-1] != n:
        raise DecodingError(
            f"expected {n} samples per symbol, got {symbols.shape[-1]}"
        )
    if fold_downchirp:
        symbols = symbols * downchirp(params)
    spectrum = np.fft.fft(
        symbols, n=n * int(zero_pad_factor), axis=-1, out=out
    )
    if bin_indices is None:
        return spectrum
    return spectrum[..., np.asarray(bin_indices, dtype=np.int64)]


@lru_cache(maxsize=32)
def natural_probe_readout(
    params: ChirpParams,
    zero_pad_factor: int,
    stride: int,
    fold_downchirp: bool = True,
) -> SparseReadout:
    """Readout of every ``stride``-th natural bin, shared across receivers.

    The noise-probe grid depends only on the chirp parameters, so one
    operator serves every receiver at the same operating point. Distinct
    natural bins are exact DFT frequencies of the length-``2^SF`` window,
    hence mutually orthogonal: the probe noise covariance is ``2^SF * I``
    (asserted by the tests), which the decode engine exploits to draw
    probe noise independently.
    """
    n = params.n_samples
    bins = np.arange(0, n, int(stride)) * int(zero_pad_factor)
    return SparseReadout(
        params, zero_pad_factor, bins, fold_downchirp=fold_downchirp
    )
