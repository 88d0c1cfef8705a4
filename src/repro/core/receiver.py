"""NetScatter concurrent receiver: one FFT decodes every device.

Receiver pipeline (Sections 3.1 and 3.3.1):

1. align each symbol on the shared preamble (the engine's inputs
   arrive aligned; ``tests/waveform_oracle.py`` synchronises raw
   streams),
2. dechirp each symbol once and take a single zero-padded FFT,
3. detect active devices: an FFT peak that repeats across all preamble
   symbols at an assigned shift marks that device as transmitting,
4. average each detected device's preamble peak power,
5. demodulate the OOK payload: bit = 1 iff the device's bin power in the
   payload symbol exceeds half its preamble average.

The dechirp + FFT is done once per symbol regardless of the number of
devices — the receiver-complexity claim the paper makes.

Every entry point runs steps 2-5 through one span loop
(:meth:`NetScatterReceiver._decode_spans`): each span's stage A draws
the span's engine noise in the stream's layout and finishes it,
correlated and scaled (:func:`_draw_span_noise`), on one thread, span
after span, and reads its rounds at each device's search window and at
the noise probes, on either thread, while the span before is still
read or decided; one decision rule
(:meth:`NetScatterReceiver._decide_chunk`) adds that noise in place,
locates the peaks, estimates the floor and decides.
The backends differ only in how stage A gets those bins: the padded FFT
(``fft``, and every single-frame decode), a precomputed matmul over a
symbol tensor (``sparse``) or the closed-form Dirichlet kernel over
tone inputs (``analytic``).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import NetScatterConfig
from repro.errors import DecodingError
from repro.phy.chirp import ChirpParams
from repro.phy.noise import (
    NOISE_MODES,
    NoiseStream,
    covariance_factor,
    estimate_noise_floor,
    exclusion_mask,
)
from repro.phy.sparse_readout import (
    SparseReadout,
    full_fft_values,
    located_bin_noise_covariance,
    natural_probe_readout,
)
from repro.utils.parallel import pipeline

#: Elements per chunk of the batched power tensor: bounds peak memory of
#: a decode_rounds call regardless of how many rounds are batched. Tuned
#: down from 2^23: the per-chunk working set (readout values, noise
#: draws, power tensors) then stays near L2/L3 size, which measures
#: ~25% faster on 100-round fading batches with identical decisions
#: (chunk boundaries only reorder the noise *stream*, never the law).
#: When a decode pipelines its chunks, the next chunk's noise is drawn
#: and its window and probe values are read while the current chunk is
#: read and decided, so up to two chunks' stage-A arrays are live at
#: once and the two threads share the cache. Both threads read: the
#: caller takes the next chunk's reads while the stage thread finishes
#: the current chunk's, and again once it has decided it.
_CHUNK_ELEMENT_BUDGET = 1 << 20

#: Rows per padded FFT of the ``fft`` stage A: each reading thread holds
#: one grid of this many rows (655 KB at SF 9, zp 10), not one per
#: round's 41-46 rows, which measured no slower and ~4 MB lower in peak.
_FFT_BLOCK_ROWS = 8

#: Elements per chunk of a noise block's correlating product
#: (:func:`_correlated`, 256 KB of complex values): the chunk's product
#: is the only array the product allocates beside the block.
_NOISE_CHUNK_ELEMENTS = 1 << 14

#: Cap on the number of noise-probe bins carried by the readout plan
#: (a strided subsample of the natural-bin grid at large SF).
_MAX_NOISE_PROBES = 512


@dataclass
class DeviceDecode:
    """Per-device decode outcome within one frame."""

    device_id: int
    shift: int
    detected: bool
    preamble_power: float = 0.0
    noise_power: float = 0.0
    bits: List[int] = field(default_factory=list)
    bit_powers: List[float] = field(default_factory=list)

    @property
    def estimated_snr_db(self) -> Optional[float]:
        """Post-despreading SNR estimate from the preamble.

        The signal-strength measurement the AP feeds to the power-aware
        allocation at association time (Section 3.3.2). ``None`` when
        the device was not detected or no noise estimate exists.
        """
        if not self.detected or self.noise_power <= 0.0:
            return None
        ratio = max(self.preamble_power / self.noise_power - 1.0, 1e-12)
        return float(10.0 * np.log10(ratio))


@dataclass
class FrameDecode:
    """Decode of one concurrent frame across all assigned devices."""

    devices: Dict[int, DeviceDecode]
    start_sample: Optional[int] = None

    def bits_of(self, device_id: int) -> List[int]:
        """Decoded payload bits of one device."""
        if device_id not in self.devices:
            raise DecodingError(f"device {device_id} is not in this decode")
        return self.devices[device_id].bits


@dataclass
class RoundsDecode:
    """Vectorised decode of a whole batch of concurrent rounds.

    Arrays are indexed ``[round, symbol, device-column]`` with device
    columns ordered as ``device_ids``. ``bits`` / ``bit_powers`` hold the
    raw vectorised decisions for *every* device; consumers must gate on
    ``detected`` (``frame`` does this, returning empty bit lists for
    undetected devices).
    ``backend`` names the spectral backend that actually produced the
    readout values (``"analytic"``, ``"sparse"`` or ``"fft"``) — under
    ``readout="auto"`` this is the planner's per-call decision.
    ``noise_mode`` / ``noise_version`` name the engine-injected
    readout-noise stream that produced the draws (see
    :class:`repro.phy.noise.NoiseStream`): ``("full", 1)`` for the
    all-bin stream, ``("payload", 2)`` for the located-bin payload
    stream, and ``("none", 0)`` when no engine noise was injected
    (noiseless decode, or noise already present in the input tensor —
    e.g. the time-domain ``awgn_rounds`` path).
    """

    device_ids: List[int]
    shifts: np.ndarray
    detected: np.ndarray
    preamble_power: np.ndarray
    noise_power: np.ndarray
    bits: np.ndarray
    bit_powers: np.ndarray
    backend: str = "sparse"
    noise_mode: str = "none"
    noise_version: int = 0
    _columns: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_rounds(self) -> int:
        return self.detected.shape[0]

    def column_of(self, device_id: int) -> int:
        """Column index of a device in the batched arrays.

        O(1): the id -> column index is built on the first lookup.
        """
        if self._columns is None:
            self._columns = {
                d: column for column, d in enumerate(self.device_ids)
            }
        try:
            return self._columns[device_id]
        except KeyError:
            raise DecodingError(
                f"device {device_id} is not in this decode"
            ) from None

    def frame(self, round_index: int) -> FrameDecode:
        """Materialise one round as a :class:`FrameDecode`."""
        r = int(round_index)
        if not 0 <= r < self.n_rounds:
            raise DecodingError(f"round {round_index} out of range")
        devices: Dict[int, DeviceDecode] = {}
        for column, device_id in enumerate(self.device_ids):
            detected = bool(self.detected[r, column])
            decode = DeviceDecode(
                device_id=device_id,
                shift=int(self.shifts[column]),
                detected=detected,
                preamble_power=(
                    float(self.preamble_power[r, column]) if detected else 0.0
                ),
                noise_power=float(self.noise_power[r]),
            )
            if detected:
                decode.bits = self.bits[r, :, column].astype(int).tolist()
                decode.bit_powers = self.bit_powers[r, :, column].tolist()
            devices[device_id] = decode
        return FrameDecode(devices=devices)


class _ReadoutPlan:
    """Cached bin layout + operators for the batched decode engine.

    Built once per receiver (the layout depends only on the assignments,
    the search width and the input domain) and reused by every round:

    * an *extended* search window per device — the legal peak-search
      window plus one interpolated guard bin on each side, so the
      located-peak ``+/- 1`` guard read never leaves the window;
    * a probe block on the (possibly strided) natural-bin grid for the
      shared noise-floor estimator, with a mask of probes that sit clear
      of every assignment;
    * :class:`SparseReadout` layouts of exactly those bins: the
      windows', the probes', and both joined (the window bins, then the
      probe bins). The ``sparse`` backend reads the windows at symbol
      rate and the probes once per round through the first two; the
      analytic decode hands all three to
      :func:`repro.core.dcss.compose_windows_and_probes`, which reads
      through the joined layout where one FFT-route call serves both;
    * the factor of one window's AWGN covariance, for the
      readout-domain noise fast path, taken from its eigendecomposition
      (:func:`repro.phy.noise.covariance_factor`: the covariance is
      rank-deficient, so a Cholesky factor fails). Every device's
      window is the same bin pattern translated along the grid, so a
      single ``(W, W)`` factor serves all devices.

    The noise factors depend only on the layout, so they come from small
    caches keyed on their exact inputs (:func:`_window_noise_factor`,
    :func:`_located_noise_factor`): receivers with one layout — every
    full group of a population cycle — share one eigendecomposition.
    """

    def __init__(
        self,
        params,
        zero_pad_factor: int,
        shifts: np.ndarray,
        search_width_bins: float,
        fold_downchirp: bool = True,
    ) -> None:
        n = params.n_samples
        zp = int(zero_pad_factor)
        n_grid = n * zp
        half = max(1, int(round(search_width_bins * zp)))
        self.half = half
        self.window_width = 2 * half + 3
        ext_offsets = np.arange(-half - 1, half + 2)
        centres = np.round(np.asarray(shifts, dtype=float) * zp).astype(int)
        window_idx = (centres[:, None] + ext_offsets[None, :]) % n_grid

        probe_stride = max(1, -(-n // _MAX_NOISE_PROBES))
        probe_idx = np.arange(0, n, probe_stride) * zp
        excluded = exclusion_mask(n_grid, zp, shifts)
        self.free_probe_mask = ~excluded[probe_idx]

        self.n_devices = window_idx.shape[0]
        self.n_probes = probe_idx.size
        self.n_samples = n
        self.window_idx = window_idx
        self.probe_idx = probe_idx
        self.window_readout = SparseReadout(
            params, zp, window_idx.ravel(), fold_downchirp=fold_downchirp
        )
        self.probe_readout = natural_probe_readout(
            params, zp, probe_stride, fold_downchirp=fold_downchirp
        )
        self.joint_readout = SparseReadout(
            params,
            zp,
            np.concatenate((window_idx.ravel(), probe_idx)),
            fold_downchirp=fold_downchirp,
        )
        self._fold = fold_downchirp

    def window_values(self, symbols: np.ndarray) -> np.ndarray:
        """Complex window spectra, ``(..., D, W)``, for a symbol batch."""
        flat = self.window_readout.spectrum(symbols)
        return flat.reshape(
            flat.shape[:-1] + (self.n_devices, self.window_width)
        )

    def read(self, tensor: np.ndarray):
        """Window + symbol-0 probe spectra of a ``(R, S, 2^SF)`` chunk.

        Two operator calls, the probe one only over symbol 0.
        """
        return (
            self.window_values(tensor),
            self.probe_readout.spectrum(tensor[:, 0, :]),
        )

    def read_round(
        self,
        symbols: np.ndarray,
        grid: np.ndarray,
        windows: np.ndarray,
        probes: np.ndarray,
    ) -> None:
        """The padded-FFT read of one ``(S, 2^SF)`` round, in place.

        The round is transformed in blocks of ``grid``'s rows (``(rows,
        2^SF * zp)``, one per reading thread, reused by every round it
        reads), and each block's window bins, then symbol 0's probe
        bins, are gathered into the round's ``(S, D, W)`` and
        ``(n_probes,)`` rows of a span's output. Each row's FFT is that
        row's alone, so this equals, bit for bit, a batch
        :func:`full_fft_values` of the rounds it fills gathered at the
        same bins.
        """
        n_rows = symbols.shape[0]
        flat = windows.reshape(n_rows, -1)
        for first in range(0, n_rows, grid.shape[0]):
            block = symbols[first : first + grid.shape[0]]
            spectrum = grid[: block.shape[0]]
            full_fft_values(
                self.window_readout.params,
                self.window_readout.zero_pad_factor,
                block,
                fold_downchirp=self._fold,
                out=spectrum,
            )
            # Every index is in range, so ``clip`` only spares ``take``
            # the buffered copy it makes of ``out`` under the default
            # ``raise``.
            np.take(
                spectrum,
                self.window_idx.ravel(),
                axis=-1,
                out=flat[first : first + block.shape[0]],
                mode="clip",
            )
            if first == 0:
                np.take(grid[0], self.probe_idx, out=probes, mode="clip")

    @property
    def window_noise_factor(self) -> np.ndarray:
        """Factor ``L`` of one window's unit-AWGN covariance.

        ``L @ zeta`` (``zeta`` iid CN(0,1)) has exactly the joint
        distribution of unit-power time-domain AWGN seen through one
        device's window readout. Identical for every device because the
        windows are translations of the same interpolated-bin pattern
        and the covariance depends only on bin *separations* — which is
        also why the covariance has the closed Dirichlet-kernel form
        (:meth:`repro.phy.sparse_readout.SparseReadout.analytic_noise_covariance`):
        computing it that way keeps the analytic decode path free of
        the ``(N, K)`` operator *and* makes the factor bit-identical
        between the pre-dechirp and dechirped-domain plans, so noise
        drawn with the same generator state matches across every
        composition path. Factored rank-deficiency-safe via
        :func:`repro.phy.noise.covariance_factor` (sub-bin-spaced
        readout bins are almost perfectly correlated).
        """
        return _window_noise_factor(
            self.window_readout.params,
            self.window_readout.zero_pad_factor,
            tuple(self.window_idx[0].tolist()),
        )

    @property
    def payload_noise_factor(self) -> np.ndarray:
        """Factor of the located ``±1``-bin unit-AWGN covariance (3×3).

        The ``noise_mode="payload"`` stream draws payload-symbol noise
        only at each device's located peak and its two interpolated
        neighbours. Those are always three *adjacent* interpolated
        bins, and the window covariance is Toeplitz (it depends only on
        bin separations), so the 3×3 block is the same wherever in the
        window the peak landed — one factor serves every located
        position of every device
        (:func:`repro.phy.sparse_readout.located_bin_noise_covariance`).
        """
        return _located_noise_factor(
            self.window_readout.params, self.window_readout.zero_pad_factor
        )

    def located_columns(self, located: np.ndarray) -> np.ndarray:
        """Window-readout columns of each device's located ``±1`` bins.

        ``located`` is the ``(R, D)`` located position inside each
        device's window; the result is ``(R, D * 3)``, device-major,
        indexing :attr:`window_readout`'s bins.
        """
        base = np.arange(self.n_devices) * self.window_width
        columns = base[:, None] + located[:, :, None] + np.arange(-1, 2)
        return columns.reshape(located.shape[0], -1)

    def gather_located(
        self, rows: np.ndarray, located: np.ndarray
    ) -> np.ndarray:
        """``(R, S, D, W)`` window rows at each device's located ``±1`` bins.

        ``located`` is the ``(R, D)`` located position inside each
        device's window; the result is ``(R, S, D, 3)``. One flat
        ``np.take`` per round reads the round's ``(S, D * W)`` rows at
        its :meth:`located_columns`.
        """
        n_rounds, n_rows = rows.shape[:2]
        columns = self.located_columns(located)
        out = np.empty(
            (n_rounds, n_rows, self.n_devices, 3), dtype=rows.dtype
        )
        for r in range(n_rounds):
            # Every column is in range; ``clip`` spares ``take`` a
            # buffered copy of ``out``, as in :meth:`read_round`.
            np.take(
                rows[r].reshape(n_rows, self.n_devices * self.window_width),
                columns[r],
                axis=1,
                out=out[r].reshape(n_rows, self.n_devices * 3),
                mode="clip",
            )
        return out


@lru_cache(maxsize=8)
def _window_noise_factor(
    params: ChirpParams, zero_pad_factor: int, window_bins: tuple
) -> np.ndarray:
    """Read-only noise factor of one window, by its exact bin indices.

    Keyed on the bins themselves rather than their spacing: the
    covariance is periodic in the separation only up to round-off, so a
    window that wraps the grid edge gets its own entry.
    """
    device0 = SparseReadout(
        params, zero_pad_factor, np.array(window_bins), fold_downchirp=False
    )
    factor = covariance_factor(device0.analytic_noise_covariance())
    factor.flags.writeable = False
    return factor


@lru_cache(maxsize=8)
def _located_noise_factor(
    params: ChirpParams, zero_pad_factor: int
) -> np.ndarray:
    """Read-only factor of the located ``±1``-bin noise covariance."""
    factor = covariance_factor(
        located_bin_noise_covariance(params, zero_pad_factor)
    )
    factor.flags.writeable = False
    return factor


class _SpanNoise:
    """One span's finished engine noise (:func:`_draw_span_noise`).

    The blocks are ``"window"``, ``"probe"`` and, except on the
    ``"full"`` stream (whose window block covers every symbol row),
    ``"located"``. :meth:`take` hands each out once and keeps no
    reference, so a block is freed as soon as stage B has added it,
    not when the span is.
    """

    def __init__(self, full: bool, blocks: dict) -> None:
        self.full = full
        self._blocks = blocks

    def take(self, name: str) -> np.ndarray:
        return self._blocks.pop(name)


def _correlated(
    draws: np.ndarray, factor: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """``(draws @ factor.T) * scale`` over ``(R, ..., D, W)`` draws, in place.

    numpy's stacked product, one ``(D, W)`` product per stack, over
    chunks of whole stacks of at most :data:`_NOISE_CHUNK_ELEMENTS`
    elements (or one stack). Chunking changes only how many stacks one
    call takes, never a stack's product, so the values are those of one
    product over the whole block, bit for bit. Each chunk's product is
    written back over the draws it came from, so a finished block needs
    one chunk beside it, not a second block. ``scale`` is the ``(R,)``
    per-round noise amplitude.
    """
    devices, width = draws.shape[-2:]
    stacks = np.reshape(draws, (-1, devices, width), copy=False)
    step = max(1, _NOISE_CHUNK_ELEMENTS // (devices * width))
    for start in range(0, len(stacks), step):
        chunk = stacks[start : start + step]
        chunk[...] = chunk @ factor.T
    draws *= scale.reshape((-1,) + (1,) * (draws.ndim - 1))
    return draws


def _draw_span_noise(
    stream: Optional[NoiseStream],
    plan: _ReadoutPlan,
    n_rounds: int,
    n_symbols: int,
    n_preamble: int,
    noise_scale: Optional[np.ndarray],
) -> Optional[_SpanNoise]:
    """Every engine draw of one span, finished: correlated and scaled.

    The one owner of the stream's layout. Per span, in this order: one
    window block, ``(R, S, D, W)`` on the ``"full"`` stream (version 1)
    or ``(R, n_preamble, D, W)`` on the ``"payload"`` stream (version
    2); one ``(R, n_probes)`` probe block; and on the payload stream one
    ``(R, S - n_preamble, D, 3)`` block for each device's located ``±1``
    payload bins. The shapes depend on the span alone, never on a
    decoded value, so the draws may run before the span is read or
    decided; spans must be drawn in order. ``None`` without a stream.

    White time-domain noise maps linearly onto the readout, so the noise
    at the read bins is drawn with its exact joint law instead of being
    materialised over the whole ``(rounds, symbols, 2^SF)`` tensor. With
    ``σ`` the span's ``(R,)`` ``noise_scale``:

    * each device window gets ``(ζ @ Lᵀ)·σ`` through the shared
      ``(W, W)`` factor ``L`` (:attr:`_ReadoutPlan.window_noise_factor`);
    * the natural-grid probes are mutually orthogonal and get iid noise
      ``ζ·σ·√N``, of per-bin power ``2^SF * noise_power``;
    * the located ``±1`` payload bins are adjacent, so their joint law
      is the shared 3×3 Toeplitz factor ``P``
      (:attr:`_ReadoutPlan.payload_noise_factor`) whatever the located
      position: ``(ζ @ Pᵀ)·σ``, the marginal of exactly the noise the
      ``"full"`` stream would have drawn there, at ~``W/3`` fewer draws
      per payload symbol.

    Stage B (:meth:`NetScatterReceiver._decide_chunk`) only adds them.
    """
    if stream is None:
        return None
    full_stream = stream.mode == "full"
    rows = n_symbols if full_stream else n_preamble
    devices, width = plan.n_devices, plan.window_width
    window = _correlated(
        stream.standard_complex((n_rounds, rows, devices, width)),
        plan.window_noise_factor,
        noise_scale,
    )
    probe = stream.standard_complex((n_rounds, plan.n_probes))
    probe *= noise_scale[:, None] * np.sqrt(float(plan.n_samples))
    blocks = {"window": window, "probe": probe}
    if not full_stream:
        blocks["located"] = _correlated(
            stream.standard_complex(
                (n_rounds, n_symbols - n_preamble, devices, 3)
            ),
            plan.payload_noise_factor,
            noise_scale,
        )
    return _SpanNoise(full_stream, blocks)


def _add_noise(
    noise: _SpanNoise, name: str, values: np.ndarray
) -> np.ndarray:
    """Take one finished noise block and add ``values`` to it, in place.

    The block is a fresh array the span owns, so the sum needs no new
    buffer, and ``values`` may be a read-only broadcast view.
    """
    block = noise.take(name)
    block += values
    return block


def _max3(values: np.ndarray) -> np.ndarray:
    """Maximum over a trailing axis of length 3, elementwise.

    Equal to ``values.max(axis=-1)``: a maximum is exact whatever the
    order, and two ``np.maximum`` passes beat a reduction over so short
    an axis many times over.
    """
    return np.maximum(
        np.maximum(values[..., 0], values[..., 1]), values[..., 2]
    )


def _check_finite(name: str, values: np.ndarray) -> None:
    """Reject NaN or infinite decode inputs, before any draw."""
    if not np.isfinite(values).all():
        raise DecodingError(f"{name} must be finite")


def _check_frame(n_rounds: int, n_symbols: int, n_preamble: int) -> None:
    """Reject a batch shape no decode can read, before any draw."""
    if n_rounds < 1:
        raise DecodingError("need at least one round")
    if n_preamble < 1:
        raise DecodingError(
            f"n_preamble_upchirps must be >= 1, got {n_preamble}"
        )
    if n_symbols < n_preamble:
        raise DecodingError("fewer symbols than preamble length")


def _compose_located(
    plan: _ReadoutPlan,
    tones: tuple,
    payload_bits: np.ndarray,
    located: np.ndarray,
) -> np.ndarray:
    """Analytic payload values at each device's located ``±1`` bins.

    ``tones`` is ``(params, effective_bins, amplitudes, phases)`` of a
    round chunk and ``payload_bits`` its ``(R, S_payload, n_tx)`` keying
    rows; ``located`` is the ``(R, D)`` located window position. The
    result is ``(R, S_payload, D, 3)``: the payload rows composed at 3
    of the ``W`` window bins per device, the only bins the decisions
    read.
    """
    from repro.core.dcss import compose_readout

    values = compose_readout(
        *tones,
        payload_bits,
        plan.window_readout,
        columns=plan.located_columns(located),
    )
    return values.reshape(values.shape[:2] + (plan.n_devices, 3))


class NetScatterReceiver:
    """Decodes concurrent distributed-CSS transmissions at the AP.

    Parameters
    ----------
    config:
        The network's operating point.
    assignments:
        Map of ``device_id -> cyclic shift`` currently in force (produced
        by :class:`repro.core.allocation.AllocationTable`).
    search_width_bins:
        Half-width (in natural bins) of the peak-search window around each
        assigned shift. Defaults to a quarter of the SKIP gap: wide enough
        to absorb the sub-bin residual offsets that survive preamble
        synchronisation, while keeping the window edge more than a full
        bin away from a SKIP-spaced neighbour's main lobe.
    readout:
        Spectral backend of the batched round decoders. ``"sparse"``
        (default) evaluates only each device's window bins plus the noise
        probes through a precomputed matmul; ``"fft"`` computes the full
        zero-padded FFT and gathers the same bins; ``"analytic"``
        evaluates tone-sum rounds at those bins through the closed-form
        Dirichlet kernel, never building the operator. What each value
        runs per entry point (pinned by ``tests/test_backend_plan.py``):

        ==============  =====================  =======================
        ``readout``     :meth:`decode_rounds`  :meth:`decode_readout`
        ==============  =====================  =======================
        ``"sparse"``    ``sparse``             ``analytic``
        ``"analytic"``  ``sparse``             ``analytic``
        ``"fft"``       ``fft``                ``analytic``
        ``"auto"``      ``sparse`` or ``fft``  ``analytic`` or ``fft``
        ==============  =====================  =======================

        So ``"sparse"`` and ``"analytic"`` select the same backends
        (a symbol tensor cannot use the closed form, and tone inputs
        have no sparse path), and ``"fft"`` affects only
        :meth:`decode_rounds`. ``"auto"`` picks the predicted-cheapest
        backend per call from the host-calibrated cost model
        (:mod:`repro.phy.backend_plan`). Decisions are bit-identical
        whichever backend runs. The single-frame entry point
        (:meth:`decode_fast_symbols`) always reads through ``fft``.
    planner:
        Optional :class:`repro.phy.backend_plan.BackendPlanner`
        overriding the host-calibrated planner under ``readout="auto"``
        (tests pin crossovers with synthetic coefficients this way).
    noise_mode:
        Engine-noise draw layout used when ``decode_rounds`` /
        ``decode_readout`` inject readout-domain AWGN
        (``noise_snr_db=``). ``"payload"`` (default, stream version 2)
        draws full window noise for the preamble symbols but payload
        noise only at each device's located ``±1`` bins — ~3× fewer
        window draws per round with exactly the same decision
        statistics (payload decisions never read the other bins).
        ``"full"`` (stream version 1) draws every readout bin of every
        symbol, bit-identical to the engine's historical streams. The
        per-call ``noise_mode=`` argument of the decode entry points
        overrides this default; the stream actually used is stamped on
        :attr:`RoundsDecode.noise_mode` / ``noise_version``.
    """

    def __init__(
        self,
        config: NetScatterConfig,
        assignments: Dict[int, int],
        search_width_bins: Optional[float] = None,
        detection_snr_db: float = 3.0,
        readout: str = "sparse",
        planner=None,
        noise_mode: str = "payload",
    ) -> None:
        if not assignments:
            raise DecodingError("receiver needs at least one assignment")
        shifts = list(assignments.values())
        if len(set(shifts)) != len(shifts):
            raise DecodingError("cyclic shifts must be unique per device")
        shift_array = np.asarray(shifts)
        outside = (shift_array < 0) | (shift_array >= config.n_bins)
        if outside.any():
            raise DecodingError(
                f"shift {shifts[int(np.argmax(outside))]} out of range"
            )
        self._config = config
        self._assignments = dict(assignments)
        self._params = config.chirp_params
        if search_width_bins is None:
            search_width_bins = config.skip / 4.0
        if readout not in ("sparse", "fft", "analytic", "auto"):
            raise DecodingError(
                "readout must be 'sparse', 'fft', 'analytic' or 'auto', "
                f"got {readout!r}"
            )
        if noise_mode not in NOISE_MODES:
            raise DecodingError(
                f"noise_mode must be one of {NOISE_MODES}, "
                f"got {noise_mode!r}"
            )
        self._search_width = float(search_width_bins)
        self._detection_snr = float(detection_snr_db)
        self._readout = readout
        self._planner = planner
        self._noise_mode = noise_mode
        self._plans: Dict[bool, _ReadoutPlan] = {}

    @property
    def config(self) -> NetScatterConfig:
        return self._config

    @property
    def assignments(self) -> Dict[int, int]:
        return dict(self._assignments)

    # ------------------------------------------------------------------ #
    # single-frame entry point
    # ------------------------------------------------------------------ #

    def decode_fast_symbols(
        self,
        symbols: Sequence[np.ndarray],
        n_preamble_upchirps: int = 6,
    ) -> FrameDecode:
        """Decode one pre-aligned frame of raw symbols.

        ``symbols`` holds the frame's preamble upchirps, then its
        payload symbols, ``2^SF`` samples each. The frame is decoded as
        one round on the ``fft`` path, whatever this receiver's
        ``readout``: one zero-padded FFT per symbol, then the decision
        rule every batch decode applies (:meth:`_decide_chunk`).
        """
        n = self._params.n_samples
        if any(np.size(symbol) != n for symbol in symbols):
            raise DecodingError(f"every symbol must hold {n} samples")
        matrix = np.asarray(symbols, dtype=complex).reshape(-1, n)
        _check_finite("symbols", matrix)
        _check_frame(1, matrix.shape[0], n_preamble_upchirps)
        return self._decode_tensor(
            matrix[None], n_preamble_upchirps, False, "fft", None, None
        ).frame(0)

    # ------------------------------------------------------------------ #
    # batch entry points (used by the network simulator)
    # ------------------------------------------------------------------ #

    @property
    def readout_plan(self) -> _ReadoutPlan:
        """The cached sparse-readout plan for pre-dechirp symbol input."""
        return self._readout_plan(dechirped=False)

    def _readout_plan(self, dechirped: bool) -> _ReadoutPlan:
        """Plan for the requested input domain, built on first use."""
        fold = not dechirped
        if fold not in self._plans:
            self._plans[fold] = _ReadoutPlan(
                self._params,
                self._config.zero_pad_factor,
                np.array(
                    [self._assignments[d] for d in self._assignments],
                    dtype=float,
                ),
                self._search_width,
                fold_downchirp=fold,
            )
        return self._plans[fold]

    def decode_rounds(
        self,
        symbol_tensor: np.ndarray,
        n_preamble_upchirps: int = 6,
        dechirped: bool = False,
        noise_snr_db=None,
        rng=None,
        signal_power: float = 1.0,
        noise_mode: Optional[str] = None,
    ) -> RoundsDecode:
        """Decode a whole Monte-Carlo batch of rounds in one pass.

        ``symbol_tensor`` is ``(n_rounds, n_symbols, 2^SF)``: every round
        of a sweep point composed up front (see
        :func:`repro.core.dcss.compose_rounds`). The spectral readout is
        one matmul over each span of rounds (or one padded FFT per
        round on the ``fft`` backend), the peak location / noise floor /
        bit decisions are vectorised across rounds, and memory is
        bounded by processing the batch in round spans.

        Parameters
        ----------
        dechirped:
            When True the tensor is already in the dechirped domain
            (``compose_rounds(..., respread=False)``); the readout then
            skips the downchirp fold. The re-spread/de-spread pair is a
            unit-modulus rotation, so both domains decode identically.
        noise_snr_db:
            When given (scalar, or one value per round), channel AWGN at
            that SNR — same reference convention as
            :func:`repro.channel.awgn.awgn` — is injected *at the
            readout bins* using the exact covariance of white noise seen
            through the readout (see
            :meth:`repro.phy.sparse_readout.SparseReadout.analytic_noise_covariance`).
            Each device's window block and each probe bin get exactly
            their physical joint noise law; only the cross-correlation
            between different devices' windows (and windows vs probes)
            is dropped, which no per-device statistic observes. This
            skips generating noise over the full time-domain tensor —
            the dominant cost of large noisy sweeps. Requires ``rng``.
        noise_mode:
            Per-call override of the receiver's engine-noise stream
            (``"payload"`` or ``"full"``, see the constructor); ``None``
            uses the receiver's configured mode. Ignored when
            ``noise_snr_db`` is ``None`` (the decode is then stamped
            ``noise_mode="none"``, stream version 0).
        """
        symbol_tensor = np.asarray(symbol_tensor, dtype=complex)
        n = self._params.n_samples
        if symbol_tensor.ndim != 3 or symbol_tensor.shape[2] != n:
            raise DecodingError(
                f"symbol tensor must be (n_rounds, n_symbols, {n})"
            )
        n_rounds, n_symbols, _ = symbol_tensor.shape
        _check_finite("symbol_tensor", symbol_tensor)
        _check_frame(n_rounds, n_symbols, n_preamble_upchirps)

        noise_scale = self._noise_scale(
            noise_snr_db, rng, signal_power, n_rounds
        )
        stream = self._noise_stream(noise_scale, rng, noise_mode)
        if self._readout == "fft":
            backend = "fft"
        elif self._readout == "auto":
            backend = self._backend_planner().select(
                self._workload(
                    n_rounds,
                    n_symbols,
                    0,
                    dechirped,
                    tone_input=False,
                    stream=stream,
                    n_preamble=n_preamble_upchirps,
                )
            )
            if backend not in ("sparse", "fft"):
                raise DecodingError(
                    f"planner chose {backend!r} for a tensor input; "
                    "only 'sparse' and 'fft' apply"
                )
        else:
            # Tensor inputs cannot use the closed-form kernel; analytic
            # receivers fall back to the sparse operator here.
            backend = "sparse"
        return self._decode_tensor(
            symbol_tensor,
            n_preamble_upchirps,
            dechirped,
            backend,
            noise_scale,
            stream,
        )

    def _noise_stream(
        self, noise_scale, rng, noise_mode: Optional[str]
    ) -> Optional[NoiseStream]:
        """The versioned draw stream for this decode, or ``None``.

        Built once per decode call and threaded through every span, so
        a multi-span batch consumes one generator sequentially — the
        same consumption pattern the pre-stream engine had.
        """
        if noise_mode is not None and noise_mode not in NOISE_MODES:
            raise DecodingError(
                f"noise_mode must be one of {NOISE_MODES}, "
                f"got {noise_mode!r}"
            )
        if noise_scale is None:
            return None
        return NoiseStream(rng, noise_mode or self._noise_mode)

    def _decode_tensor(
        self,
        symbol_tensor: np.ndarray,
        n_preamble_upchirps: int,
        dechirped: bool,
        backend: str,
        noise_scale,
        stream: Optional[NoiseStream],
    ) -> RoundsDecode:
        """A symbol tensor through the ``sparse`` or ``fft`` readout."""
        n_rounds, n_symbols, _ = symbol_tensor.shape
        plan = self._readout_plan(dechirped)
        if backend == "fft":
            read = self._fft_reader(plan, n_symbols, lambda r: symbol_tensor[r])
        else:
            def read(span):
                return span, *plan.read(symbol_tensor[slice(*span)]), None
        spans = self._decide_spans(n_rounds, n_symbols, plan, backend)
        return self._decode_spans(
            read, spans, n_symbols, n_preamble_upchirps, plan, backend,
            noise_scale, stream,
        )

    def _decide_spans(
        self,
        n_rounds: int,
        n_symbols: int,
        plan: _ReadoutPlan,
        backend: str,
        n_tones: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """``(start, stop)`` rounds of each span of a decode.

        A span holds the rounds whose stage-A output fits the element
        budget: the full padded grid on the ``fft`` backend, the read
        bins on ``sparse``, and on ``analytic`` the read bins plus the
        per-tone kernel columns of the window and probe readouts. On
        ``fft``, tone inputs (``n_tones`` tones per round) are first cut
        into compose chunks, sized for each round's composed symbols and
        tone matrix, and each compose chunk into spans; a symbol tensor
        is one compose chunk. The engine noise is drawn one span at a
        time, in this order, so these boundaries fix the draws.
        """
        n = self._params.n_samples
        if backend == "analytic":
            per_round = n_symbols * plan.window_readout.n_bins + n_tones * (
                plan.window_readout.n_bins + plan.probe_readout.n_bins
            )
        elif backend == "fft":
            per_round = n_symbols * n * self._config.zero_pad_factor
        else:
            per_round = n_symbols * plan.window_readout.n_bins
        decide = max(1, _CHUNK_ELEMENT_BUDGET // max(1, per_round))
        compose = n_rounds
        if n_tones is not None and backend != "analytic":
            compose = max(
                1, _CHUNK_ELEMENT_BUDGET // ((n_symbols + n_tones) * n)
            )
        spans = []
        for first in range(0, n_rounds, compose):
            last = min(first + compose, n_rounds)
            spans.extend(
                (start, min(start + decide, last))
                for start in range(first, last, decide)
            )
        return spans

    def _backend_planner(self):
        """The cost-model planner used by ``readout="auto"``."""
        if self._planner is None:
            from repro.phy.backend_plan import host_planner

            self._planner = host_planner()
        return self._planner

    def _workload(
        self,
        n_rounds: int,
        n_symbols: int,
        n_tones: int,
        dechirped: bool,
        tone_input: bool,
        stream: Optional[NoiseStream] = None,
        n_preamble: int = 6,
    ):
        """This receiver's readout shape as a planner workload.

        The engine-noise stream (when one will be drawn) rides along so
        the cost model can account the draw volume of the selected
        ``noise_mode`` — the noise term is backend-common, but carrying
        it keeps the predicted totals honest against wall-clock.
        """
        from repro.phy.backend_plan import ReadoutWorkload

        plan = self._readout_plan(dechirped)
        return ReadoutWorkload(
            n_rounds=n_rounds,
            n_symbols=n_symbols,
            n_devices=n_tones,
            n_samples=self._params.n_samples,
            zero_pad_factor=self._config.zero_pad_factor,
            window_bins=plan.window_readout.n_bins,
            probe_bins=plan.probe_readout.n_bins,
            tone_input=tone_input,
            window_width=plan.window_width,
            n_preamble=n_preamble,
            noise_mode=None if stream is None else stream.mode,
        )

    def decode_readout(
        self,
        effective_bins: np.ndarray,
        amplitudes: np.ndarray,
        phases_rad: np.ndarray,
        bit_tensor: np.ndarray,
        n_preamble_upchirps: int = 6,
        noise_snr_db=None,
        rng=None,
        signal_power: float = 1.0,
        noise_mode: Optional[str] = None,
    ) -> RoundsDecode:
        """Analytic entry point: decode tone-sum rounds waveform-free.

        Takes the *composition inputs* of
        :func:`repro.core.dcss.compose_rounds` —
        ``(n_rounds, n_devices)`` fractional effective bins, amplitudes
        and phases plus the ``(n_rounds, n_symbols, n_devices)`` keying
        tensor — and evaluates the tone sum directly at this receiver's
        readout bins (:func:`repro.core.dcss.compose_readout`, by its
        closed-form Dirichlet kernel or its FFT route). Stage A reads
        each span's windows and symbol-0 probes through
        :func:`repro.core.dcss.compose_windows_and_probes`: where the
        windows read one distinct row (the shared preamble row outside
        the ``"full"`` stream) and the FFT route serves every read, one
        call through the plan's joint layout, so one synthesis and one
        set of residue FFTs serve both; otherwise two calls. No
        ``(rounds, symbols, 2^SF)`` tensor is ever materialised and the
        sparse-readout operator is never built; the values then flow
        through exactly the detection/decision logic of
        :meth:`decode_rounds`, so decisions match the time-domain path
        bit for bit on tone-sum inputs. Except under the ``"full"``
        noise stream, only the preamble rows are composed across the
        device windows; payload rows are composed at each device's
        located ``±1`` bins, the only bins the decisions read.

        ``noise_snr_db`` / ``rng`` / ``signal_power`` / ``noise_mode``
        compose with the exact readout-domain AWGN injection of
        :meth:`decode_rounds` (same covariance, same stream layout and
        draw order — a shared generator state yields identical noise on
        both paths for single-span batches, whichever ``noise_mode``
        is in force).

        Under ``readout="auto"`` the calibrated cost model picks the
        cheapest spectral backend for this batch's occupancy: the
        closed-form path below small crossover occupancies, otherwise
        the tone sum is synthesised in the dechirped domain
        (:func:`repro.core.dcss.compose_rounds`) and read through the
        padded FFT. Every other ``readout`` runs the closed form here.
        Decisions are bit-identical either way; the chosen backend is
        reported in :attr:`RoundsDecode.backend`.
        Every backend runs through the one span loop
        (:meth:`_decode_spans`).
        """
        from repro.core.dcss import (
            _shared_preamble_rows,
            compose_rounds,
            compose_windows_and_probes,
        )

        effective_bins = np.asarray(effective_bins, dtype=float)
        amplitudes = np.asarray(amplitudes, dtype=float)
        phases_rad = np.asarray(phases_rad, dtype=float)
        bit_tensor = np.asarray(bit_tensor, dtype=float)
        if effective_bins.ndim != 2 or bit_tensor.ndim != 3:
            raise DecodingError(
                "effective_bins must be (n_rounds, n_devices) and "
                "bit_tensor (n_rounds, n_symbols, n_devices)"
            )
        for name, values in (
            ("effective_bins", effective_bins),
            ("amplitudes", amplitudes),
            ("phases_rad", phases_rad),
            ("bit_tensor", bit_tensor),
        ):
            _check_finite(name, values)
        n_rounds, n_symbols, n_tx = bit_tensor.shape
        _check_frame(n_rounds, n_symbols, n_preamble_upchirps)
        noise_scale = self._noise_scale(
            noise_snr_db, rng, signal_power, n_rounds
        )
        stream = self._noise_stream(noise_scale, rng, noise_mode)
        backend = "analytic"
        if self._readout == "auto":
            backend = self._backend_planner().select(
                self._workload(
                    n_rounds,
                    n_symbols,
                    n_tx,
                    dechirped=True,
                    tone_input=True,
                    stream=stream,
                    n_preamble=n_preamble_upchirps,
                )
            )
            if backend not in ("analytic", "fft"):
                raise DecodingError(
                    f"planner chose {backend!r} for a tone input; "
                    "only 'analytic' and 'fft' apply"
                )
        # Every backend reads the dechirped tone sum (the re-spread /
        # de-spread rotation cancels through the receiver; the kernel is
        # domain-free), so the dechirped-domain plan serves all three.
        plan = self._readout_plan(dechirped=True)
        # The "full" stream draws noise at every window bin of every
        # symbol, so it needs every row read across the windows.
        full_stream = stream is not None and stream.mode == "full"

        def tones(span):
            rounds = slice(*span)
            return (
                self._params,
                effective_bins[rounds],
                amplitudes[rounds],
                phases_rad[rounds],
            )

        def compose(span, first_row=0):
            return compose_rounds(
                *tones(span),
                bit_tensor[slice(*span), first_row:],
                respread=False,
            )

        if backend == "fft":
            # The fft stage A streams round by round: each round is
            # composed alone, so no span-sized symbol tensor is held.
            # Outside the "full" stream, when every round's preamble rows
            # are equal, only the distinct rows are composed and
            # transformed: the shared preamble row, then the payload.
            # Without payload rows the one row left would take BLAS's
            # one-row path, which is not bit-identical to the batch
            # product, so such frames read every row.
            shared = 0
            if not full_stream and n_symbols > n_preamble_upchirps:
                shared = _shared_preamble_rows(
                    bit_tensor, n_preamble_upchirps
                )
            first = max(shared - 1, 0)
            read = self._fft_reader(
                plan,
                n_symbols - first,
                lambda r: compose((r, r + 1), first)[0],
                shared,
            )
        else:
            # Outside the "full" stream only the preamble rows are
            # composed across the windows (the peak search reads them
            # all), and the payload rows once the peaks are located, at
            # each device's located +/- 1 bins.
            window_rows = n_symbols if full_stream else n_preamble_upchirps

            def read(span):
                span_tones = tones(span)
                rounds = slice(*span)
                # The noise floor reads only the first symbol's probes.
                window_flat, probes = compose_windows_and_probes(
                    *span_tones,
                    bit_tensor[rounds, :window_rows],
                    plan.window_readout,
                    plan.probe_readout,
                    plan.joint_readout,
                    n_preamble_rows=n_preamble_upchirps,
                )
                windows = window_flat.reshape(
                    window_flat.shape[:2]
                    + (plan.n_devices, plan.window_width)
                )
                read_payload = None
                if not full_stream:
                    read_payload = partial(
                        _compose_located,
                        plan,
                        span_tones,
                        bit_tensor[rounds, n_preamble_upchirps:],
                    )
                return span, windows, probes, read_payload

        spans = self._decide_spans(
            n_rounds, n_symbols, plan, backend, n_tones=n_tx
        )
        return self._decode_spans(
            read, spans, n_symbols, n_preamble_upchirps, plan, backend,
            noise_scale, stream,
        )

    def _fft_reader(
        self,
        plan: _ReadoutPlan,
        n_rows: int,
        round_symbols: Callable[[int], np.ndarray],
        n_preamble: int = 0,
    ):
        """Stage A of the ``fft`` backend: one part per round.

        ``round_symbols(r)`` gives round ``r``'s ``(n_rows, 2^SF)``
        symbol rows. ``read(span)`` returns ``(parts, finish)`` for
        :func:`repro.utils.parallel.pipeline`: one part per round of the
        span, which the stage thread and the caller share, and a finish
        step that hands the span's output to stage B. Each part
        transforms its round in blocks of :data:`_FFT_BLOCK_ROWS` rows
        into its thread's own grid and gathers them into the span's
        output (:meth:`_ReadoutPlan.read_round`), so no span-sized grid
        is ever held and no grid is shared between threads. Rounds of
        two spans may be read at once, each span into its own slot: the
        outputs come from two slots, allocated once per decode, the
        pipeline produces span k+2 only once span k is consumed, and
        every decision is a fresh array, so no slot is read after its
        reuse.

        With ``n_preamble`` the rows are the round's distinct ones: its
        shared preamble row, then its payload rows. Stage B then gets
        that row broadcast over the ``n_preamble`` preamble rows, and
        the payload rows read at the located bins
        (:meth:`_ReadoutPlan.gather_located`), the values a full read
        would give, bit for bit.
        """
        grids = threading.local()
        slots = [None, None]
        produced = itertools.count()

        def read_round(r, windows, probes):
            grid = getattr(grids, "grid", None)
            if grid is None:
                grid = grids.grid = np.empty(
                    (
                        min(n_rows, _FFT_BLOCK_ROWS),
                        plan.n_samples * self._config.zero_pad_factor,
                    ),
                    dtype=complex,
                )
            plan.read_round(round_symbols(r), grid, windows, probes)

        def read(span):
            start, stop = span
            n_rounds = stop - start
            slot = next(produced) % 2
            if slots[slot] is None or len(slots[slot][1]) < n_rounds:
                slots[slot] = (
                    np.empty(
                        (n_rounds, n_rows, plan.n_devices, plan.window_width),
                        dtype=complex,
                    ),
                    np.empty((n_rounds, plan.n_probes), dtype=complex),
                )
            windows, probes = (block[:n_rounds] for block in slots[slot])
            parts = [
                partial(read_round, start + row, windows[row], probes[row])
                for row in range(n_rounds)
            ]
            return parts, lambda _: finish(span, windows, probes)

        def finish(span, windows, probes):
            if not n_preamble:
                return span, windows, probes, None
            preamble = np.broadcast_to(
                windows[:, :1],
                (windows.shape[0], n_preamble) + windows.shape[2:],
            )
            payload = partial(plan.gather_located, windows[:, 1:])
            return span, preamble, probes, payload

        return read

    def _decode_spans(
        self,
        read: Callable,
        spans: List[Tuple[int, int]],
        n_symbols: int,
        n_preamble: int,
        plan: _ReadoutPlan,
        backend: str,
        noise_scale,
        stream: Optional[NoiseStream],
    ) -> RoundsDecode:
        """The span loop every decode runs through.

        ``read(span)`` is the backend's stage A. On ``analytic`` and
        ``sparse`` it returns ``(span, windows, probes, read_payload)``,
        the arguments of :meth:`_decide_chunk` for the span's rounds; on
        ``fft`` it returns one part per round and a finish step that
        returns them (:meth:`_fft_reader`).

        Every span is one item of :func:`repro.utils.parallel.pipeline`
        with one shape: part 0 draws the span's engine noise and
        finishes it, correlated and scaled by the span's rounds of
        ``noise_scale`` (:func:`_draw_span_noise`), the other parts are
        the backend's reads (one per round on ``fft``, one on
        ``analytic`` and ``sparse``), and stage B only adds that noise
        and decides. With more than one span and more than one usable
        CPU, the pipeline's stage thread takes every draw, span after
        span, and reads between them; this thread produces the next
        span as soon as this span's draw has ended and its reads are
        all taken, reads the next span's rounds while the stage thread
        finishes this span's, and decides each span once it is read.
        Only the draws wait for the span before, so every draw runs on
        one thread in the stream's order, and the result is that of a
        serial decode, bit for bit. After a failure the generator may
        have advanced past a serial decode's by the one span stage A
        runs ahead.
        """
        if backend == "fft":
            split = read
        else:
            def split(span):
                return [partial(read, span)], itemgetter(0)

        def draw_then_read(span):
            start, stop = span
            parts, finish = split(span)
            draw = partial(
                _draw_span_noise,
                stream, plan, stop - start, n_symbols, n_preamble,
                None if noise_scale is None else noise_scale[start:stop],
            )
            return [draw, *parts], lambda done: (finish(done[1:]), done[0])

        def decide(staged_noise):
            staged, noise = staged_noise
            _, windows, probes, read_payload = staged
            return self._decide_chunk(
                windows, probes, n_preamble, plan, noise, read_payload
            )

        pieces = pipeline(draw_then_read, decide, spans)
        return self._assemble_decode(pieces, backend, stream)

    def _noise_scale(self, noise_snr_db, rng, signal_power, n_rounds):
        """Validate and broadcast the readout-noise amplitude per round.

        Runs before any draw. A NaN or infinite SNR or signal power would
        otherwise decode silently: NaN or infinite noise floors, or a
        floor near zero.
        """
        if noise_snr_db is None:
            return None
        if rng is None:
            raise DecodingError("readout-domain noise needs an rng")
        if not (np.isfinite(signal_power) and signal_power > 0):
            raise DecodingError(
                f"signal_power must be positive and finite, got {signal_power}"
            )
        snr = np.asarray(noise_snr_db, dtype=float)
        if snr.ndim > 1 or (snr.ndim == 1 and snr.size != n_rounds):
            raise DecodingError(
                "noise_snr_db must be scalar or one value per round"
            )
        if not np.all(np.isfinite(snr)):
            raise DecodingError("noise_snr_db must be finite")
        return np.broadcast_to(
            np.sqrt(signal_power / 10.0 ** (snr / 10.0)), (n_rounds,)
        )

    def _assemble_decode(
        self,
        pieces,
        backend: str,
        stream: Optional[NoiseStream] = None,
    ) -> RoundsDecode:
        """Stack per-span decision arrays into one :class:`RoundsDecode`."""
        device_ids = list(self._assignments)
        shifts = np.array(
            [self._assignments[d] for d in device_ids], dtype=int
        )
        return RoundsDecode(
            device_ids=device_ids,
            shifts=shifts,
            detected=np.concatenate([p[0] for p in pieces], axis=0),
            preamble_power=np.concatenate([p[1] for p in pieces], axis=0),
            noise_power=np.concatenate([p[2] for p in pieces], axis=0),
            bits=np.concatenate([p[3] for p in pieces], axis=0),
            bit_powers=np.concatenate([p[4] for p in pieces], axis=0),
            backend=backend,
            noise_mode="none" if stream is None else stream.mode,
            noise_version=0 if stream is None else stream.version,
        )

    def _decide_chunk(
        self,
        window_values: np.ndarray,
        probe_values: np.ndarray,
        n_preamble: int,
        plan: _ReadoutPlan,
        noise: Optional[_SpanNoise],
        read_payload: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        """Detection/decision logic on readout values, however composed.

        ``window_values`` is ``(R, S, D, W)`` complex, ``probe_values``
        ``(R, n_probes)`` complex (symbol 0 only). The one decision
        rule: every entry point reaches it through
        :meth:`_decode_spans`, which is what makes their decisions
        comparable bit for bit.

        Each device's peak is located from the summed preamble windows;
        every symbol is then read at the located bin and its two
        interpolated neighbours only. ``read_payload`` maps the
        ``(R, D)`` located window positions to the ``(R, S_payload, D,
        3)`` payload values at those bins; with it, ``window_values``
        need hold only the preamble rows (the analytic path composes the
        payload at the located bins alone, the ``fft`` path hands its
        one transformed preamble row broadcast over them and gathers
        the payload from its distinct rows). Without it the payload
        values are gathered from ``window_values``. Either gather is
        one flat ``np.take`` per round
        (:meth:`_ReadoutPlan.gather_located`), and the ``±1`` maxima
        are elementwise (:func:`_max3`).

        ``noise`` holds the span's finished engine noise, drawn in the
        stream's layout, correlated and scaled (:func:`_draw_span_noise`)
        as part 0 of the span's stage A on every backend, so this only
        adds it and decides: it adds each block in place and takes it
        once, so each is freed once added.
        The ``"full"`` stream (version 1) noise-loads the whole window
        tensor up front — the historical layout, pinned bit-for-bit by
        the version-1 goldens — so it needs every window row and no
        ``read_payload``. The ``"payload"`` stream (version
        2) noise-loads only the preamble rows and probes, locates each
        device's peak from those noisy preambles (exactly the full
        stream's located-bin law), then adds payload noise only at the
        located ``±1`` bins (correlated through the shared 3×3 Toeplitz
        factor).
        Payload decisions read nothing but those three bins, so the
        reduced stream's decision statistics are *identical*, at ~3×
        fewer window draws per 46-symbol round.
        """
        full_stream = noise is not None and noise.full
        payload_stream = noise is not None and not full_stream
        if full_stream:
            window_values = _add_noise(noise, "window", window_values)
        preamble_values = window_values[:, :n_preamble]
        if payload_stream:
            preamble_values = _add_noise(noise, "window", preamble_values)
        if noise is not None:
            probe_values = _add_noise(noise, "probe", probe_values)
        preamble_windows = preamble_values.real**2 + preamble_values.imag**2
        # Windows sit on the extended grid: interior positions [1, W-2]
        # are the legal search window, the outermost bin on each side
        # exists only so the (R, 1, D, 3) gather of located-1 ..
        # located+1 stays inside.
        preamble_sum = preamble_windows.sum(axis=1)
        located = preamble_sum[:, :, 1:-1].argmax(axis=2) + 1
        preamble_powers = _max3(
            plan.gather_located(preamble_windows, located)
        )
        if read_payload is None:
            payload_values = plan.gather_located(
                window_values[:, n_preamble:], located
            )
        else:
            payload_values = read_payload(located)
        if payload_stream:
            payload_values = _add_noise(noise, "located", payload_values)
        payload_powers = _max3(
            payload_values.real**2 + payload_values.imag**2
        )

        first_probes = probe_values.real**2 + probe_values.imag**2
        # Shared noise rule: median of the signal-free probe bins of the
        # first preamble symbol, falling back to a low quantile of the
        # whole probe grid under full occupancy.
        noise = np.atleast_1d(
            estimate_noise_floor(
                first_probes[:, plan.free_probe_mask],
                fallback_powers=first_probes,
            )
        )
        threshold_scale = 10.0 ** (self._detection_snr / 10.0)

        detected = preamble_powers.min(axis=1) > (
            noise[:, None] * threshold_scale
        )
        preamble_means = preamble_powers.mean(axis=1)
        bits = (
            payload_powers > 0.5 * preamble_means[:, None, :]
        ).astype(np.uint8)
        return detected, preamble_means, noise, bits, payload_powers
