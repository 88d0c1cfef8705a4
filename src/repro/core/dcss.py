"""Distributed CSS frame composition — the network-side encoder view.

The paper's Fig. 2b: each concurrent device ON-OFF-keys its own assigned
cyclic shift, and the air sums everything. This module composes those
sums on the dechirped grid (the waveform-level frame, each device's
packet delayed, detuned and summed, is ``tests/waveform_oracle.py``'s
``compose_frame``):

* :func:`compose_symbol` — bin-domain fast path: one symbol of N devices
  composed directly as a sum of complex tones on the dechirped grid. A
  device at shift ``k`` with residual offset ``delta`` contributes the
  tone ``a * exp(j*(2*pi*(k + delta)*n/N + phase))``, which is *exactly*
  what the dechirped waveform of that device looks like; this makes
  10^4-symbol BER sweeps (Fig. 12) affordable.
* :func:`compose_readout` — analytic fidelity: the readout values of a
  whole batch of tone-sum rounds, without the ``(rounds, symbols,
  2^SF)`` tensor. Sparse reads take the closed-form Dirichlet kernel,
  at a cost that scales with devices x readout bins; dense ones (many
  devices, whole windows) take one factored tone synthesis and a few
  ``2^SF``-point FFTs per distinct row, as the paper's receiver reads a
  symbol. Either equals running :func:`compose_rounds` through a
  :class:`SparseReadout`, the FFT route to round-off.

All paths produce values the same :class:`NetScatterReceiver` decodes.

Noise never enters here: composition is deterministic given its draw
inputs, and each decode entry point adds its own AWGN — time-domain
(:func:`repro.channel.awgn.awgn_rounds`) over :func:`compose_rounds`
tensors, or readout-domain from a versioned
:class:`repro.phy.noise.NoiseStream` when the engine injects noise at
the bins :func:`compose_readout` evaluated (``noise_mode="payload"``
draws only the located ``±1`` payload bins; ``"full"`` draws them
all). Keeping composition noise-free is what lets one composed batch
be decoded under several noise modes, backends and seeds for
equivalence testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.chirp import ChirpParams, downchirp
from repro.phy.sparse_readout import _GEMM_MAX_MACS, SparseReadout
from repro.utils.conversions import (
    amplitude_from_db,
    freq_offset_to_bins,
    timing_offset_to_bins,
)
from repro.utils.rng import RngLike, make_rng


@dataclass
class DeviceTransmission:
    """One device's contribution to a concurrent frame.

    Attributes
    ----------
    shift:
        Assigned cyclic shift (FFT bin).
    bits:
        OOK payload bits for this frame.
    power_gain_db:
        Amplitude scaling relative to a unit-power device (combines the
        tag's power-control gain and its channel gain relative to the
        reference device).
    delay_s / cfo_hz:
        Per-packet impairments applied by the composer.
    """

    shift: int
    bits: Sequence[int]
    power_gain_db: float = 0.0
    delay_s: float = 0.0
    cfo_hz: float = 0.0
    phase_rad: float = field(default=0.0)

    def bin_offset(self, params: ChirpParams) -> float:
        """Residual FFT-bin offset the receiver observes.

        A *late* transmission slides down the dechirped grid (the window
        sees an earlier slice of the chirp), so timing delay contributes
        ``-dt * BW``; a positive CFO contributes ``+df * 2^SF / BW``.
        The paper's Section 3.2.1 quotes the unsigned magnitude.
        """
        return freq_offset_to_bins(
            self.cfo_hz, params.bandwidth_hz, params.spreading_factor
        ) - timing_offset_to_bins(self.delay_s, params.bandwidth_hz)


def compose_symbol(
    params: ChirpParams,
    actives: Sequence[DeviceTransmission],
    symbol_index: int = 0,
    rng: RngLike = None,
    random_phases: bool = True,
) -> np.ndarray:
    """Bin-domain fast path: one *pre-dechirp* symbol of concurrent devices.

    Each device whose bit at ``symbol_index`` is 1 contributes the chirp
    tone at ``shift + bin_offset``; the output is a time-domain symbol
    (length ``2^SF``) that, multiplied by the downchirp, yields the exact
    tone sum. Random per-device phases model the unsynchronised carrier
    phases of independent reflections.
    """
    n = params.n_samples
    t = np.arange(n)
    total_tone = np.zeros(n, dtype=complex)
    generator = make_rng(rng)
    for tx in actives:
        bits = list(tx.bits)
        if symbol_index >= len(bits):
            raise ConfigurationError(
                f"symbol index {symbol_index} beyond the {len(bits)}-bit payload"
            )
        if bits[symbol_index] == 0:
            continue
        effective_bin = tx.shift + tx.bin_offset(params)
        amplitude = amplitude_from_db(tx.power_gain_db)
        phase = tx.phase_rad
        if random_phases:
            phase = float(generator.uniform(0.0, 2.0 * np.pi))
        total_tone += amplitude * np.exp(
            1j * (2.0 * np.pi * effective_bin * t / n + phase)
        )
    # Re-spread so the output is a standard pre-dechirp symbol: the
    # receiver will multiply by the downchirp and recover the tone sum.
    return total_tone * _respread_cached(params)


def compose_preamble_and_payload_symbols(
    params: ChirpParams,
    actives: Sequence[DeviceTransmission],
    n_preamble_upchirps: int = 6,
    rng: RngLike = None,
) -> List[np.ndarray]:
    """Fast-path frame: preamble upchirp symbols then OOK payload symbols.

    Preamble symbols are 'all devices on'; payload symbol ``i`` keys each
    device by its own bit. Downchirp preamble symbols are omitted on this
    path (the fast path assumes frame timing is known; the waveform path
    exercises synchronisation).
    """
    generator = make_rng(rng)
    n_payload = len(list(actives[0].bits)) if actives else 0
    for tx in actives:
        if len(list(tx.bits)) != n_payload:
            raise ConfigurationError("all devices must send equal-length payloads")
    # A device's carrier phase is constant over its packet: draw once.
    marks = [
        DeviceTransmission(
            shift=tx.shift,
            bits=[1] + list(tx.bits),
            power_gain_db=tx.power_gain_db,
            delay_s=tx.delay_s,
            cfo_hz=tx.cfo_hz,
            phase_rad=float(generator.uniform(0.0, 2.0 * np.pi)),
        )
        for tx in actives
    ]
    symbols: List[np.ndarray] = []
    for _ in range(n_preamble_upchirps):
        symbols.append(
            compose_symbol(params, marks, 0, random_phases=False)
        )
    for i in range(n_payload):
        symbols.append(
            compose_symbol(params, marks, i + 1, random_phases=False)
        )
    return symbols


@lru_cache(maxsize=64)
def _respread_cached(params: ChirpParams) -> np.ndarray:
    """Conjugated baseline downchirp (the re-spreading carrier), cached.

    ``downchirp`` itself is cached, but the conjugation used to be
    re-materialised on every composed round; hoisting it keeps the
    per-round cost of the fast path pure matmul.
    """
    carrier = np.conjugate(downchirp(params))
    carrier.setflags(write=False)
    return carrier


def compose_rounds(
    params: ChirpParams,
    effective_bins: np.ndarray,
    amplitudes: np.ndarray,
    phases_rad: np.ndarray,
    bit_tensor: np.ndarray,
    respread: bool = True,
) -> np.ndarray:
    """Batched fast path: a whole Monte-Carlo sweep of rounds at once.

    Per-round arrays are stacked on a leading round axis:
    ``effective_bins`` / ``amplitudes`` / ``phases_rad`` are
    ``(n_rounds, n_devices)`` and ``bit_tensor`` is
    ``(n_rounds, n_symbols, n_devices)``. Device ``d`` of round ``r``
    contributes the dechirped-domain tone at ``effective_bins[r, d]``
    with amplitude and phase constant across that round. Returns the
    pre-dechirp symbol tensor ``(n_rounds, n_symbols, 2^SF)`` — the
    input of :meth:`repro.core.receiver.NetScatterReceiver.decode_rounds`
    — as one batched matmul instead of a Python loop over rounds.

    ``respread=False`` skips the final re-spreading carrier and returns
    the tensor in the *dechirped* domain (pass ``dechirped=True`` to
    ``decode_rounds``). The re-spread/de-spread pair is a unit-modulus
    rotation that cancels through the receiver, so skipping it saves a
    full pass over the tensor with identical decode decisions.
    """
    effective_bins, amplitudes, phases_rad, bit_tensor = (
        _validate_round_arrays(
            effective_bins, amplitudes, phases_rad, bit_tensor
        )
    )
    n = params.n_samples
    n_rounds, n_devices = effective_bins.shape
    # tones[r, d, :]: the device's dechirped-grid tone for that round.
    # Synthesised in factored form: with t = t_hi * B + t_lo (B ~ sqrt(N))
    # the tone is an outer product of two short complex exponentials, so
    # only O(sqrt(N)) transcendentals are evaluated per tone instead of
    # N — at 256 devices the full-grid exp used to cost more than the
    # composition GEMM itself. Equal to the direct exp to ~1 ulp
    # (exp(a)*exp(b) vs exp(a+b)), far inside the engines' decision
    # margins.
    block = 1 << (max(n.bit_length() - 1, 1) // 2)
    angle = (2j * np.pi / n) * effective_bins[:, :, None]
    low = np.exp(
        angle * np.arange(min(block, n)) + 1j * phases_rad[:, :, None]
    )
    high = np.exp(angle * (np.arange(-(-n // block)) * block))
    tones = (high[:, :, :, None] * low[:, :, None, :]).reshape(
        n_rounds, n_devices, -1
    )[:, :, :n]
    # The keying weights are real, so one real GEMM against the tones'
    # interleaved (re, im) pairs gives the complex product: the same
    # multiply-adds as a complex GEMM, without its zero imaginary terms.
    weights = bit_tensor * amplitudes[:, None, :]
    pairs = np.ascontiguousarray(tones).view(np.float64)
    dechirped = (weights @ pairs).view(complex)
    if not respread:
        return dechirped
    return dechirped * _respread_cached(params)[None, None, :]


def _validate_round_arrays(
    effective_bins: np.ndarray,
    amplitudes: np.ndarray,
    phases_rad: np.ndarray,
    bit_tensor: np.ndarray,
):
    """Shared shape checks of the batched round composition inputs."""
    effective_bins = np.asarray(effective_bins, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    phases_rad = np.asarray(phases_rad, dtype=float)
    bit_tensor = np.asarray(bit_tensor, dtype=float)
    if effective_bins.ndim != 2:
        raise ConfigurationError(
            "effective_bins must be (n_rounds, n_devices)"
        )
    n_rounds, n_devices = effective_bins.shape
    if amplitudes.shape != (n_rounds, n_devices):
        raise ConfigurationError("per-device arrays must align")
    if phases_rad.shape != (n_rounds, n_devices):
        raise ConfigurationError("per-device arrays must align")
    if bit_tensor.ndim != 3 or bit_tensor.shape[::2] != (
        n_rounds,
        n_devices,
    ):
        raise ConfigurationError(
            "bit_tensor must be (n_rounds, n_symbols, n_devices)"
        )
    return effective_bins, amplitudes, phases_rad, bit_tensor


def compose_readout(
    params: ChirpParams,
    effective_bins: np.ndarray,
    amplitudes: np.ndarray,
    phases_rad: np.ndarray,
    bit_tensor: np.ndarray,
    readout: SparseReadout,
    n_preamble_rows: int = 0,
    columns: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Analytic fast path: readout values of a round batch.

    Takes the same batched per-round arrays as :func:`compose_rounds`
    (``(n_rounds, n_devices)`` bins/amplitudes/phases and a
    ``(n_rounds, n_symbols, n_devices)`` keying tensor) but returns the
    complex *readout values* ``(n_rounds, n_symbols, K)`` at the given
    :class:`SparseReadout`'s bins directly, by one of two routes that a
    fixed per-round cost model picks from the shapes alone (never from
    timings, so every host takes the same route):

    * **closed form** — each device tone's value at each bin is the
      Dirichlet kernel (:func:`repro.phy.sparse_readout.dirichlet_kernel`), so the
      compose -> dechirp -> readout chain collapses to one
      ``(symbols, devices) @ (devices, bins)`` product per round, taken
      block by block as the kernel is built
      (:meth:`SparseReadout.tone_sum`). Its cost grows as devices x
      bins, quadratic in occupancy for whole windows. Located
      ``columns`` and small reads (under 8 tones, or where the model
      finds it cheaper) take this route.
    * **FFT** — each distinct row's dechirped tone sum is synthesised
      once per round as a factored ``(rows * H, devices) @ (devices,
      B)`` product (``H * B = 2^SF``), and each residue ``bin % zp`` the
      readout reads is one ``2^SF``-point FFT of the twiddled row; the
      bins are gathered from those spectra. The probes, on natural
      bins, need residue 0 alone. Its cost is linear in devices.

    Neither route holds a ``(rounds, symbols, 2^SF)`` tensor or the
    whole ``(devices, bins)`` kernel; the FFT route holds one block of
    rows of ``2^SF`` samples per read residue. Values agree with
    ``readout.spectrum(compose_rounds(...))`` on either input domain
    (the re-spread/de-spread rotation cancels): to round-off on the FFT
    route, and on the closed form to round-off except where a tone
    grazes a read bin, whose L'Hopital branch is ~1e-7 off at SF 9 (see
    :data:`repro.phy.sparse_readout._DIRICHLET_SINGULAR_TOL`).

    ``n_preamble_rows`` declares the leading symbol rows of
    ``bit_tensor`` identical per round (the all-on preamble): their
    readout row is then computed *once* per round and broadcast instead
    of re-entering the GEMM ``n_preamble_rows`` times. The claim is
    verified with one cheap equality pass, falling back to the full
    computation when it does not hold, so the option is always safe.

    ``columns`` — an ``(n_rounds, K')`` array of positions into the
    readout's bins — evaluates each round at its own ``K'`` bins only,
    returning ``(n_rounds, n_symbols, K')``: the decode engine composes
    payload symbols this way at each device's located ``±1`` bins
    (:meth:`repro.core.receiver.NetScatterReceiver.decode_readout`).
    """
    effective_bins, amplitudes, phases_rad, bit_tensor = (
        _validate_round_arrays(
            effective_bins, amplitudes, phases_rad, bit_tensor
        )
    )
    if params.n_samples != readout.params.n_samples:
        raise ConfigurationError(
            "readout was built for different chirp parameters"
        )
    n_symbols = bit_tensor.shape[1]
    dedup = _shared_preamble_rows(bit_tensor, n_preamble_rows)
    if dedup:
        # Row dedup-1 is the shared preamble row; rows before it are
        # copies, so the GEMM runs on (1 + payload) rows per round.
        reduced = _readout_values(
            effective_bins,
            amplitudes,
            phases_rad,
            bit_tensor[:, dedup - 1 :],
            readout,
            columns,
        )
        values = np.empty(
            (bit_tensor.shape[0], n_symbols, reduced.shape[2]),
            dtype=complex,
        )
        values[:, :dedup] = reduced[:, :1]
        values[:, dedup:] = reduced[:, 1:]
        return values
    return _readout_values(
        effective_bins,
        amplitudes,
        phases_rad,
        bit_tensor,
        readout,
        columns,
    )


def compose_windows_and_probes(
    params: ChirpParams,
    effective_bins: np.ndarray,
    amplitudes: np.ndarray,
    phases_rad: np.ndarray,
    bit_tensor: np.ndarray,
    window_readout: SparseReadout,
    probe_readout: SparseReadout,
    joint_readout: SparseReadout,
    n_preamble_rows: int = 0,
) -> tuple:
    """Window values of every row and probe values of the first row.

    Returns ``(windows, probes)``, bit for bit the two reads
    ``compose_readout(..., bit_tensor, window_readout, n_preamble_rows)``
    and ``compose_readout(..., bit_tensor[:, :1], probe_readout)[:, 0]``
    (see :func:`compose_readout` for the arguments). ``joint_readout``
    reads the window bins, then the probe bins.

    Where every row of ``bit_tensor`` is one of ``n_preamble_rows``
    shared preamble rows and the route model sends the window read, the
    probe read and the joint read to the FFT route, one read through
    ``joint_readout`` serves both: one tone synthesis and one set of
    residue FFTs, the probes gathered at residue 0. On the FFT route a
    bin's value depends only on its row's synthesis and its residue's
    FFT, whatever else the call reads. ``windows`` is then a read-only
    broadcast of the one row; callers must not write to it. Elsewhere
    the two reads are made apart: the closed form's tone blocking
    depends on the bin count, so a joint closed-form read would move
    bits, and with several distinct rows a joint read would gather the
    probe bins on every row where only the first row's are used.
    """
    bit_tensor = np.asarray(bit_tensor, dtype=float)
    n_symbols = bit_tensor.shape[1]
    one_row = _shared_preamble_rows(bit_tensor, n_preamble_rows) == n_symbols
    if one_row and all(
        _fft_route(readout, np.shape(effective_bins)[1], 1)
        for readout in (window_readout, probe_readout, joint_readout)
    ):
        values = compose_readout(
            params,
            effective_bins,
            amplitudes,
            phases_rad,
            bit_tensor[:, -1:],
            joint_readout,
        )
        width = window_readout.n_bins
        windows = np.broadcast_to(
            values[..., :width], (values.shape[0], n_symbols, width)
        )
        return windows, values[:, 0, width:]
    windows = compose_readout(
        params,
        effective_bins,
        amplitudes,
        phases_rad,
        bit_tensor,
        window_readout,
        n_preamble_rows=n_preamble_rows,
    )
    probes = compose_readout(
        params,
        effective_bins,
        amplitudes,
        phases_rad,
        bit_tensor[:, :1],
        probe_readout,
    )[:, 0, :]
    return windows, probes


def _shared_preamble_rows(bit_tensor: np.ndarray, n_preamble_rows: int) -> int:
    """``n_preamble_rows`` if the leading rows of every round of the
    ``(n_rounds, n_symbols, n_devices)`` keying tensor are equal, else 0.

    One equality pass verifies the all-on preamble a caller declares, so
    a reader that composes the row once per round never trusts the
    claim blindly. A single row shares nothing, so it reads 0 too.
    """
    rows = int(n_preamble_rows)
    if rows < 2 or bit_tensor.shape[1] < rows:
        return 0
    head = bit_tensor[:, :rows]
    if not np.array_equal(head, np.broadcast_to(head[:, :1], head.shape)):
        return 0
    return rows


#: Per-round cost model of the two routes of :func:`compose_readout`,
#: in nanoseconds, fitted to both routes' timings over SF 7/9/12, 1 to
#: 256 tones and 1 or 41 rows on a 2-vCPU x86-64 host with
#: single-threaded OpenBLAS (8-round calls). The closed form pays a
#: fixed cost plus, per (tone, bin) entry, the grid assembly and the
#: GEMM's multiply-add per row. The FFT route pays a fixed cost, one
#: complex root per tone and bit of ``N``, and per row one complex
#: multiply-add per (tone, sample), the ``N``-point FFTs of the read
#: residues (per element and butterfly stage) and the bin gather. The
#: coefficients are fixed, never calibrated, so every host takes the
#: same route for the same shapes and a result never depends on where
#: it was computed.
_CLOSED_FIXED_NS = 15_000.0
_CLOSED_ENTRY_NS = 7.0
_CLOSED_MAC_NS = 0.3
_FFT_FIXED_NS = 5_000.0
_FFT_ROOT_NS = 60.0
_FFT_MAC_NS = 0.3
_FFT_BUTTERFLY_NS = 1.0
_FFT_GATHER_NS = 16.0

#: Below this many tones the closed form serves whatever the model
#: says. Its values there are the ones small-network results were
#: computed with (the version-1 noise goldens at 6 devices, the
#: campaign points at 1 to 4), and the FFT route would save at most
#: tens of microseconds per round.
_FFT_MIN_TONES = 8

#: Complex elements per block of the FFT route's twiddled rows: a block
#: of rounds and rows is synthesised, transformed and gathered before
#: the next, so the route's working set stays near 1 MB whatever the
#: span, like the closed form's ratio blocks.
_FFT_BLOCK_ELEMENTS = 1 << 16


def _readout_values(
    effective_bins: np.ndarray,
    amplitudes: np.ndarray,
    phases_rad: np.ndarray,
    bit_tensor: np.ndarray,
    readout: SparseReadout,
    columns: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The cheaper route of :func:`compose_readout` for distinct rows.

    Located columns are few per round and always take the closed form;
    otherwise :func:`_fft_route` decides from the shapes alone.
    """
    if columns is None and _fft_route(
        readout, effective_bins.shape[1], bit_tensor.shape[1]
    ):
        return _fft_readout_values(
            effective_bins,
            amplitudes,
            phases_rad,
            bit_tensor,
            readout,
            _residue_layout(readout),
        )
    return _compose_readout_values(
        effective_bins,
        amplitudes,
        phases_rad,
        bit_tensor,
        readout,
        columns,
    )


def _fft_route(readout: SparseReadout, n_tones: int, n_rows: int) -> bool:
    """Whether :func:`compose_readout` reads ``n_rows`` distinct rows of
    ``n_tones`` tones at ``readout``'s bins on the FFT route (without
    ``columns``; after its preamble dedup)."""
    return _fft_route_cheaper(
        readout.params.n_samples,
        n_tones,
        readout.n_bins,
        n_rows,
        _residue_layout(readout)[0].size,
    )


def _fft_route_cheaper(
    n_samples: int,
    n_tones: int,
    n_bins: int,
    n_rows: int,
    n_residues: int,
) -> bool:
    """Whether the FFT route's modelled cost per round is below the
    closed form's, for ``n_rows`` distinct rows of ``n_tones`` tones
    read at ``n_bins`` bins in ``n_residues`` residues of the padded
    grid."""
    if n_tones < _FFT_MIN_TONES:
        return False
    log_n = n_samples.bit_length() - 1
    closed = _CLOSED_FIXED_NS + n_tones * n_bins * (
        _CLOSED_ENTRY_NS + n_rows * _CLOSED_MAC_NS
    )
    fft = (
        _FFT_FIXED_NS
        + n_tones * log_n * _FFT_ROOT_NS
        + n_rows
        * (
            n_samples * n_tones * _FFT_MAC_NS
            + n_residues * n_samples * log_n * _FFT_BUTTERFLY_NS
            + n_bins * _FFT_GATHER_NS
        )
    )
    return fft < closed


def _residue_layout(readout: SparseReadout) -> tuple:
    """Where the FFT route finds each readout bin.

    Bin ``q = m * zp + r`` of the padded grid is bin ``m`` of the
    ``N``-point DFT of the row twiddled by ``exp(-2j*pi*r*t/(N*zp))``,
    so only the residues ``r`` the readout reads need a transform.
    Returns the sorted residues and, per bin, its flat index into the
    ``(residues, N)`` spectra.
    """
    n = readout.params.n_samples
    zp = readout.zero_pad_factor
    bins = readout.bin_indices
    residue = bins % zp
    present = np.bincount(residue, minlength=zp) > 0
    slot = np.cumsum(present) - 1
    return np.flatnonzero(present), slot[residue] * n + bins // zp


@lru_cache(maxsize=16)
def _residue_twiddles(n: int, zp: int, residues: tuple) -> np.ndarray:
    """``(len(residues), n)`` twiddles ``exp(-2j*pi*r*t/(n*zp))``, cached."""
    twiddles = np.exp(
        (-2j * np.pi / (n * zp))
        * np.outer(np.asarray(residues, dtype=float), np.arange(n))
    )
    twiddles.setflags(write=False)
    return twiddles


def _fft_readout_values(
    effective_bins: np.ndarray,
    amplitudes: np.ndarray,
    phases_rad: np.ndarray,
    bit_tensor: np.ndarray,
    readout: SparseReadout,
    layout: tuple,
) -> np.ndarray:
    """The FFT route of :func:`compose_readout`: synthesise, transform,
    gather, as the receiver itself reads a symbol.

    Each distinct row's dechirped tone sum is synthesised in factored
    form (:func:`_factored_tone_sum`), each read residue of the padded
    grid is one ``N``-point FFT of the twiddled row
    (:func:`_residue_layout`), and the readout's bins are gathered from
    those spectra. The tone's value at a bin is the exact padded DFT,
    so this route has no singular branch.
    """
    residues, gather = layout
    n = readout.params.n_samples
    n_rounds = effective_bins.shape[0]
    n_rows = bit_tensor.shape[1]
    twiddles = None
    if residues.tolist() != [0]:
        twiddles = _residue_twiddles(
            n, readout.zero_pad_factor, tuple(residues.tolist())
        )
    rows_per = max(1, _FFT_BLOCK_ELEMENTS // (residues.size * n))
    rounds_per = max(1, rows_per // n_rows)
    weights = bit_tensor * (amplitudes * np.exp(1j * phases_rad))[:, None, :]
    values = np.empty((n_rounds, n_rows, gather.size), dtype=complex)
    for start in range(0, n_rounds, rounds_per):
        rounds = slice(start, start + rounds_per)
        low, high = _tone_factors(effective_bins[rounds], n)
        for row in range(0, n_rows, rows_per):
            rows = slice(row, row + rows_per)
            tone_sum = _factored_tone_sum(weights[rounds, rows], low, high)
            twiddled = tone_sum[:, :, None, :]
            if twiddles is not None:
                twiddled = twiddled * twiddles
            spectra = np.fft.fft(twiddled, axis=-1)
            values[rounds, rows] = spectra.reshape(
                tone_sum.shape[:2] + (-1,)
            )[..., gather]
    return values


def _tone_factors(effective_bins: np.ndarray, n: int) -> tuple:
    """Low and high factors of each tone ``exp(2j*pi*b*t/n)``.

    With ``t = h * B + l`` (``B`` the low bits' span), the tone is
    ``high[..., h] * low[..., l]``, returned as ``(..., B)`` and
    ``(..., n // B)`` arrays. Each factor is a product of at most
    ``log2(n) / 2`` of the roots ``exp(2j*pi*b*2^k/n)``, whose phases,
    in cycles, are reduced mod 1 exactly (scaling by a power of two and
    subtracting the floor are both exact), so a factor is accurate to a
    few ulp for tones anywhere on or off the grid.
    """
    log_n = n.bit_length() - 1
    cycles = effective_bins[..., None] * np.exp2(np.arange(log_n) - log_n)
    cycles -= np.floor(cycles)
    roots = np.exp(2j * np.pi * cycles)
    low_bits = log_n // 2
    return _powers(roots[..., :low_bits]), _powers(roots[..., low_bits:])


def _powers(roots: np.ndarray) -> np.ndarray:
    """``(..., 2**k)`` powers ``w**m`` of the roots ``w**(2**j)``, ``j < k``.

    Entry ``m`` is the product of the roots of ``m``'s set bits, built
    by doubling: the first ``2**j`` entries times root ``j`` give the
    next ``2**j``.
    """
    k = roots.shape[-1]
    out = np.empty(roots.shape[:-1] + (1 << k,), dtype=complex)
    out[..., 0] = 1.0
    for j in range(k):
        np.multiply(
            out[..., : 1 << j],
            roots[..., j : j + 1],
            out=out[..., 1 << j : 2 << j],
        )
    return out


def _factored_tone_sum(
    weights: np.ndarray, low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """``(R, S, n)`` tone sums of ``(R, S, D)`` complex weights.

    The sum over tones of ``weights * high[h] * low[l]`` is one
    ``(S * H, D) @ (D, B)`` product per round, so no ``(D, n)`` tone
    matrix is built. Products go to BLAS in calls of at most
    ``_GEMM_MAX_MACS`` multiply-adds, split by rows, as in
    :meth:`repro.phy.sparse_readout.SparseReadout.tone_sum`; a complex
    multiply-add counts as four real ones, as BLAS counts it.
    """
    n_rounds, n_rows, n_tones = weights.shape
    n_high, n_low = high.shape[-1], low.shape[-1]
    lhs = (
        weights[:, :, None, :] * high.transpose(0, 2, 1)[:, None]
    ).reshape(n_rounds, n_rows * n_high, n_tones)
    out = np.empty((n_rounds, n_rows * n_high, n_low), dtype=complex)
    step = max(1, _GEMM_MAX_MACS // max(1, 4 * n_tones * n_low))
    for start in range(0, lhs.shape[1], step):
        part = slice(start, start + step)
        np.matmul(lhs[:, part], low, out=out[:, part])
    return out.reshape(n_rounds, n_rows, n_high * n_low)


def _compose_readout_values(
    effective_bins: np.ndarray,
    amplitudes: np.ndarray,
    phases_rad: np.ndarray,
    bit_tensor: np.ndarray,
    readout: SparseReadout,
    columns: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The factored-kernel evaluation behind :func:`compose_readout`."""
    # Factored kernel: D_N(b - q/zp) = e^{jcb} * ratio * e^{-jcq/zp}.
    # The device-side phase e^{jcb} joins the carrier phase inside the
    # weights and the bin-side phase scales the output, so the heavy
    # (symbols, devices) @ (devices, bins) products run as *real*
    # matmuls on the ratio matrix — half the flops of a complex GEMM
    # and no complex kernel ever materialised. The real and imaginary
    # weights are stacked into one contraction, which the readout
    # streams block by block so the ratio grid is never held whole.
    n_symbols = bit_tensor.shape[1]
    angles = phases_rad + readout.tone_phase_coeff * effective_bins
    weights = np.concatenate(
        (
            bit_tensor * (amplitudes * np.cos(angles))[:, None, :],
            bit_tensor * (amplitudes * np.sin(angles))[:, None, :],
        ),
        axis=1,
    )
    parts = readout.tone_sum(effective_bins, weights, columns=columns)
    values = parts[:, :n_symbols].astype(complex)
    values.imag = parts[:, n_symbols:]
    bin_phase = readout.bin_phase_factor()
    if columns is not None:
        bin_phase = bin_phase[columns][:, None, :]
    values *= bin_phase
    return values
