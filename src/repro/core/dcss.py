"""Distributed CSS frame composition — the network-side encoder view.

The paper's Fig. 2b: each concurrent device ON-OFF-keys its own assigned
cyclic shift, and the air sums everything. This module composes those
sums for simulation at two fidelities:

* :func:`compose_frame` — waveform fidelity: per-device packets rendered
  as complex baseband, each delayed by its hardware latency and rotated
  by its CFO, then summed on a common timeline.
* :func:`compose_symbol` — bin-domain fast path: one symbol of N devices
  composed directly as a sum of complex tones on the dechirped grid. A
  device at shift ``k`` with residual offset ``delta`` contributes the
  tone ``a * exp(j*(2*pi*(k + delta)*n/N + phase))``, which is *exactly*
  what the dechirped waveform of that device looks like; this makes
  10^4-symbol BER sweeps (Fig. 12) affordable.
* :func:`compose_readout` — analytic fidelity: the readout values of a
  whole batch of tone-sum rounds via the closed-form Dirichlet kernel,
  with no waveform of any length in between. Equal to running
  :func:`compose_rounds` through a :class:`SparseReadout` to round-off,
  at a cost that scales with devices x readout bins instead of
  symbols x ``2^SF``.

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
from repro.phy.sparse_readout import SparseReadout
from repro.phy.onoff import OnOffKeyedTransmitter
from repro.utils.conversions import (
    amplitude_from_db,
    freq_offset_to_bins,
    timing_offset_to_bins,
)
from repro.utils.rng import RngLike, make_rng
from repro.utils.sampling import apply_cfo, fractional_delay


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


def compose_frame(
    params: ChirpParams,
    actives: Sequence[DeviceTransmission],
    n_preamble_upchirps: int = 6,
    n_preamble_downchirps: int = 2,
    leading_silence_samples: int = 0,
    trailing_silence_samples: int = 0,
    rng: RngLike = None,
) -> np.ndarray:
    """Waveform fidelity: full concurrent frame on a common timeline.

    Every device's complete packet (preamble + OOK payload) is rendered,
    fractionally delayed by its ``delay_s``, rotated by its ``cfo_hz``,
    scaled and summed. Optional silence padding lets synchronisation tests
    search for the packet start.
    """
    generator = make_rng(rng)
    n_payload_bits = len(list(actives[0].bits)) if actives else 0
    for tx in actives:
        if len(list(tx.bits)) != n_payload_bits:
            raise ConfigurationError("all devices must send equal-length payloads")
    n_symbols = n_preamble_upchirps + n_preamble_downchirps + n_payload_bits
    frame_len = n_symbols * params.n_samples
    total = np.zeros(
        leading_silence_samples + frame_len + trailing_silence_samples,
        dtype=complex,
    )
    for tx in actives:
        transmitter = OnOffKeyedTransmitter(
            params, tx.shift, power_gain_db=tx.power_gain_db
        )
        packet = transmitter.packet(
            list(tx.bits), n_preamble_upchirps, n_preamble_downchirps
        )
        delay_samples = tx.delay_s * params.bandwidth_hz
        if abs(delay_samples) > 0:
            packet = fractional_delay(packet, delay_samples)
        if tx.cfo_hz != 0.0:
            packet = apply_cfo(packet, tx.cfo_hz, params.bandwidth_hz)
        phase = float(generator.uniform(0.0, 2.0 * np.pi))
        total[
            leading_silence_samples : leading_silence_samples + frame_len
        ] += packet * np.exp(1j * phase)
    return total


def ideal_aggregate_power(actives: Sequence[DeviceTransmission]) -> float:
    """Sum of linear powers of the active devices (capacity argument)."""
    return float(
        sum(amplitude_from_db(tx.power_gain_db) ** 2 for tx in actives)
    )


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
    weights = (bit_tensor * amplitudes[:, None, :]).astype(complex)
    dechirped = weights @ tones
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
    dtype=None,
    n_preamble_rows: int = 0,
    columns: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Analytic fast path: readout values of a round batch, waveform-free.

    Takes the same batched per-round arrays as :func:`compose_rounds`
    (``(n_rounds, n_devices)`` bins/amplitudes/phases and a
    ``(n_rounds, n_symbols, n_devices)`` keying tensor) but returns the
    complex *readout values* ``(n_rounds, n_symbols, K)`` at the given
    :class:`SparseReadout`'s bins directly: each device tone's value at
    each bin is the closed-form Dirichlet kernel
    (:meth:`SparseReadout.tone_kernel`), so the whole
    compose -> dechirp -> readout chain collapses to one
    ``(symbols, devices) @ (devices, bins)`` product per round, taken
    block by block as the kernel is built
    (:meth:`SparseReadout.tone_sum`). No ``n_samples``-length tensor,
    nor the whole ``(devices, bins)`` kernel, is ever materialised;
    values agree with
    ``readout.spectrum(compose_rounds(...))`` to floating-point
    round-off on either input domain (the re-spread/de-spread rotation
    cancels exactly in the closed form).

    ``dtype`` selects the accumulation precision: ``numpy.complex64``
    halves the matmul/noise cost for very large device counts at ~1e-7
    relative readout error (the kernel ratio is still evaluated in
    double and cast to single per block — see
    :meth:`repro.phy.sparse_readout.SparseReadout.tone_ratio`;
    decisions are unaffected at the operating points the sweeps visit,
    which the equivalence tests pin).

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
    if dtype is None:
        dtype = np.complex128
    dtype = np.dtype(dtype)
    if dtype.kind != "c":
        raise ConfigurationError("dtype must be a complex dtype")
    n_symbols = bit_tensor.shape[1]
    dedup = int(n_preamble_rows)
    if dedup > 1 and n_symbols >= dedup:
        head = bit_tensor[:, :dedup]
        if not np.array_equal(
            head, np.broadcast_to(head[:, :1], head.shape)
        ):
            dedup = 0
    else:
        dedup = 0
    if dedup:
        # Row dedup-1 is the shared preamble row; rows before it are
        # copies, so the GEMM runs on (1 + payload) rows per round.
        reduced = _compose_readout_values(
            effective_bins,
            amplitudes,
            phases_rad,
            bit_tensor[:, dedup - 1 :],
            readout,
            dtype,
            columns,
        )
        values = np.empty(
            (bit_tensor.shape[0], n_symbols, reduced.shape[2]),
            dtype=dtype,
        )
        values[:, :dedup] = reduced[:, :1]
        values[:, dedup:] = reduced[:, 1:]
        return values
    return _compose_readout_values(
        effective_bins,
        amplitudes,
        phases_rad,
        bit_tensor,
        readout,
        dtype,
        columns,
    )


def _compose_readout_values(
    effective_bins: np.ndarray,
    amplitudes: np.ndarray,
    phases_rad: np.ndarray,
    bit_tensor: np.ndarray,
    readout: SparseReadout,
    dtype,
    columns: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The factored-kernel evaluation behind :func:`compose_readout`."""
    real_dtype = np.float32 if dtype == np.complex64 else np.float64
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
    if real_dtype != np.float64:
        weights = weights.astype(real_dtype)
    parts = readout.tone_sum(
        effective_bins, weights, dtype=real_dtype, columns=columns
    )
    values = parts[:, :n_symbols].astype(dtype)
    values.imag = parts[:, n_symbols:]
    bin_phase = readout.bin_phase_factor()
    if columns is not None:
        bin_phase = bin_phase[columns][:, None, :]
    values *= bin_phase.astype(dtype)
    return values
