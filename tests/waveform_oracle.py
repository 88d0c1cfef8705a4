"""The waveform-level frame chain, kept as a test oracle.

The engine composes and decodes tone sums on the dechirped grid; no
user surface renders a raw baseband frame. This module keeps the
waveform chain the tests hold the engine against:

* :class:`OnOffKeyedTransmitter` — one device's OOK packet (Fig. 2b):
  its shifted up- and downchirp preamble, then a shifted upchirp for
  each '1' and silence for each '0';
* :func:`compose_frame` — every device's packet fractionally delayed,
  rotated by its CFO and summed on one timeline;
* :class:`PreambleSynchronizer` and :func:`estimate_cfo_bins` —
  packet-start and CFO estimation from the up/down preamble
  (Section 3.3.1);
* :func:`decode_frame` — synchronise a raw stream, then decode the
  frame with the receiver's single-frame entry point
  (``decode_fast_symbols``);
* :class:`MultipathChannel` and :func:`saleh_valenzuela_channel` — a
  Saleh-Valenzuela indoor channel, to test the paper's claim that a
  50-300 ns delay spread is negligible at 500 kHz (Section 3.2.1);
* :class:`WaveformSimulator` and :func:`cross_validate_paths` — the
  frame rendered oversampled (the paper's 4 Msps capture), and the same
  scenario decoded on both fidelities.

The up/down preamble symmetry lets the synchroniser score candidate
alignments: a window of repeated identical chirps mis-aligned by ``d``
samples is itself a cyclic shift, so only windows straddling the
up-to-down transition lose peak energy. It also separates CFO from
timing: an upchirp at shift ``k`` with residual offset ``d`` and CFO
``f`` (in bins) peaks at ``k + d + f``, the matching downchirp at
``-(k + d) + f``, so their half-sum isolates ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from per_symbol_oracle import peak_bin
from repro.channel.awgn import awgn
from repro.constants import (
    MULTIPATH_DELAY_SPREAD_MAX_S,
    MULTIPATH_DELAY_SPREAD_MIN_S,
)
from repro.core.config import NetScatterConfig
from repro.core.dcss import DeviceTransmission, compose_preamble_and_payload_symbols
from repro.core.receiver import FrameDecode, NetScatterReceiver, _check_frame
from repro.errors import ConfigurationError, DecodingError, ReproError, SynchronizationError
from repro.phy.chirp import (
    ChirpParams,
    cyclic_shifted_upchirp,
    downchirp,
    oversampled_upchirp,
    upchirp,
)
from repro.phy.demodulation import Demodulator
from repro.utils.conversions import amplitude_from_db
from repro.utils.rng import RngLike, make_rng


def fractional_delay(signal: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay a complex signal by a (possibly fractional) number of samples.

    Implemented in the frequency domain, which is exact for the periodic
    chirp frames used by the simulator. Positive delay moves the signal
    later in time; the frame wraps cyclically, matching the cyclic-shift
    algebra of CSS symbols.
    """
    signal = np.asarray(signal, dtype=complex)
    if signal.size == 0:
        raise ReproError("cannot delay an empty signal")
    n = signal.size
    freqs = np.fft.fftfreq(n)
    spectrum = np.fft.fft(signal)
    return np.fft.ifft(spectrum * np.exp(-2j * np.pi * freqs * delay_samples))


def apply_cfo(
    signal: np.ndarray, cfo_hz: float, sample_rate_hz: float
) -> np.ndarray:
    """Apply a carrier frequency offset rotation to complex baseband."""
    if sample_rate_hz <= 0:
        raise ReproError("sample rate must be positive")
    signal = np.asarray(signal, dtype=complex)
    n = np.arange(signal.size)
    return signal * np.exp(2j * np.pi * cfo_hz * n / sample_rate_hz)


def cyclic_shifted_downchirp(params: ChirpParams, shift: int) -> np.ndarray:
    """Downchirp carrying the same cyclic shift as the device's upchirp.

    NetScatter preambles send two downchirps with the *device's own* shift
    (Section 3.3.1); the shift direction is mirrored so the up/down pair is
    symmetric around the symbol midpoint.
    """
    return np.conjugate(cyclic_shifted_upchirp(params, shift))


class OnOffKeyedTransmitter:
    """Per-device OOK transmitter over an assigned cyclic shift.

    Parameters
    ----------
    params:
        Chirp configuration shared by the whole network.
    cyclic_shift:
        The device's assigned shift; its FFT bin at the receiver.
    power_gain_db:
        Transmit power gain relative to the device's maximum (0, -4 or
        -10 dB on the paper's hardware); applied as an amplitude scale.
    """

    def __init__(
        self,
        params: ChirpParams,
        cyclic_shift: int,
        power_gain_db: float = 0.0,
    ) -> None:
        if not 0 <= int(cyclic_shift) < params.n_shifts:
            raise ConfigurationError(
                f"cyclic shift must be in [0, {params.n_shifts}), "
                f"got {cyclic_shift}"
            )
        self._params = params
        self._shift = int(cyclic_shift)
        self._power_gain_db = float(power_gain_db)

    @property
    def params(self) -> ChirpParams:
        return self._params

    @property
    def cyclic_shift(self) -> int:
        return self._shift

    @property
    def power_gain_db(self) -> float:
        return self._power_gain_db

    @power_gain_db.setter
    def power_gain_db(self, value: float) -> None:
        self._power_gain_db = float(value)

    @property
    def bitrate_bps(self) -> float:
        """Per-device OOK bitrate, one bit per chirp symbol."""
        return self._params.symbol_rate_hz

    def _amplitude(self) -> float:
        return amplitude_from_db(self._power_gain_db)

    def symbol(self, bit: int) -> np.ndarray:
        """One OOK symbol: the shifted upchirp for '1', silence for '0'."""
        if bit not in (0, 1):
            raise ConfigurationError(f"bit must be 0 or 1, got {bit!r}")
        n = self._params.n_samples
        if bit == 0:
            return np.zeros(n, dtype=complex)
        return self._amplitude() * cyclic_shifted_upchirp(
            self._params, self._shift
        )

    def preamble(
        self, n_upchirps: int = 6, n_downchirps: int = 2
    ) -> np.ndarray:
        """Preamble of the device's own shifted up- and downchirps.

        All devices transmit their preambles concurrently, each on its own
        shift (Section 3.3.1), so the AP detects active devices from the
        repeated peaks and learns a per-device power reference.
        """
        up = cyclic_shifted_upchirp(self._params, self._shift)
        down = cyclic_shifted_downchirp(self._params, self._shift)
        parts = [up] * int(n_upchirps) + [down] * int(n_downchirps)
        return self._amplitude() * np.concatenate(parts)

    def payload(self, bits: Sequence[int]) -> np.ndarray:
        """OOK-modulated payload frame for ``bits``."""
        if len(bits) == 0:
            return np.zeros(0, dtype=complex)
        return np.concatenate([self.symbol(b) for b in bits])

    def packet(
        self,
        bits: Sequence[int],
        n_upchirps: int = 6,
        n_downchirps: int = 2,
    ) -> np.ndarray:
        """Full packet: preamble followed by the OOK payload."""
        return np.concatenate(
            [self.preamble(n_upchirps, n_downchirps), self.payload(bits)]
        )


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


@dataclass(frozen=True)
class PacketSync:
    """Result of packet-start estimation.

    Attributes
    ----------
    start_sample:
        Estimated index of the first preamble sample in the stream.
    score:
        The alignment metric at the estimate (sum of eight peak magnitudes).
    searched:
        Number of candidate offsets evaluated.
    """

    start_sample: int
    score: float
    searched: int


class PreambleSynchronizer:
    """Estimates the packet start of concurrent NetScatter transmissions."""

    def __init__(
        self,
        params: ChirpParams,
        n_upchirps: int = 6,
        n_downchirps: int = 2,
    ) -> None:
        if n_upchirps < 1 or n_downchirps < 1:
            raise SynchronizationError(
                "preamble needs at least one upchirp and one downchirp"
            )
        self._params = params
        self._n_up = int(n_upchirps)
        self._n_down = int(n_downchirps)
        self._downchirp = downchirp(params)
        self._upchirp = upchirp(params)

    @property
    def params(self) -> ChirpParams:
        return self._params

    @property
    def preamble_samples(self) -> int:
        return (self._n_up + self._n_down) * self._params.n_samples

    def _window_peak(self, window: np.ndarray, reference: np.ndarray) -> float:
        despread = window * reference
        return float(np.max(np.abs(np.fft.fft(despread))))

    def alignment_score(self, stream: np.ndarray, start: int) -> float:
        """Preamble alignment metric at candidate ``start``.

        Sum of the dechirped peak magnitudes of the ``n_up`` up-windows and
        ``n_down`` down-windows. Maximised at the true packet start.
        """
        stream = np.asarray(stream, dtype=complex)
        n = self._params.n_samples
        end = start + self.preamble_samples
        if start < 0 or end > stream.size:
            raise SynchronizationError(
                f"candidate start {start} leaves the stream bounds"
            )
        score = 0.0
        for m in range(self._n_up):
            window = stream[start + m * n : start + (m + 1) * n]
            score += self._window_peak(window, self._downchirp)
        down_base = start + self._n_up * n
        for m in range(self._n_down):
            window = stream[down_base + m * n : down_base + (m + 1) * n]
            score += self._window_peak(window, self._upchirp)
        return score

    def refine_with_shifts(
        self,
        stream: np.ndarray,
        coarse_start: int,
        shifts,
        max_offset: int = 8,
    ) -> int:
        """Sample-accurate start refinement using the known assignments.

        A shift-``k`` upchirp matched-filters against the *base* upchirp
        with a thumbtack peak at ``symbol_start - k`` (the chirp
        ambiguity function is impulse-like). Since the receiver knows
        every assigned shift, the expected peak positions for candidate
        start ``t`` are ``t + m*N - k_i`` for every preamble symbol
        ``m`` and device ``i``; summing the measured correlation
        magnitude at those positions scores each candidate with the
        combined energy of the whole network, which stays sample-sharp
        at SNRs where the window-energy metric flattens.
        """
        stream = np.asarray(stream, dtype=complex)
        n = self._params.n_samples
        shifts = [int(k) % n for k in shifts]
        if not shifts:
            raise SynchronizationError("need at least one assigned shift")
        lo = coarse_start - max_offset - n
        hi = coarse_start + self._n_up * n + max_offset
        lo = max(0, lo)
        region = stream[lo : min(hi, stream.size)]
        if region.size < n + 1:
            raise SynchronizationError("stream too short for refinement")
        corr = np.abs(
            np.correlate(region, np.asarray(self._upchirp), mode="valid")
        )
        best_t, best_score = coarse_start, -np.inf
        for t in range(coarse_start - max_offset, coarse_start + max_offset + 1):
            positions = [
                t + m * n - k - lo
                for m in range(self._n_up)
                for k in shifts
            ]
            valid = [p for p in positions if 0 <= p < corr.size]
            if not valid:
                continue
            score = float(np.sum(corr[valid]))
            if score > best_score:
                best_t, best_score = t, score
        return best_t

    def synchronize(
        self,
        stream: np.ndarray,
        search_start: int = 0,
        search_span: Optional[int] = None,
        coarse_step: int = 8,
    ) -> PacketSync:
        """Find the packet start within ``[search_start, search_start+span)``.

        Two-stage search: a coarse pass at ``coarse_step``-sample stride
        followed by an exhaustive refinement of +/- ``coarse_step``
        samples around the coarse winner using the window-energy metric.
        When the caller knows the shift assignments (the receiver does),
        :meth:`refine_with_shifts` sharpens the estimate to the exact
        sample.
        """
        stream = np.asarray(stream, dtype=complex)
        if search_span is None:
            search_span = stream.size - self.preamble_samples - search_start
        if search_span <= 0:
            raise SynchronizationError("stream too short for a preamble")
        last = min(
            search_start + search_span,
            stream.size - self.preamble_samples,
        )
        if last < search_start:
            raise SynchronizationError("search window is empty")

        coarse_step = max(1, int(coarse_step))
        candidates = list(range(search_start, last + 1, coarse_step))
        searched = 0
        best_start, best_score = search_start, -np.inf
        for t in candidates:
            score = self.alignment_score(stream, t)
            searched += 1
            if score > best_score:
                best_start, best_score = t, score

        lo = max(search_start, best_start - coarse_step + 1)
        hi = min(last, best_start + coarse_step - 1)
        for t in range(lo, hi + 1):
            if t == best_start:
                continue
            score = self.alignment_score(stream, t)
            searched += 1
            if score > best_score:
                best_start, best_score = t, score

        return PacketSync(
            start_sample=best_start, score=best_score, searched=searched
        )


def estimate_cfo_bins(
    params: ChirpParams,
    up_symbol: np.ndarray,
    down_symbol: np.ndarray,
    zero_pad_factor: int = 10,
) -> float:
    """Estimate CFO (in FFT bins) from one up/down preamble symbol pair.

    The upchirp peak sits at ``k + d + f`` and the downchirp peak at
    ``-(k + d) + f`` (mod N), so the wrapped half-sum of the two measured
    peaks isolates the frequency term ``f`` independent of the unknown
    shift ``k`` and timing error ``d``.
    """
    demod = Demodulator(params, zero_pad_factor=zero_pad_factor)
    n = params.n_shifts
    bin_up = peak_bin(demod.dechirp(up_symbol))
    # Downchirps are de-spread by the upchirp (the conjugate pairing).
    despread = np.asarray(down_symbol, dtype=complex) * upchirp(params)
    spectrum = np.abs(np.fft.fft(despread, n=n * zero_pad_factor))
    bin_down = int(np.argmax(spectrum)) / zero_pad_factor
    total = (bin_up + bin_down) % n
    # Wrap the half-sum into (-N/4, N/4]: CFO is small by construction.
    if total > n / 2:
        total -= n
    return total / 2.0


def decode_frame(
    receiver: NetScatterReceiver,
    stream: np.ndarray,
    n_payload_bits: int,
    n_preamble_upchirps: int = 6,
    n_preamble_downchirps: int = 2,
    synchronize: bool = True,
    start_sample: int = 0,
) -> FrameDecode:
    """Decode a raw baseband stream containing one concurrent frame.

    Once the frame start is known (found by the synchroniser, or
    ``start_sample``), its preamble upchirps and payload symbols are
    decoded as one round by ``receiver.decode_fast_symbols``; the
    downchirps serve only the synchroniser.
    """
    _check_frame(1, n_preamble_upchirps + n_payload_bits, n_preamble_upchirps)
    if n_preamble_downchirps < 0:
        raise DecodingError("n_preamble_downchirps must be >= 0")
    stream = np.asarray(stream, dtype=complex)
    params = receiver.config.chirp_params
    n = params.n_samples
    if synchronize:
        sync = PreambleSynchronizer(params, n_preamble_upchirps, n_preamble_downchirps)
        coarse = sync.synchronize(stream).start_sample
        start_sample = sync.refine_with_shifts(
            stream, coarse, list(receiver.assignments.values())
        )
    if start_sample < 0:
        raise DecodingError(f"start_sample must be >= 0, got {start_sample}")
    preamble_up_end = start_sample + n_preamble_upchirps * n
    payload_start = start_sample + (n_preamble_upchirps + n_preamble_downchirps) * n
    end = payload_start + n_payload_bits * n
    if end > stream.size:
        raise DecodingError(f"stream too short: need {end} samples, have {stream.size}")
    symbols = np.concatenate(
        [stream[start_sample:preamble_up_end], stream[payload_start:end]]
    ).reshape(-1, n)
    decode = receiver.decode_fast_symbols(symbols, n_preamble_upchirps)
    decode.start_sample = start_sample
    return decode


@dataclass(frozen=True)
class MultipathTap:
    """A single channel tap: delay (s) and complex gain."""

    delay_s: float
    gain: complex


@dataclass(frozen=True)
class MultipathChannel:
    """A set of taps; apply to an oversampled waveform via tapped sum."""

    taps: List[MultipathTap]

    def __post_init__(self) -> None:
        if not self.taps:
            raise ReproError("a channel needs at least one tap")

    @property
    def rms_delay_spread_s(self) -> float:
        """Power-weighted RMS delay spread of the tap set."""
        delays = np.array([t.delay_s for t in self.taps])
        powers = np.array([abs(t.gain) ** 2 for t in self.taps])
        total = powers.sum()
        if total <= 0:
            raise ReproError("channel has zero total power")
        mean = float((powers * delays).sum() / total)
        second = float((powers * delays**2).sum() / total)
        return float(np.sqrt(max(0.0, second - mean**2)))

    def normalized(self) -> "MultipathChannel":
        """Unit-total-power copy of the channel."""
        total = sum(abs(t.gain) ** 2 for t in self.taps)
        scale = 1.0 / np.sqrt(total)
        return MultipathChannel(
            taps=[MultipathTap(t.delay_s, t.gain * scale) for t in self.taps]
        )

    def apply(self, signal: np.ndarray, sample_rate_hz: float) -> np.ndarray:
        """Convolve ``signal`` with the tapped delay line.

        Delays are rounded to the sample grid, so use an oversampled
        waveform for sub-sample fidelity. Output has the same length as
        the input (tail truncated), matching a steady-state receive window.
        """
        if sample_rate_hz <= 0:
            raise ReproError("sample rate must be positive")
        signal = np.asarray(signal, dtype=complex)
        out = np.zeros_like(signal)
        for tap in self.taps:
            shift = int(round(tap.delay_s * sample_rate_hz))
            if shift >= signal.size:
                continue
            if shift == 0:
                out += tap.gain * signal
            else:
                out[shift:] += tap.gain * signal[:-shift]
        return out


def saleh_valenzuela_channel(
    rng: RngLike = None,
    n_clusters: int = 3,
    rays_per_cluster: int = 4,
    cluster_decay_s: float = 60e-9,
    ray_decay_s: float = 20e-9,
    cluster_rate_hz: float = 1.0 / 100e-9,
    ray_rate_hz: float = 1.0 / 20e-9,
) -> MultipathChannel:
    """Draw a simplified Saleh-Valenzuela channel realisation.

    Clusters arrive as a Poisson process; rays within each cluster likewise;
    tap powers decay doubly exponentially. Defaults produce RMS delay
    spreads inside the paper's cited 50-300 ns indoor range.
    """
    if n_clusters < 1 or rays_per_cluster < 1:
        raise ReproError("need at least one cluster and one ray")
    generator = make_rng(rng)
    taps: List[MultipathTap] = []
    cluster_time = 0.0
    for _ in range(n_clusters):
        ray_time = 0.0
        for _ in range(rays_per_cluster):
            delay = cluster_time + ray_time
            mean_power = np.exp(-cluster_time / cluster_decay_s) * np.exp(
                -ray_time / ray_decay_s
            )
            amplitude = np.sqrt(mean_power / 2.0)
            gain = complex(
                generator.normal(scale=amplitude),
                generator.normal(scale=amplitude),
            )
            taps.append(MultipathTap(delay_s=delay, gain=gain))
            ray_time += generator.exponential(1.0 / ray_rate_hz)
        cluster_time += generator.exponential(1.0 / cluster_rate_hz)
    return MultipathChannel(taps=taps).normalized()


def delay_spread_in_bins(delay_spread_s: float, bandwidth_hz: float) -> float:
    """FFT-bin smear caused by a delay spread: ``spread * BW``.

    The paper's negligibility argument: 300 ns at 500 kHz is 0.15 bins.
    """
    if delay_spread_s < 0:
        raise ReproError("delay spread must be non-negative")
    return delay_spread_s * bandwidth_hz


def paper_delay_spread_range_bins(bandwidth_hz: float) -> tuple:
    """The cited 50-300 ns range expressed in FFT bins at ``bandwidth_hz``."""
    return (
        delay_spread_in_bins(MULTIPATH_DELAY_SPREAD_MIN_S, bandwidth_hz),
        delay_spread_in_bins(MULTIPATH_DELAY_SPREAD_MAX_S, bandwidth_hz),
    )


@dataclass
class WaveformScenario:
    """One concurrent frame rendered at waveform fidelity.

    Attributes
    ----------
    stream:
        Critical-rate complex baseband the receiver consumes.
    oversampled:
        The pre-decimation composite at ``oversampling x BW``.
    true_start:
        Index of the first preamble sample in ``stream``.
    """

    stream: np.ndarray
    oversampled: Optional[np.ndarray] = field(repr=False, default=None)
    true_start: int = 0
    oversampling: int = 4


class WaveformSimulator:
    """Renders concurrent NetScatter frames at oversampled fidelity."""

    def __init__(
        self,
        config: NetScatterConfig,
        oversampling: int = 4,
        multipath: bool = False,
        n_preamble_upchirps: int = 6,
        n_preamble_downchirps: int = 2,
        rng: RngLike = None,
    ) -> None:
        if oversampling < 1:
            raise ConfigurationError("oversampling must be >= 1")
        self._config = config
        self._params = config.chirp_params
        self._os = int(oversampling)
        self._multipath = bool(multipath)
        self._n_up = int(n_preamble_upchirps)
        self._n_down = int(n_preamble_downchirps)
        self._rng = make_rng(rng)

    @property
    def sample_rate_hz(self) -> float:
        """Oversampled rate (the "USRP" rate)."""
        return self._params.bandwidth_hz * self._os

    def _device_packet(
        self, shift: int, bits: Sequence[int]
    ) -> np.ndarray:
        """One device's full packet at the oversampled rate."""
        n_os = self._params.n_samples * self._os
        up = oversampled_upchirp(self._params, self._os, shift)
        down = np.conjugate(up)
        silence = np.zeros(n_os, dtype=complex)
        parts: List[np.ndarray] = [up] * self._n_up + [down] * self._n_down
        for bit in bits:
            if bit not in (0, 1):
                raise ConfigurationError(f"bits must be 0/1, got {bit!r}")
            parts.append(up if bit else silence)
        return np.concatenate(parts)

    def _channel_for_device(self) -> Optional[MultipathChannel]:
        if not self._multipath:
            return None
        return saleh_valenzuela_channel(self._rng)

    def render(
        self,
        transmissions: Sequence[DeviceTransmission],
        snr_db: Optional[float] = None,
        leading_silence_symbols: int = 2,
        trailing_silence_symbols: int = 2,
    ) -> WaveformScenario:
        """Render a concurrent frame through the full channel.

        ``snr_db`` is the per-unit-power in-band SNR at the critical rate
        (``None`` for noiseless). Delays are applied at the oversampled
        grid (sub-critical-sample resolution); each device gets an
        independent multipath realisation when enabled.
        """
        if not transmissions:
            raise ConfigurationError("need at least one transmission")
        n_payload = len(list(transmissions[0].bits))
        for tx in transmissions:
            if len(list(tx.bits)) != n_payload:
                raise ConfigurationError(
                    "all devices must send equal-length payloads"
                )
        n_os = self._params.n_samples * self._os
        frame_os = (self._n_up + self._n_down + n_payload) * n_os
        lead = leading_silence_symbols * n_os
        trail = trailing_silence_symbols * n_os
        total = np.zeros(lead + frame_os + trail, dtype=complex)

        fs = self.sample_rate_hz
        for tx in transmissions:
            packet = self._device_packet(tx.shift, list(tx.bits))
            packet = amplitude_from_db(tx.power_gain_db) * packet
            if tx.cfo_hz:
                packet = apply_cfo(packet, tx.cfo_hz, fs)
            phase = float(self._rng.uniform(0.0, 2.0 * np.pi))
            packet = packet * np.exp(1j * phase)
            channel = self._channel_for_device()
            if channel is not None:
                packet = channel.apply(packet, fs)
            delay_samples = int(round(tx.delay_s * fs))
            start = lead + delay_samples
            if start < 0:
                raise ConfigurationError("negative absolute delay")
            end = min(start + packet.size, total.size)
            total[start:end] += packet[: end - start]

        if snr_db is not None:
            # The critical-rate stream is formed by direct subsampling,
            # which preserves per-sample signal and noise power, so
            # adding noise at `snr_db` here yields exactly `snr_db`
            # in-band at the receiver (a brick-wall pre-decimation
            # filter would instead buy 10*log10(os) dB; we model the
            # conservative unfiltered receiver).
            total = awgn(total, snr_db, self._rng)

        stream = total[:: self._os]
        return WaveformScenario(
            stream=stream,
            oversampled=total,
            true_start=lead // self._os,
            oversampling=self._os,
        )


def cross_validate_paths(
    config: NetScatterConfig,
    transmissions: Sequence[DeviceTransmission],
    snr_db: float,
    rng: RngLike = None,
) -> Dict[str, Dict[int, List[int]]]:
    """Decode the same scenario on both simulation paths.

    Returns per-path ``device -> bits`` maps so callers (and the test
    suite) can verify the bin-domain fast path agrees with the full
    waveform path on identical scenarios.
    """
    generator = make_rng(rng)
    assignments = {i: tx.shift for i, tx in enumerate(transmissions)}
    receiver = NetScatterReceiver(config, assignments)
    n_payload = len(list(transmissions[0].bits))

    simulator = WaveformSimulator(config, rng=generator)
    scenario = simulator.render(transmissions, snr_db=snr_db)
    waveform_decode = decode_frame(receiver, scenario.stream, n_payload_bits=n_payload)

    symbols = compose_preamble_and_payload_symbols(
        config.chirp_params, transmissions, rng=generator
    )
    noisy = [awgn(s, snr_db, generator) for s in symbols]
    fast_decode = receiver.decode_fast_symbols(noisy)

    return {
        "waveform": {
            i: waveform_decode.bits_of(i) for i in assignments
        },
        "fast": {i: fast_decode.bits_of(i) for i in assignments},
    }
