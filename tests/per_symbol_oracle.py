"""The per-symbol NetScatter decoder, kept as a test oracle.

It also holds the readings of one dechirped spectrum
(:class:`repro.phy.demodulation.DechirpResult`) that only tests take:
the power near a bin, the global peak and the classic LoRa decision.

The receiver decodes every entry point through one vectorised decision
rule (``NetScatterReceiver._decide_chunk``). This module is the rule's
executable spec, written the slow way: dechirp each symbol with its own
zero-padded FFT, estimate the floor from the whole interpolated
spectrum of the first preamble symbol, then loop over devices and
symbols.

It differs from the engine in one known place. The engine estimates the
floor from a strided grid of natural-bin probes; this oracle uses every
interpolated bin. Both take the median of the bins clear of every
assignment, so the floors agree closely when such bins exist. Under
full occupancy both fall back to a low quantile, but of different
sample sets, so detection near the threshold may differ there. Bits
never differ where both detect.
"""

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.receiver import DeviceDecode, FrameDecode, NetScatterReceiver
from repro.errors import DecodingError
from repro.phy.demodulation import DechirpResult, Demodulator
from repro.phy.noise import estimate_noise_floor, exclusion_mask


def power_at_index(result: DechirpResult, index: int, guard: int = 1) -> float:
    """Power at an interpolated-grid index, max over ``+/- guard``."""
    idx = (np.arange(-guard, guard + 1) + int(index)) % result.spectrum.size
    return float(np.max(result.power[idx]))


def _window_near(
    result: DechirpResult, shift: float, width_bins: float
) -> np.ndarray:
    """Interpolated-grid indices within ``width_bins`` of natural bin
    ``shift``, wrapped cyclically."""
    zp = result.zero_pad_factor
    half = max(1, int(round(width_bins * zp)))
    centre = int(round(shift * zp))
    return (np.arange(-half, half + 1) + centre) % result.spectrum.size


def bin_power(
    result: DechirpResult, shift: float, width_bins: float = 0.5
) -> float:
    """Peak power near natural (un-interpolated) bin ``shift``.

    Searches ``shift +/- width_bins`` on the interpolated grid, which
    absorbs residual fractional offsets from timing jitter.
    """
    return float(np.max(result.power[_window_near(result, shift, width_bins)]))


def peak_index_near(
    result: DechirpResult, shift: float, width_bins: float = 0.5
) -> int:
    """Interpolated-grid index of the peak near natural bin ``shift``."""
    idx = _window_near(result, shift, width_bins)
    return int(idx[int(np.argmax(result.power[idx]))])


def peak_bin(result: DechirpResult) -> float:
    """Location of the global peak, in natural-bin units (fractional)."""
    return int(np.argmax(np.abs(result.spectrum))) / result.zero_pad_factor


def classic_decode(demod: Demodulator, symbol: np.ndarray) -> int:
    """Classic LoRa decision: the integer shift of the strongest peak.

    The single-user baseline's rule; NetScatter instead inspects all
    assigned bins (:class:`repro.core.receiver.NetScatterReceiver`).
    """
    n_shifts = demod.params.n_shifts
    return int(round(peak_bin(demod.dechirp(symbol)))) % n_shifts


def noise_floor(
    result: DechirpResult, exclude_bins: Optional[Sequence[float]] = None
) -> float:
    """Median bin power outside the excluded neighbourhoods.

    Falls back to a low quantile of the whole spectrum when the
    exclusions leave no bin.
    """
    power = result.power
    candidates = power
    if exclude_bins:
        mask = exclusion_mask(power.size, result.zero_pad_factor, exclude_bins)
        candidates = power[~mask]
    return float(estimate_noise_floor(candidates, fallback_powers=power))


def decode_symbols(
    receiver: NetScatterReceiver,
    preamble_results: Sequence[DechirpResult],
    payload_results: Sequence[DechirpResult],
) -> FrameDecode:
    """Decode dechirped preamble + payload symbol spectra, device by device."""
    if not preamble_results:
        raise DecodingError("need at least one preamble symbol")
    assignments = receiver.assignments
    zp = receiver.config.zero_pad_factor
    floor = noise_floor(preamble_results[0], list(assignments.values()))
    threshold_scale = 10.0 ** (receiver._detection_snr / 10.0)
    half = max(1, int(round(receiver._search_width * zp)))
    n_bins = preamble_results[0].spectrum.size
    devices: Dict[int, DeviceDecode] = {}
    for device_id, shift in assignments.items():
        # Locate the device's sub-bin peak from the summed preamble
        # spectra, then read every symbol at the located bin.
        window = (np.arange(-half, half + 1) + int(round(shift * zp))) % n_bins
        summed = np.zeros(window.size)
        for result in preamble_results:
            summed += result.power[window]
        located = int(window[int(np.argmax(summed))])
        powers = [power_at_index(r, located) for r in preamble_results]
        detected = min(powers) > floor * threshold_scale
        decode = DeviceDecode(
            device_id=device_id,
            shift=shift,
            detected=detected,
            preamble_power=float(np.mean(powers)) if detected else 0.0,
            noise_power=floor,
        )
        if detected:
            for result in payload_results:
                power = power_at_index(result, located)
                decode.bit_powers.append(power)
                decode.bits.append(int(power > 0.5 * decode.preamble_power))
        devices[device_id] = decode
    return FrameDecode(devices=devices)


def decode_fast_symbols(
    receiver: NetScatterReceiver,
    symbols: Sequence[np.ndarray],
    n_preamble_upchirps: int = 6,
) -> FrameDecode:
    """The oracle's :meth:`NetScatterReceiver.decode_fast_symbols`."""
    if len(symbols) < n_preamble_upchirps:
        raise DecodingError("fewer symbols than preamble length")
    demod = Demodulator(
        receiver.config.chirp_params,
        zero_pad_factor=receiver.config.zero_pad_factor,
    )
    results = [demod.dechirp(s) for s in symbols]
    return decode_symbols(
        receiver, results[:n_preamble_upchirps], results[n_preamble_upchirps:]
    )
