"""Complex additive white Gaussian noise and CSS SNR accounting.

SNR conventions
---------------
Throughout the library, "SNR" means the *pre-despreading* in-band SNR over
the chirp bandwidth, matching the paper's figures (e.g. BER at -20 to
-10 dB in Fig. 12 — below the noise floor). Dechirping plus the ``2^SF``
point FFT provides a processing gain of ``2^SF`` (coherent integration over
the symbol), which is what lets CSS decode below the noise floor.
"""

from __future__ import annotations

import numpy as np

from repro.constants import THERMAL_NOISE_DBM_PER_HZ
from repro.errors import LinkBudgetError
from repro.utils.conversions import db_to_linear
from repro.utils.rng import RngLike, make_rng, standard_complex_normal


def awgn(
    signal: np.ndarray,
    snr_db: float,
    rng: RngLike = None,
    signal_power: float = 1.0,
) -> np.ndarray:
    """Add complex AWGN realising ``snr_db`` against ``signal_power``.

    ``signal_power`` is the *reference* power of a unit transmitter (the
    chirp symbols here have unit power), not the measured power of
    ``signal`` — important for OOK, where '0' symbols are silent but the
    noise level must not change, and for multi-device sums, where SNR is
    defined per-device.
    """
    signal = np.asarray(signal, dtype=complex)
    if signal_power <= 0:
        raise LinkBudgetError("signal_power must be positive")
    noise_power = signal_power / db_to_linear(snr_db)
    generator = make_rng(rng)
    scale = np.sqrt(noise_power / 2.0)
    noise = generator.normal(scale=scale, size=signal.shape) + 1j * generator.normal(
        scale=scale, size=signal.shape
    )
    return signal + noise


def awgn_rounds(
    signal: np.ndarray,
    snr_db,
    rng: RngLike = None,
    signal_power: float = 1.0,
) -> np.ndarray:
    """Batched complex AWGN over a ``(n_rounds, ...)`` signal tensor.

    The per-round loop used to spend ~20% of a Fig. 12 sweep inside
    ``Generator.normal`` call overhead; this draws the Gaussian pairs
    for the whole batch in a single interleaved call. ``snr_db`` may be
    a scalar (one level for every round) or a length-``n_rounds`` array
    (e.g. fading rounds, where the weakest device per round sets the
    noise reference).

    The same ``signal_power`` reference convention as :func:`awgn`
    applies: the noise level realises the SNR against a unit transmitter,
    not against the measured power of ``signal``.
    """
    signal = np.asarray(signal, dtype=complex)
    if signal.ndim < 1:
        raise LinkBudgetError("signal must have a leading round axis")
    if signal_power <= 0:
        raise LinkBudgetError("signal_power must be positive")
    snr = np.asarray(snr_db, dtype=float)
    if snr.ndim > 1 or (snr.ndim == 1 and snr.size != signal.shape[0]):
        raise LinkBudgetError(
            "snr_db must be scalar or one value per round"
        )
    noise_power = signal_power / 10.0 ** (snr / 10.0)
    scale = np.sqrt(noise_power)
    if scale.ndim == 1:
        scale = scale.reshape((-1,) + (1,) * (signal.ndim - 1))
    noise = standard_complex_normal(rng, signal.shape)
    return signal + scale * noise


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 6.0) -> float:
    """Receiver noise power over ``bandwidth_hz`` (dBm).

    Thermal floor (-174 dBm/Hz) plus a receiver noise figure; 6 dB is a
    typical software-radio front end and reproduces the paper's -123 dBm
    sensitivity for the (500 kHz, SF 9) configuration within ~1 dB.
    """
    if bandwidth_hz <= 0:
        raise LinkBudgetError("bandwidth must be positive")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db


def snr_from_rssi_db(
    rssi_dbm: float, bandwidth_hz: float, noise_figure_db: float = 6.0
) -> float:
    """In-band SNR implied by an RSSI measurement."""
    return rssi_dbm - noise_power_dbm(bandwidth_hz, noise_figure_db)
