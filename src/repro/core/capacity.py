"""Multi-user Shannon capacity below the noise floor (Section 3.1).

The paper's information-theoretic framing: the multi-user uplink capacity
``C = BW * log2(1 + N * Ps / Pn)`` grows *linearly* in the device count
``N`` when ``N * Ps / Pn << 1`` — which is exactly the below-noise regime
backscatter operates in. NetScatter's linear throughput scaling (Fig. 17)
is this effect made practical.

This module also carries the *closed-form OOK link law* the hybrid
fidelity split (``repro.protocol.population``) aggregates uncontended
device groups with: per-device detection, bit-error and packet-delivery
probabilities as vectorised functions of the pre-despreading SNR. The
law is the exact noncentral-χ² statistics of a matched-filter OOK
decision, calibrated against the decode engine (two pinned constants
below); its validity envelope — where it tracks the engine and where
Monte-Carlo takes over — is documented in ``docs/SCALING.md``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import LinkBudgetError
from repro.utils.conversions import db_to_linear


def multiuser_capacity_bps(
    bandwidth_hz: float, snr_per_device_db: float, n_devices: int
) -> float:
    """Exact multi-user AP capacity ``BW * log2(1 + N * snr)``."""
    if bandwidth_hz <= 0:
        raise LinkBudgetError("bandwidth must be positive")
    if n_devices < 0:
        raise LinkBudgetError("device count must be non-negative")
    snr = db_to_linear(snr_per_device_db)
    return bandwidth_hz * math.log2(1.0 + n_devices * snr)


def below_noise_approximation_bps(
    bandwidth_hz: float, snr_per_device_db: float, n_devices: int
) -> float:
    """Small-SNR linearisation ``BW/ln2 * N * snr`` (the paper's form)."""
    if bandwidth_hz <= 0:
        raise LinkBudgetError("bandwidth must be positive")
    if n_devices < 0:
        raise LinkBudgetError("device count must be non-negative")
    snr = db_to_linear(snr_per_device_db)
    return bandwidth_hz * n_devices * snr / math.log(2.0)


def approximation_error(
    snr_per_device_db: float, n_devices: int
) -> float:
    """Relative error of the linearisation at an operating point.

    Useful for validating where the "capacity scales linearly" claim
    holds: the error is below 5% whenever ``N * snr < 0.1``.
    """
    if n_devices == 0:
        return 0.0
    exact = multiuser_capacity_bps(1.0, snr_per_device_db, n_devices)
    approx = below_noise_approximation_bps(1.0, snr_per_device_db, n_devices)
    if exact == 0.0:
        raise LinkBudgetError("exact capacity is zero")
    return abs(approx - exact) / exact


def capacity_scaling_series(
    bandwidth_hz: float,
    snr_per_device_db: float,
    device_counts: Sequence[int],
) -> List[Dict[str, float]]:
    """Capacity vs device count, exact and linearised (analysis series)."""
    rows = []
    for n in device_counts:
        rows.append(
            {
                "n_devices": float(n),
                "capacity_bps": multiuser_capacity_bps(
                    bandwidth_hz, snr_per_device_db, n
                ),
                "linear_approx_bps": below_noise_approximation_bps(
                    bandwidth_hz, snr_per_device_db, n
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# closed-form OOK link law (the hybrid fidelity split's bulk path)
# ---------------------------------------------------------------------- #

#: Engine-calibration offset (dB) applied to the pre-despreading SNR
#: before the χ² law — absorbs the mean CFO/jitter straddle loss of the
#: decode engine's located-bin readout. Fitted against the measured
#: single-device engine curve (see docs/SCALING.md).
OOK_CALIBRATION_DB = -0.15

#: Effective number of *independent* payload bits in a 40-bit packet.
#: Bit errors within one round share the round's located-bin estimate,
#: so they are positively correlated and the all-bits-correct
#: probability exceeds ``(1 - ber)^40``; an effective length of 33
#: reproduces the engine's measured delivery curve.
OOK_EFFECTIVE_PAYLOAD_BITS = 33.0

#: Receiver constants mirrored from :class:`repro.core.receiver`:
#: detection threshold over the noise estimate (dB), preamble symbols
#: voted for detection, and near-bin candidates an off bit can
#: false-alarm on (located ``±1``).
OOK_DETECTION_SNR_DB = 3.0
OOK_PREAMBLE_SYMBOLS = 6
OOK_OFF_BIT_CANDIDATES = 3

#: Post-despreading SNR above which every probability saturates (the
#: χ² series is skipped and 0/1 returned); P(error) < 1e-30 there.
_SATURATION_RHO = 300.0


#: Iterations of the χ² series between two convergence checks. Each
#: check retires the lanes whose sum can no longer change and compacts
#: the working arrays to the rest.
_SERIES_CHECK_PERIOD = 32

#: Relative margin by which ``k + 1`` must exceed ``λ/2`` before the
#: Poisson weights are trusted to shrink from step ``k`` on: it covers
#: the two roundings of ``(poisson · λ/2) / (k + 1)``.
_POISSON_PEAK_MARGIN = 1.0 + 2.0**-30


def noncentral_chi2_cdf(
    x, noncentrality, max_terms: int = 800
) -> np.ndarray:
    """CDF of the 2-DoF noncentral χ² distribution, vectorised.

    ``P(χ²₂(λ) <= x)`` via the Poisson mixture of central χ² CDFs —
    the exact distribution of ``|A + n|²`` readout power (complex
    signal plus circular Gaussian noise), which is what every decision
    in the OOK link law reduces to. Both arguments broadcast.

    The series is ``Σ_k poisson_k · (1 - tail_k)`` over ``max_terms``
    terms, with ``poisson_k = e^{-λ/2} (λ/2)^k / k!`` and ``tail_k`` the
    central χ²₂ survival sum ``Σ_{j<=k} e^{-x/2} (x/2)^j / j!``. Each
    lane (one output element) stops as soon as no later term can change
    its bits, so the result is bit-identical to running every lane for
    all ``max_terms`` terms:

    * a lane with finite ``x >= 0`` and finite ``λ >= 0`` has
      ``0 <= tail_k < 3`` (a float sum of nonnegative terms whose exact
      value is at most 1; a subnormal ``e^{-x/2}`` can round every term
      up by less than 2x), so every later summand is at most
      ``2·poisson_j`` in magnitude;
    * once the divisor ``k + 1`` of the step
      ``poisson_{k+1} = (poisson_k · λ/2) / (k + 1)`` exceeds ``λ/2``
      (by a rounding margin), every later step shrinks the weight, so
      a lane whose current weight is 0 or below ``spacing(cdf) / 8``
      adds summands under a quarter of the spacing — under half the
      gap to either neighbour of ``cdf``, even below a power of two —
      and round-to-nearest keeps ``cdf``;
    * lanes outside that precondition (negative, infinite or NaN ``x``
      or ``λ``) run all ``max_terms`` terms.

    The check runs every ``_SERIES_CHECK_PERIOD`` terms. The ``tail``
    recursion runs on ``x``'s own shape and the ``poisson`` recursion on
    ``λ``'s (a scalar gate costs a scalar per term), each element
    seeing the same IEEE operations in the same order as the plain sum.

    >>> float(round(noncentral_chi2_cdf(2.0, 0.0), 4))   # central case
    0.6321
    >>> float(noncentral_chi2_cdf(1e3, 0.0)) == 1.0
    True
    """
    x = np.asarray(x, dtype=np.float64)
    lam = np.asarray(noncentrality, dtype=np.float64)
    result = np.zeros(np.broadcast_shapes(x.shape, lam.shape))
    if result.size == 0:
        return result
    x_lanes, lam_lanes = x.size > 1, lam.size > 1
    half_x = _series_argument(x, result.shape) / 2.0
    half_lam = _series_argument(lam, result.shape) / 2.0
    poisson = np.exp(-half_lam)
    term = np.exp(-half_x)
    tail = term.copy()
    one_minus_tail = np.empty_like(tail)
    summand = np.empty(result.size)
    cdf = np.zeros(result.size)
    lanes = np.arange(result.size)
    retirable = np.broadcast_to(
        _retirable(half_x) & _retirable(half_lam), lanes.shape
    )
    flat = result.reshape(-1)
    for k in range(max_terms):
        np.subtract(1.0, tail, out=one_minus_tail)
        np.multiply(poisson, one_minus_tail, out=summand)
        cdf += summand
        np.multiply(poisson, half_lam, out=poisson)
        np.divide(poisson, k + 1, out=poisson)
        np.multiply(term, half_x, out=term)
        np.divide(term, k + 1, out=term)
        np.add(tail, term, out=tail)
        if (k + 1) % _SERIES_CHECK_PERIOD:
            continue
        done = retirable & (
            (poisson == 0.0)
            | (
                (poisson < np.spacing(cdf) / 8.0)
                & (half_lam * _POISSON_PEAK_MARGIN < k + 2)
            )
        )
        if not done.any():
            continue
        flat[lanes[done]] = cdf[done]
        live = ~done
        lanes, cdf, retirable = lanes[live], cdf[live], retirable[live]
        if not lanes.size:
            break
        summand = summand[: lanes.size]
        if lam_lanes:
            poisson, half_lam = poisson[live], half_lam[live]
        if x_lanes:
            term, tail, half_x = term[live], tail[live], half_x[live]
            one_minus_tail = one_minus_tail[: lanes.size]
    flat[lanes] = cdf
    return np.clip(result, 0.0, 1.0)


def _series_argument(values: np.ndarray, shape) -> np.ndarray:
    """One series argument, flat: its one value (shape ``(1,)``, shared
    by every lane) or one value per lane of the broadcast ``shape``."""
    if values.size == 1:
        return values.reshape(1)
    return np.broadcast_to(values, shape).reshape(-1)


def _retirable(half: np.ndarray) -> np.ndarray:
    """Where an argument meets the early-exit precondition: finite and
    nonnegative (NaN fails both comparisons)."""
    return (half >= 0.0) & (half < np.inf)


def post_despreading_snr(
    snr_db, spreading_factor: int, calibration_db: float = OOK_CALIBRATION_DB
) -> np.ndarray:
    """Linear per-device SNR after the ``2^SF`` despreading gain.

    The deployment convention (``repro.channel.awgn``): ``snr_db`` is
    the pre-despreading in-band SNR, and dechirping concentrates the
    signal into one bin for a ``10 log10(2^SF)`` processing gain. The
    result is independent of the concurrent round's noise floor —
    each device's readout SNR depends only on its own link.
    """
    gain_db = 10.0 * math.log10(2.0**spreading_factor)
    return 10.0 ** (
        (np.asarray(snr_db, dtype=np.float64) + gain_db + calibration_db)
        / 10.0
    )


def ook_bit_error_probabilities(rho: np.ndarray):
    """Per-symbol OOK error probabilities ``(p_on_miss, p_off_false)``.

    ``rho`` is the linear post-despreading SNR. The decision threshold
    sits midway between the expected on power ``(1 + rho)·σ²`` and the
    noise power ``σ²``: an on bit is missed when its noncentral-χ²
    power falls below it; an off bit false-alarms when any of the
    ``OOK_OFF_BIT_CANDIDATES`` near-located noise bins exceeds it.
    """
    rho = np.asarray(rho, dtype=np.float64)
    safe = np.minimum(rho, _SATURATION_RHO)
    threshold = 0.5 * (safe + 1.0)
    p_on = noncentral_chi2_cdf(2.0 * threshold, 2.0 * safe)
    p_off = 1.0 - (1.0 - np.exp(-threshold)) ** OOK_OFF_BIT_CANDIDATES
    saturated = rho > _SATURATION_RHO
    return np.where(saturated, 0.0, p_on), np.where(saturated, 0.0, p_off)


def preamble_detection_probability(
    snr_db,
    spreading_factor: int,
    detection_snr_db: float = OOK_DETECTION_SNR_DB,
) -> np.ndarray:
    """Probability the 6-symbol preamble clears the detection gate.

    Every preamble symbol's located-bin power must exceed the noise
    estimate by ``detection_snr_db`` (the receiver's minimum-over-
    preamble vote), so detection is the product of six independent
    per-symbol exceedances.

    >>> float(preamble_detection_probability(0.0, 9)) == 1.0
    True
    """
    rho = post_despreading_snr(snr_db, spreading_factor)
    return _preamble_detection(rho, detection_snr_db)


def _preamble_detection(rho: np.ndarray, detection_snr_db: float):
    """:func:`preamble_detection_probability` of a linear ``rho``."""
    safe = np.minimum(rho, _SATURATION_RHO)
    gate = 10.0 ** (detection_snr_db / 10.0)
    p_symbol = 1.0 - noncentral_chi2_cdf(2.0 * gate, 2.0 * safe)
    p_detect = p_symbol**OOK_PREAMBLE_SYMBOLS
    return np.where(rho > _SATURATION_RHO, 1.0, p_detect)


def ook_link_probabilities(
    snr_db,
    spreading_factor: int,
    payload_bits: float = OOK_EFFECTIVE_PAYLOAD_BITS,
):
    """Per-device ``(delivery, ber)`` of the closed-form link law.

    One pass computes ``rho``, the symbol error probabilities and the
    preamble detection probability once per device and derives both
    outputs from them. Delivery requires preamble detection *and* every
    payload bit correct (the CRC convention of
    ``NetworkSimulator.run_rounds``); payload bits are an even on/off
    mix of ``payload_bits`` effective independent bits (see
    :data:`OOK_EFFECTIVE_PAYLOAD_BITS`). The BER matches the engine's
    scoring, which counts every bit of an undetected round wrong:
    ``1 - p_detect * (1 - symbol_ber)``.

    The χ² series runs only on unsaturated devices; a saturated device
    (``rho > _SATURATION_RHO``) is delivered error-free, exactly as the
    saturating ``np.where`` of the per-stage functions resolves it.

    >>> delivery, ber = ook_link_probabilities([0.0, -40.0], 9)
    >>> bool(delivery[0] == 1.0 and ber[0] == 0.0)
    True
    >>> bool(delivery[1] < 1e-3)
    True
    """
    rho = post_despreading_snr(snr_db, spreading_factor)
    delivery = np.ones_like(rho)
    ber = np.zeros_like(rho)
    # Not ``rho <= _SATURATION_RHO``: a NaN SNR must take the series
    # path and come out NaN, as it does in the per-stage functions.
    live = ~(rho > _SATURATION_RHO)
    live_rho = rho[live]
    p_on, p_off = ook_bit_error_probabilities(live_rho)
    symbol_ber = 0.5 * (p_on + p_off)
    p_detect = _preamble_detection(live_rho, OOK_DETECTION_SNR_DB)
    delivery[live] = p_detect * (1.0 - symbol_ber) ** float(payload_bits)
    ber[live] = 1.0 - p_detect * (1.0 - symbol_ber)
    return delivery, ber


def packet_delivery_probability(
    snr_db,
    spreading_factor: int,
    payload_bits: float = OOK_EFFECTIVE_PAYLOAD_BITS,
) -> np.ndarray:
    """Closed-form probability a device's packet is delivered
    (the delivery half of :func:`ook_link_probabilities`).

    >>> float(packet_delivery_probability(0.0, 9)) == 1.0
    True
    >>> float(packet_delivery_probability(-40.0, 9)) < 1e-3
    True
    """
    return ook_link_probabilities(snr_db, spreading_factor, payload_bits)[0]


def effective_bit_error_rate(snr_db, spreading_factor: int) -> np.ndarray:
    """Expected scored BER of a device, matching the engine's scoring
    (the BER half of :func:`ook_link_probabilities`)."""
    return ook_link_probabilities(snr_db, spreading_factor)[1]


def netscatter_utilisation(
    achieved_bps: float, bandwidth_hz: float
) -> float:
    """Fraction of the ``BW`` aggregate-throughput ceiling achieved.

    Distributed CSS tops out at ``BW`` bits/s (every bin carrying one OOK
    bit per symbol); the deployed SKIP = 2 halves it.
    """
    if bandwidth_hz <= 0:
        raise LinkBudgetError("bandwidth must be positive")
    if achieved_bps < 0:
        raise LinkBudgetError("throughput must be non-negative")
    return achieved_bps / bandwidth_hz
