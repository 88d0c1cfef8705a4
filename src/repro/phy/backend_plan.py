"""Occupancy-adaptive spectral backend planner.

The batched decode engine has three interchangeable spectral backends —
all producing bit-identical decisions on tone-sum inputs — whose costs
scale differently with the occupancy ``D`` (concurrent device tones) of
a round batch of ``R`` rounds x ``S`` symbols at chirp length ``N``
(= ``2^SF``), zero-pad factor ``zp`` and readout size ``K`` (window bins
``K_w ~ D * W`` plus ``K_p`` noise probes):

``analytic``
    Closed-form Dirichlet-kernel composition
    (:func:`repro.core.dcss.compose_readout`): ~6 bandwidth-bound passes
    over the ``(D, K)`` kernel grid per round plus two *real* GEMMs of
    ``R*S*D*K_w`` multiply-adds. No waveform, no operator. Scales as
    ``S*W*D^2`` — unbeatable at small ``D``, quadratic in occupancy.

``sparse``
    The precomputed sparse-readout operator over a symbol tensor
    (complex GEMM of ``R*S*N*K_w``). Scales as ``S*N*D*W`` — linear in
    ``D`` but carries the full chirp length ``N`` in every term.
    Tensor inputs only.

``fft``
    One zero-padded FFT per symbol, after time-domain tone synthesis
    (one GEMM of ``R*S*D*N``) on tone inputs:
    ``R*S*(N*zp)*log2(N*zp)`` butterfly work, independent of ``D``
    beyond the compose. The cheapest readout once the windows cover an
    appreciable fraction of the padded grid — exactly the paper's most
    stressed operating points (``D = N/2`` at 256 devices, SF 9).

Cost model
----------
Each backend's wall-clock is predicted as a weighted sum of six
primitive throughputs measured once per host by :func:`calibrate` (a
0.14–0.19 s micro-benchmark with a 24 MiB transient, whose result is
persisted, so the crossover points are *pinned by measurement* instead
of hard-coded flop ratios — BLAS GEMM, ``numpy.fft`` and transcendental
throughput differ by large, machine-dependent constants):

* ``real_mac_s`` / ``cplx_mac_s`` — seconds per multiply-add of a
  float64 / complex128 GEMM,
* ``fft_elem_s`` — seconds per ``element * log2(n)`` of a batched
  complex FFT,
* ``exp_elem_s`` — seconds per element of a complex-exponential
  evaluation (tone synthesis),
* ``ew_pass_s`` — seconds per element of one bandwidth-bound array
  pass (the analytic kernel's trigonometric grid assembly),
* ``gauss_elem_s`` — seconds per complex CN(0,1) draw (the engine's
  readout-domain noise streams).

With the dev-box coefficients the model reproduces the measured
ordering: ``analytic`` below ~100 devices at the deployment point
(SF 9, ``zp`` 10, 46-symbol rounds), ``fft`` above. ``sparse`` is
priced for symbol-tensor inputs only (its niche is small ``D``, where
``analytic`` is not available); on tone-sum inputs it was always
dominated, so the decode has no tone-input ``sparse`` path. See the
README's four-mode table for the measured crossover and
``docs/PERFORMANCE.md`` for the full decision guide.

Workloads that inject engine noise carry their ``noise_mode``
(``"full"`` draws every readout bin each symbol, ``"payload"`` only the
preamble windows plus the located ``±1`` payload bins — see
:mod:`repro.phy.noise`). The noise term is *backend-common* — every
spectral backend draws the same stream — so by construction it never
flips the backend ordering; it is modelled so predicted totals track
wall-clock, and so cost introspection (``costs()``) quantifies what a
``noise_mode`` switch is worth at a given operating point.

Consumers go through :func:`host_planner` (cached, calibrating at most
once per process) or construct :class:`BackendPlanner` with explicit
coefficients for deterministic tests. The persisted calibration lives
in the system temp directory by default (override with the
``REPRO_BACKEND_CALIBRATION`` environment variable; set it to the empty
string to disable persistence). The persistence schema is versioned;
files written by older schemas are ignored and transparently
re-calibrated.

Doctest — the crossover ordering and the noise-mode accounting with the
conservative built-in coefficients:

>>> from repro.phy.backend_plan import (
...     BackendPlanner, DEFAULT_COEFFICIENTS, ReadoutWorkload)
>>> planner = BackendPlanner(DEFAULT_COEFFICIENTS)
>>> def point(d, noise_mode=None):
...     return ReadoutWorkload(
...         n_rounds=3, n_symbols=46, n_devices=d, n_samples=512,
...         zero_pad_factor=10, window_bins=13 * d, probe_bins=512,
...         window_width=13, noise_mode=noise_mode)
>>> planner.select(point(8))
'analytic'
>>> planner.select(point(256))
'fft'
>>> payload = planner.costs(point(64, noise_mode="payload"))
>>> full = planner.costs(point(64, noise_mode="full"))
>>> bool(full["analytic"] > payload["analytic"])  # fewer draws
True
>>> gap_full = full["fft"] - full["analytic"]       # backend-common term:
>>> gap_payload = payload["fft"] - payload["analytic"]  # same gap
>>> bool(abs(gap_full - gap_payload) < 1e-12)
True
"""

from __future__ import annotations

import json
import logging
import os
import platform
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError

logger = logging.getLogger(__name__)

#: Backend names, in the order the planner reports their costs.
BACKENDS = ("analytic", "sparse", "fft")

#: Environment variable overriding the calibration file location
#: ("" disables persistence entirely).
CALIBRATION_ENV = "REPRO_BACKEND_CALIBRATION"

#: Persistence schema of the calibration file. v2 added the Gaussian
#: draw primitive (``gauss_elem_s``); v1 files are ignored and
#: re-calibrated rather than silently carrying a guessed coefficient.
_SCHEMA = "repro-backend-plan-v2"

@dataclass(frozen=True)
class ReadoutWorkload:
    """Shape of one batched decode, everything the cost model reads.

    ``n_devices`` counts the *composed tones* per round (the columns of
    the keying tensor); ``window_bins`` / ``probe_bins`` are the
    receiver's readout sizes (``K_w`` is already ``D_rx * W``).
    ``tone_input`` marks whether composition inputs are available — when
    False (a pre-composed symbol tensor) the ``analytic`` backend is
    not applicable and the synthesis cost of the other two is sunk.

    ``noise_mode`` is ``None`` when the decode injects no engine noise;
    otherwise ``"full"`` or ``"payload"`` selects which versioned
    stream's draw volume to account (backend-common — see the module
    docstring). Noise accounting additionally needs ``window_width``
    (``W``, the interpolated bins per device window, so the correlation
    matmuls and the per-device located-bin draws can be sized) and
    ``n_preamble`` (the symbol rows the payload stream still draws in
    full).
    """

    n_rounds: int
    n_symbols: int
    n_devices: int
    n_samples: int
    zero_pad_factor: int
    window_bins: int
    probe_bins: int
    tone_input: bool = True
    window_width: int = 0
    n_preamble: int = 6
    noise_mode: Optional[str] = None


@dataclass(frozen=True)
class CalibrationCoefficients:
    """Measured per-element costs (seconds) of the six primitives.

    ``gauss_elem_s`` defaults so five-coefficient constructions (and
    older persisted payloads re-validated through the constructor) stay
    usable; :func:`calibrate` always measures it.
    """

    real_mac_s: float
    cplx_mac_s: float
    fft_elem_s: float
    exp_elem_s: float
    ew_pass_s: float
    gauss_elem_s: float = 6.0e-9

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not (value > 0.0 and np.isfinite(value)):
                raise ConfigurationError(
                    f"calibration coefficient {name} must be positive "
                    f"and finite, got {value!r}"
                )


#: Conservative fallback (a ~1 Gflop/s core with numpy's typical FFT /
#: transcendental constants). Only used when measuring is impossible;
#: :func:`host_planner` always prefers a real calibration.
DEFAULT_COEFFICIENTS = CalibrationCoefficients(
    real_mac_s=6.0e-10,
    cplx_mac_s=2.0e-9,
    fft_elem_s=1.5e-9,
    exp_elem_s=1.5e-8,
    ew_pass_s=1.2e-9,
    gauss_elem_s=6.0e-9,
)


def _best_time(fn, repeats: int = 3) -> float:
    """Minimum wall-clock of ``fn`` over ``repeats`` runs (post-warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _complex_from(real: np.ndarray, generator) -> np.ndarray:
    """``real + 1j * generator.standard_normal(real.shape)``, built in place.

    Same values and draw as the expression, without its two complex
    temporaries: the only transient is the real imaginary-part draw.
    """
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = generator.standard_normal(real.shape)
    return out


def _gemm_probes(generator) -> tuple[float, float]:
    """Per-multiply-add cost of a real and of a complex GEMM."""
    m, k, n = 48, 256, 2048
    a = generator.standard_normal((m, k))
    b = generator.standard_normal((k, n))
    real_mac_s = _best_time(lambda: a @ b) / (m * k * n)
    ac = _complex_from(a, generator)
    bc = _complex_from(b, generator)
    cplx_mac_s = _best_time(lambda: ac @ bc) / (m * k * n)
    return real_mac_s, cplx_mac_s


def _fft_probe(generator) -> float:
    """Per-``element * log2(n)`` cost of a zero-padded batch FFT."""
    m, n_fft = 48, 5120  # the deployment's padded grid (512 * 10)
    x = _complex_from(generator.standard_normal((m, 512)), generator)
    return _best_time(lambda: np.fft.fft(x, n=n_fft, axis=-1)) / (
        m * n_fft * np.log2(n_fft)
    )


def _exp_probe(generator) -> float:
    """Per-element cost of a complex exponential."""
    theta = generator.standard_normal(1 << 17)
    return _best_time(lambda: np.exp(1j * theta)) / theta.size


def _ew_probe(generator) -> float:
    """Per-element cost of one bandwidth-bound array pass."""
    u = generator.standard_normal(1 << 20)
    v = generator.standard_normal(1 << 20)
    return _best_time(lambda: u * v) / u.size


def _gauss_probe(generator) -> float:
    """Per-element cost of a complex CN(0,1) draw."""
    from repro.utils.rng import standard_complex_normal

    n_draws = 1 << 16
    return _best_time(
        lambda: standard_complex_normal(generator, (n_draws,))
    ) / n_draws


def calibrate(rng=None) -> CalibrationCoefficients:
    """One-shot micro-calibration of the six primitive throughputs.

    Deliberately small (0.14–0.19 s on a 2-vCPU host): each primitive
    is timed on a workload shaped like the real decode kernels (GEMMs
    with a short ``m`` and long ``k``/``n``, a zero-padded batch FFT, a
    tone grid) and the per-element cost is the best of three runs.

    Each probe builds, times and frees its inputs before the next one
    starts, in a fixed draw order from one generator, so the transient
    memory is the largest single probe's (the elementwise pass's three
    8 MiB arrays, 24 MiB) rather than the sum of all six.
    """
    generator = np.random.default_rng(0 if rng is None else rng)
    real_mac_s, cplx_mac_s = _gemm_probes(generator)
    # Keyword arguments evaluate left to right: this is the draw order.
    return CalibrationCoefficients(
        real_mac_s=real_mac_s,
        cplx_mac_s=cplx_mac_s,
        fft_elem_s=_fft_probe(generator),
        exp_elem_s=_exp_probe(generator),
        ew_pass_s=_ew_probe(generator),
        gauss_elem_s=_gauss_probe(generator),
    )


def _default_calibration_path() -> Optional[Path]:
    """Per-host calibration file; ``None`` when persistence is disabled."""
    override = os.environ.get(CALIBRATION_ENV)
    if override is not None:
        return Path(override) if override else None
    user = os.environ.get("USER") or os.environ.get("USERNAME") or "shared"
    return Path(tempfile.gettempdir()) / f"repro-backend-plan-{user}.json"


def _load_coefficients(path: Path) -> Optional[CalibrationCoefficients]:
    """Previously persisted coefficients, or ``None`` if unusable.

    A corrupt or truncated calibration file (torn write, disk fault)
    must never abort planning: it is logged and discarded so
    :func:`host_planner` re-calibrates and rewrites a valid file.
    """
    try:
        text = path.read_text()
    except OSError:
        return None  # missing/unreadable: plain cache miss, no noise
    try:
        data = json.loads(text)
    except ValueError as error:
        logger.warning(
            "backend calibration file %s is corrupt (%s); "
            "discarding it and re-calibrating",
            path,
            error,
        )
        return None
    if not isinstance(data, dict) or data.get("schema") != _SCHEMA:
        logger.info(
            "backend calibration file %s carries schema %r "
            "(expected %r); re-calibrating",
            path,
            data.get("schema") if isinstance(data, dict) else type(data),
            _SCHEMA,
        )
        return None
    try:
        return CalibrationCoefficients(**data["coefficients"])
    except (TypeError, KeyError, ConfigurationError) as error:
        logger.warning(
            "backend calibration file %s has unusable coefficients "
            "(%s); re-calibrating",
            path,
            error,
        )
        return None


def _persist_coefficients(
    path: Path, coefficients: CalibrationCoefficients
) -> None:
    """Best-effort atomic write of the calibration; failures are non-fatal.

    The payload goes to a temporary file in the same directory that then
    replaces ``path``, so a write that fails part-way leaves the previous
    file (or none), never a torn one.
    """
    payload = {
        "schema": _SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "coefficients": asdict(coefficients),
    }
    try:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


class BackendPlanner:
    """Predicts per-backend decode cost and picks the cheapest.

    Stateless apart from its coefficients: construct with explicit
    :class:`CalibrationCoefficients` for deterministic behaviour (tests
    pin crossovers this way), or use :func:`host_planner` for the
    per-host calibrated instance.
    """

    def __init__(self, coefficients: CalibrationCoefficients) -> None:
        self._coefficients = coefficients

    @property
    def coefficients(self) -> CalibrationCoefficients:
        return self._coefficients

    def costs(self, workload: ReadoutWorkload) -> Dict[str, float]:
        """Predicted seconds per backend for ``workload``.

        Only applicable backends appear: tone inputs price ``analytic``
        and ``fft``, tensor inputs (``tone_input=False``) ``sparse`` and
        ``fft``, with no synthesis term. When the workload injects
        engine noise (``noise_mode``), every backend additionally
        carries the same stream-draw term — backend-common, so it never
        changes :meth:`select`'s answer, but it keeps the totals honest
        and exposes the payload-vs-full draw saving to cost readers.
        """
        c = self._coefficients
        w = workload
        r, s, d = w.n_rounds, w.n_symbols, w.n_devices
        n, kw, kp = w.n_samples, w.window_bins, w.probe_bins
        n_grid = n * w.zero_pad_factor
        if min(r, s, n, kw) < 1 or w.zero_pad_factor < 1:
            raise ConfigurationError("workload dimensions must be >= 1")
        noise = self._noise_cost(w)

        out: Dict[str, float] = {}
        compose = 0.0
        if w.tone_input:
            if d < 1:
                raise ConfigurationError(
                    "tone-input workloads need n_devices >= 1"
                )
            # Kernel grids are ~6 bandwidth-bound passes (sin/cos outer
            # products, singular-limit mask, divides); the GEMMs run on
            # the real ratio matrix twice (real + imaginary weights).
            out["analytic"] = c.real_mac_s * (
                2.0 * r * s * d * kw + 2.0 * r * d * kp
            ) + c.ew_pass_s * 6.0 * r * d * (kw + kp)
            # Tone synthesis shared by the waveform backends: the
            # factored form of compose_rounds takes O(sqrt(N))
            # transcendentals per tone, one complex outer-product pass
            # over the (R, D, N) grid (~4 bandwidth-bound passes), and
            # the weights GEMM.
            compose = (
                c.exp_elem_s * r * d * 2.0 * np.sqrt(n)
                + c.ew_pass_s * 4.0 * r * d * n
                + c.cplx_mac_s * r * s * d * n
            )
        else:
            # The sparse operator reads symbol tensors only: on tone
            # inputs analytic or fft was always predicted cheaper (no
            # tone workload of an SF 7/9/12 grid picked it), so
            # decode_readout has no sparse stage A.
            out["sparse"] = c.cplx_mac_s * (r * s * n * kw + r * n * kp)
        out["fft"] = compose + c.fft_elem_s * (
            r * s * n_grid * np.log2(n_grid)
        )
        if noise:
            out = {name: cost + noise for name, cost in out.items()}
        return out

    def _noise_cost(self, w: ReadoutWorkload) -> float:
        """Predicted seconds of the engine-noise draws, or 0 when none.

        Two terms per stream block: the CN(0,1) generation
        (``gauss_elem_s`` per complex element) and the correlation
        matmul mixing each window block through its covariance factor
        (``cplx_mac_s`` per multiply-add — ``W`` per element for full
        windows, 3 per element for the located payload bins).
        """
        if w.noise_mode is None:
            return 0.0
        # Lazy import: the live stream registry is the single source of
        # truth for valid modes, and planner-only consumers that never
        # account noise never pay for it.
        from repro.phy.noise import NOISE_MODES

        if w.noise_mode not in NOISE_MODES:
            raise ConfigurationError(
                f"noise_mode must be None or one of {NOISE_MODES}, "
                f"got {w.noise_mode!r}"
            )
        width = w.window_width
        if width < 1:
            raise ConfigurationError(
                "noise-accounted workloads need window_width >= 1"
            )
        r, s = w.n_rounds, w.n_symbols
        kw, kp = w.window_bins, w.probe_bins
        if w.noise_mode == "full":
            draws = r * s * kw + r * kp
            correlate = r * s * kw * width
        else:
            d_rx = kw / width
            s_pre = min(max(w.n_preamble, 0), s)
            s_pay = s - s_pre
            draws = r * (s_pre * kw + s_pay * 3.0 * d_rx) + r * kp
            correlate = r * (s_pre * kw * width + s_pay * d_rx * 9.0)
        c = self._coefficients
        return c.gauss_elem_s * draws + c.cplx_mac_s * correlate

    def select(self, workload: ReadoutWorkload) -> str:
        """Name of the predicted-cheapest applicable backend."""
        costs = self.costs(workload)
        return min(costs, key=costs.get)


_HOST_PLANNER: Optional[BackendPlanner] = None


def host_planner(force_recalibrate: bool = False) -> BackendPlanner:
    """The per-host calibrated planner, built at most once per process.

    Loads the persisted calibration when present and valid; otherwise
    runs :func:`calibrate` and persists the result so subsequent
    processes (e.g. sweep worker pools) skip the micro-benchmark. A
    calibration that raises is logged and replaced by
    :data:`DEFAULT_COEFFICIENTS` for this process only: the defaults are
    never persisted, so later processes measure instead of loading them.
    """
    global _HOST_PLANNER
    if _HOST_PLANNER is not None and not force_recalibrate:
        return _HOST_PLANNER
    path = _default_calibration_path()
    coefficients = None
    if path is not None and not force_recalibrate:
        coefficients = _load_coefficients(path)
    if coefficients is None:
        try:
            coefficients = calibrate()
        except Exception:
            logger.warning(
                "backend calibration failed; planning with the built-in "
                "default coefficients for this process (not persisted)",
                exc_info=True,
            )
            coefficients = DEFAULT_COEFFICIENTS
        else:
            if path is not None:
                _persist_coefficients(path, coefficients)
    _HOST_PLANNER = BackendPlanner(coefficients)
    return _HOST_PLANNER
