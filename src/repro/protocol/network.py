"""Network-level simulator: concurrent rounds over a deployment.

Executes the paper's evaluation loop (Section 4.4): associate a
deployment's devices, run query/response rounds with the fast PHY path
(tones with per-packet jitter/CFO, AWGN), decode with the single-FFT
receiver, and account air time — producing the network PHY rate,
link-layer rate and latency series of Figs. 17-19.

Three PHY engines are available per simulator:

* ``"analytic"`` (default) — every round is a tone sum, so the whole
  compose -> dechirp -> readout chain is evaluated in closed form at
  the receiver's readout bins (:meth:`NetScatterReceiver.decode_readout`)
  with exact readout-domain AWGN; no waveform tensor is materialised
  and the sparse-readout operator is never built.
* ``"auto"`` — the occupancy-adaptive engine: each batch goes through
  :meth:`NetScatterReceiver.decode_readout` under ``readout="auto"``,
  which lets the host-calibrated cost model
  (:mod:`repro.phy.backend_plan`) pick the cheapest spectral backend
  for the batch's device count (closed-form kernel at small occupancy,
  padded FFT near full occupancy). Decisions are bit-identical to the
  fixed engines; the chosen backend is recorded on the results.
* ``"time"`` — the reference path: :func:`compose_rounds` waveform
  tensors, time-domain AWGN, batched sparse readout. Decisions match
  the analytic engine bit for bit on noiseless inputs (the equivalence
  suite pins this); under noise the two draw statistically identical
  AWGN through different mechanisms.

Where the noise enters differs per engine, and the engine-injected
variant is *versioned*: the ``"analytic"``/``"auto"`` engines draw
readout-domain AWGN from a :class:`repro.phy.noise.NoiseStream` whose
``noise_mode`` selects the draw layout — ``"payload"`` (stream version
2, default: located ``±1`` payload bins only) or ``"full"`` (version 1,
every readout bin, bit-identical to the historical draws) — while the
``"time"`` engine adds AWGN over the waveform tensor before decoding
(its decodes are stamped ``noise_mode="none"``). The stream used is
recorded on ``NetworkMetrics.noise_mode`` / ``noise_version`` next to
``backend``, so sweep outputs are reproducible from their seeds alone.
See ``docs/ARCHITECTURE.md`` for the full data-flow picture.

Fading rounds are batched like everything else: the per-device AR(1)
shadow-fading tracks advance ``n_rounds`` at a time through
:func:`repro.channel.fading.step_tracks` (same draws, one generator
call) and enter the composition as per-round amplitude rows and
per-round noise floors — no per-round Python loop. The round-by-round
execution it replaced is kept as a test oracle in
``tests/test_protocol_ap_network.py``, which pins the batched path's
statistics against it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.airtime import netscatter_round_airtime_s
from repro.channel.awgn import awgn_rounds
from repro.channel.deployment import Deployment
from repro.constants import PAYLOAD_CRC_BITS, QUERY_BITS_CONFIG1
from repro.core.allocation import power_aware_allocation
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.receiver import NetScatterReceiver, RoundsDecode
from repro.errors import ConfigurationError, DecodingError
from repro.hardware.mcu import McuTimingModel
from repro.hardware.oscillator import OscillatorBank, tag_oscillator
from repro.phy.noise import NOISE_MODES
from repro.phy.packet import PacketStructure
from repro.utils.rng import RngLike, child_rng, make_rng

#: Engine names accepted by :class:`NetworkSimulator` and the sweeps.
ENGINES = ("analytic", "auto", "time")

#: Wall-clock spacing assumed between fading rounds (seconds): the
#: AR(1) tracks step by this much per round.
FADING_ROUND_INTERVAL_S = 0.06

#: The Fig. 17-19 sweep grid, shared by the figure drivers and the
#: campaign presets (:mod:`repro.campaign.presets`).
DEFAULT_DEVICE_COUNTS = (1, 16, 32, 64, 96, 128, 160, 192, 224, 256)

#: NetScatterConfig overrides of the Fig. 17/18 sweeps, in the drivers
#: and in the campaigns: the deployment experiments run every device
#: concurrently, so no association shifts are reserved.
SWEEP_CONFIG = {"n_association_shifts": 0}


@dataclass
class NetworkMetrics:
    """Aggregated metrics over several rounds (one sweep point).

    ``goodput_bits_per_round`` is the raw per-round correct-bit count the
    rates derive from; drivers that account the same decode under several
    query costs (Fig. 18's config 1 vs 2) reuse it instead of re-running
    the PHY.
    """

    n_devices: int
    phy_rate_bps: float
    link_layer_rate_bps: float
    latency_s: float
    delivery_ratio: float
    bit_error_rate: float
    goodput_bits_per_round: float = 0.0
    #: Spectral backend that decoded the batch — makes sweep outputs
    #: self-describing under the occupancy-adaptive ``"auto"`` engine.
    backend: str = ""
    #: Engine-noise stream of the batch ("payload" version 2 by
    #: default; "none"/0 under the time engine, whose AWGN is added to
    #: the waveform tensor before the decode ever sees it).
    noise_mode: str = ""
    noise_version: int = 0


def _as_deployment(deployment) -> Deployment:
    """Accept a :class:`Deployment` or a flat population.

    The population layer (:class:`repro.protocol.population.Population`)
    hands its effective-SNR column straight to the engine: a population
    becomes a static no-fading deployment via
    :meth:`Deployment.from_snrs` (its ``snr_db`` column is *post*
    power-control by convention, so callers pair it with
    ``power_control=False``). A raw 1-D SNR array is accepted the same
    way; an existing deployment passes through untouched.
    """
    if isinstance(deployment, Deployment):
        return deployment
    from repro.protocol.population import Population

    if isinstance(deployment, Population):
        return Deployment.from_snrs(
            deployment.snr_db, device_ids=deployment.device_id.tolist()
        )
    if isinstance(deployment, (list, tuple, np.ndarray)):
        return Deployment.from_snrs(np.asarray(deployment, dtype=float))
    return deployment


class NetworkSimulator:
    """Round-based NetScatter network simulation over a deployment.

    Parameters
    ----------
    engine:
        ``"analytic"`` (default) decodes every round through the
        waveform-free Dirichlet-kernel path with readout-domain AWGN;
        ``"auto"`` additionally lets the calibrated backend planner
        switch to the sparse-matmul or padded-FFT readout when the
        occupancy makes them cheaper (same decisions, recorded in
        ``NetworkMetrics.backend``);
        ``"time"`` composes full time-domain tensors and adds AWGN over
        them (the reference path).
    noise_mode:
        Engine-noise stream of the ``"analytic"``/``"auto"`` engines
        (see :class:`repro.core.receiver.NetScatterReceiver`):
        ``"payload"`` (default, stream version 2) draws payload noise
        only at each device's located ``±1`` bins, ``"full"`` (version
        1) reproduces the historical all-bin draws bit for bit. The
        ``"time"`` engine adds its AWGN to the waveform tensor instead,
        so its decodes are stamped ``noise_mode="none"``/version 0.
        The stream actually used is recorded on
        :attr:`NetworkMetrics.noise_mode` / ``noise_version``.
    """

    def __init__(
        self,
        deployment: Deployment,
        config: Optional[NetScatterConfig] = None,
        payload_bits: int = PAYLOAD_CRC_BITS,
        query_bits: int = QUERY_BITS_CONFIG1,
        reference_snr_scale_db: float = 0.0,
        power_control: bool = True,
        rng: RngLike = None,
        engine: str = "analytic",
        noise_mode: str = "payload",
    ) -> None:
        if engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if noise_mode not in NOISE_MODES:
            raise ConfigurationError(
                f"noise_mode must be one of {NOISE_MODES}, "
                f"got {noise_mode!r}"
            )
        if config is None:
            # The deployment experiments run all 256 devices concurrently;
            # association shifts are not reserved during the data phase.
            config = NetScatterConfig(n_association_shifts=0)
        deployment = _as_deployment(deployment)
        if deployment.n_devices > config.max_devices:
            raise ConfigurationError(
                f"deployment has {deployment.n_devices} devices; "
                f"config supports {config.max_devices}"
            )
        self._deployment = deployment
        self._config = config
        self._params = config.chirp_params
        self._payload_bits = int(payload_bits)
        self._query_bits = int(query_bits)
        self._scale_db = float(reference_snr_scale_db)
        self._power_control = bool(power_control)
        self._rng = make_rng(rng)
        self._engine = engine
        self._structure = PacketStructure(payload_bits=self._payload_bits)

        # Per-device impairment models (fixed per device, drawn per packet).
        self._timing = McuTimingModel()
        self._oscillator_bank = OscillatorBank.calibrate(
            tag_oscillator(), deployment.n_devices, self._rng
        )

        snrs = [d.uplink_snr_db + self._scale_db for d in deployment.devices]
        self._base_snrs = snrs
        self._gains_db = self._initial_power_gains(snrs)
        self._assignments = power_aware_allocation(
            [s + g for s, g in zip(snrs, self._gains_db)], config
        )
        readout = {"analytic": "analytic", "auto": "auto"}.get(
            engine, "sparse"
        )
        self._noise_mode = noise_mode
        self._receiver = NetScatterReceiver(
            config, self._assignments, readout=readout,
            noise_mode=noise_mode,
        )

    @property
    def config(self) -> NetScatterConfig:
        return self._config

    @property
    def assignments(self) -> Dict[int, int]:
        return dict(self._assignments)

    def effective_snrs_db(self) -> List[float]:
        """Per-device SNR after the power-control gain."""
        return [s + g for s, g in zip(self._base_snrs, self._gains_db)]

    def _initial_power_gains(self, snrs: Sequence[float]) -> List[float]:
        """Coarse power pre-conditioning at association.

        Strong devices back off toward the population so the network fits
        the tolerable dynamic range: each device picks the discrete gain
        (0 / -4 / -10 dB) that brings it closest to the weakest device
        plus the practical 35 dB window.
        """
        from repro.constants import (
            DYNAMIC_RANGE_PRACTICE_DB,
            POWER_GAIN_LEVELS_DB,
        )

        if not self._power_control:
            return [0.0] * len(snrs)
        floor = min(snrs)
        ceiling = floor + DYNAMIC_RANGE_PRACTICE_DB
        gains = []
        for snr in snrs:
            best_gain = 0.0
            for gain in POWER_GAIN_LEVELS_DB:
                if snr + gain <= ceiling:
                    best_gain = gain
                    break
            gains.append(best_gain)
        return gains

    # ------------------------------------------------------------------ #
    # round execution
    # ------------------------------------------------------------------ #

    def _fading_effective_snrs_db(self, n_rounds: int) -> np.ndarray:
        """``(n_rounds, n_devices)`` effective SNRs under batched fading.

        Every device's AR(1) track advances ``n_rounds`` steps in one
        vectorised pass (:func:`repro.channel.fading.step_tracks`);
        devices without a fading process keep their static SNR and
        consume no generator draws.
        """
        from repro.channel.fading import step_tracks

        devices = self._deployment.devices
        processes = [d.fading for d in devices]
        present = [p is not None for p in processes]
        tracks = np.tile(
            np.array([d.uplink_snr_db for d in devices]), (n_rounds, 1)
        )
        if any(present):
            faded = step_tracks(
                [p for p in processes if p is not None],
                FADING_ROUND_INTERVAL_S,
                n_rounds,
                self._rng,
            )
            tracks[:, np.array(present)] = faded
        # The fading track replaces the device's base SNR, while the
        # experiment-level reference scale and the power-control gain
        # ride on top.
        return tracks + self._scale_db + np.asarray(self._gains_db)[None, :]

    def _draw_batch_inputs(self, n_rounds: int, fading: bool):
        """Draw a whole batch's composition inputs in vectorised form.

        Returns ``(bins, amplitudes, phases, payload, floors)`` with
        round-major shapes. Jitter/CFO/phases/bits are always drawn as
        single ``(rounds, devices)`` batches; fading adds per-round
        amplitude rows and noise floors from the batched AR(1) tracks.
        """
        if fading:
            effective = self._fading_effective_snrs_db(n_rounds)
            floors = effective.min(axis=1)
            rel_gains_db = effective - floors[:, None]
        else:
            static = np.asarray(self.effective_snrs_db())
            floor_snr = float(static.min())
            rel_gains_db = static - floor_snr
            floors = np.full(n_rounds, floor_snr)

        n_devices = self._deployment.n_devices
        params = self._params
        delays = self._timing.sample_latencies_s(
            (n_rounds, n_devices), self._rng
        )
        delays = delays - delays.mean(axis=1, keepdims=True)
        cfos = self._oscillator_bank.offsets_hz(
            self._rng.standard_normal((n_rounds, n_devices))
        )
        shifts = np.array(
            [self._assignments[i] for i in range(n_devices)], dtype=float
        )
        bins = (
            shifts[None, :]
            - delays * params.bandwidth_hz
            + cfos * params.n_samples / params.bandwidth_hz
        )
        amplitudes = np.broadcast_to(
            10.0 ** (rel_gains_db / 20.0), (n_rounds, n_devices)
        )
        phases = self._rng.uniform(
            0.0, 2.0 * np.pi, size=(n_rounds, n_devices)
        )
        payload = self._rng.integers(
            0, 2, size=(n_rounds, self._payload_bits, n_devices)
        )
        return bins, amplitudes, phases, payload, floors

    def _run_batch(
        self, n_rounds: int, fading: bool
    ) -> Tuple[RoundsDecode, np.ndarray, np.ndarray]:
        """Compose, noise-load and decode ``n_rounds`` in one batch.

        Returns ``(decode, payload_tensor, floor_snrs)`` where ``decode``
        is the engine's :class:`RoundsDecode` and ``payload_tensor`` is
        ``(n_rounds, payload_bits, n_devices)``. The ``"analytic"`` and
        ``"auto"`` engines never materialise a waveform up front: the
        tone parameters go straight to
        :meth:`NetScatterReceiver.decode_readout` with the channel AWGN
        injected at the readout bins (under ``"auto"`` the receiver's
        planner may still synthesise the tensor when the padded FFT is
        the cheaper readout); the ``"time"`` engine composes the full
        tensor and adds time-domain noise.
        """
        bins, amplitudes, phases, payload, floors = self._draw_batch_inputs(
            n_rounds, fading
        )
        n_devices = self._deployment.n_devices
        n_preamble = self._structure.n_preamble_upchirps
        bit_tensor = np.ones(
            (n_rounds, n_preamble + self._payload_bits, n_devices)
        )
        bit_tensor[:, n_preamble:] = payload

        if self._engine in ("analytic", "auto"):
            decode = self._receiver.decode_readout(
                bins,
                amplitudes,
                phases,
                bit_tensor,
                n_preamble_upchirps=n_preamble,
                noise_snr_db=floors,
                rng=self._rng,
            )
        else:
            symbols = compose_rounds(
                self._params, bins, amplitudes, phases, bit_tensor
            )
            noisy = awgn_rounds(symbols, floors, self._rng)
            decode = self._receiver.decode_rounds(
                noisy, n_preamble_upchirps=n_preamble
            )
        return decode, payload, floors

    def run_rounds(self, n_rounds: int, fading: bool = False) -> NetworkMetrics:
        """Run several rounds and aggregate into the Fig. 17-19 metrics.

        All rounds flow through the batched decode engine; the per-round
        scoring is vectorised (a bit counts only when its device's
        preamble was detected, matching the empty bit list
        :meth:`RoundsDecode.frame` gives an undetected device).
        """
        if n_rounds < 1:
            raise ConfigurationError("need at least one round")
        decode, payload, _ = self._run_batch(n_rounds, fading)
        # The engine's columns follow the assignment order, which the
        # power-aware allocator does not keep in device-index order;
        # realign them with the payload tensor's device-index columns
        # (the inverse of the column -> device-index permutation).
        columns = np.full(self._deployment.n_devices, -1)
        columns[decode.device_ids] = np.arange(len(decode.device_ids))
        if (columns < 0).any():
            raise DecodingError(
                f"device {int(np.argmax(columns < 0))} is not in this decode"
            )
        detected = decode.detected[:, columns]  # (R, D)
        match = decode.bits[:, :, columns] == payload.astype(np.uint8)
        total_correct = int(np.sum(match & detected[:, None, :]))
        total_sent = int(payload.size)
        delivered = int(np.sum(detected & match.all(axis=1)))
        airtime = netscatter_round_airtime_s(
            self._config, self._query_bits, self._structure
        )
        n = self._deployment.n_devices
        delivery = delivered / (n * n_rounds)
        ber = 1.0 - total_correct / total_sent if total_sent else 0.0
        goodput_bits_per_round = (total_correct / n_rounds)
        phy_rate = goodput_bits_per_round / airtime.payload_s
        link_rate = goodput_bits_per_round / airtime.total_s
        return NetworkMetrics(
            n_devices=n,
            phy_rate_bps=phy_rate,
            link_layer_rate_bps=link_rate,
            latency_s=airtime.total_s,
            delivery_ratio=delivery,
            bit_error_rate=ber,
            goodput_bits_per_round=goodput_bits_per_round,
            backend=decode.backend,
            noise_mode=decode.noise_mode,
            noise_version=decode.noise_version,
        )


def check_device_counts(
    device_counts: Sequence[int], n_devices: int
) -> Tuple[int, ...]:
    """The sweep's device counts as ints, each in ``1..n_devices``.

    Raises :class:`ConfigurationError` for an empty list, a fractional
    count or one outside the deployment, so a sweep or a figure driver
    fails on its arguments before it draws anything.
    """
    counts = tuple(device_counts)
    if not counts or not all(
        isinstance(count, numbers.Integral) and 1 <= count <= n_devices
        for count in counts
    ):
        raise ConfigurationError(
            f"device counts must be integers in 1..{n_devices}, "
            f"got {counts!r}"
        )
    return tuple(int(count) for count in counts)


def run_sweep_point(
    deployment: Deployment,
    n_rounds: int,
    *,
    config: Optional[NetScatterConfig],
    query_bits: int,
    rng: RngLike,
    engine: str,
    noise_mode: str,
    fading: bool = False,
) -> NetworkMetrics:
    """Build one sweep point's simulator over ``deployment`` and run it.

    The one construction behind both sweep surfaces:
    :func:`sweep_device_counts` hands it each count's subset and child
    generator, and the campaign runner
    (:func:`repro.campaign.runner.execute_point`) the device prefix a
    point's descriptor names and the point's stored seed.
    """
    simulator = NetworkSimulator(
        deployment,
        config=config,
        query_bits=query_bits,
        rng=rng,
        engine=engine,
        noise_mode=noise_mode,
    )
    return simulator.run_rounds(n_rounds, fading=fading)


def sweep_device_counts(
    deployment: Deployment,
    device_counts: Sequence[int],
    config: Optional[NetScatterConfig] = None,
    n_rounds: int = 3,
    query_bits: int = QUERY_BITS_CONFIG1,
    rng: RngLike = None,
    engine: str = "analytic",
    noise_mode: str = "payload",
) -> List[NetworkMetrics]:
    """Fig. 17-19 sweep: metrics at each device count.

    All sweep points run through the selected PHY engine — by default
    the analytic Dirichlet-kernel path, under which the points share
    the cached natural-grid probe readout (and its per-bin kernel
    trigonometry) and never build time-domain operators. Per-point
    generators are derived up front from ``rng``, one
    :func:`~repro.utils.rng.child_rng` per count in sweep order, so
    each point's result depends only on its own seed. The points run
    serially in this process; ``python -m repro.campaign`` runs the
    same points over a process pool, with a store.

    Parameters
    ----------
    noise_mode:
        Engine-noise stream of every sweep point (default the
        located-bin ``"payload"`` stream; ``"full"`` pins the
        historical version-1 draws). See :class:`NetworkSimulator`.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    if noise_mode not in NOISE_MODES:
        raise ConfigurationError(
            f"noise_mode must be one of {NOISE_MODES}, got {noise_mode!r}"
        )
    deployment = _as_deployment(deployment)
    counts = check_device_counts(device_counts, deployment.n_devices)
    generator = make_rng(rng)
    point_rngs = [child_rng(generator, count) for count in counts]
    return [
        run_sweep_point(
            deployment.subset(count),
            n_rounds,
            config=config,
            query_bits=query_bits,
            rng=point_rng,
            engine=engine,
            noise_mode=noise_mode,
        )
        for count, point_rng in zip(counts, point_rngs)
    ]
