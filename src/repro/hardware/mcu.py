"""MCU / FPGA timing model: the hardware-delay jitter source.

Section 3.2.1: the dominant synchronisation error is the variable latency
between the envelope detector hearing the query and the FPGA starting the
chirp — up to ~3.5 us on the paper's MSP430 + IGLOO nano chain, more than
one FFT bin at 500 kHz. This model decomposes the latency into its stages
so per-packet draws have realistic structure, and exposes the bin-shift
the decoder experiences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HardwareModelError
from repro.phy.chirp import ChirpParams
from repro.utils.conversions import timing_offset_to_bins
from repro.utils.rng import RngLike, make_rng


@dataclass(frozen=True)
class McuTimingModel:
    """Per-packet turnaround latency of the tag's digital chain.

    The latency is the sum of three stages, each with a fixed part and a
    uniform jitter part (interrupt latencies and clock-domain crossings
    are bounded-uniform, not Gaussian):

    * envelope detector settling + comparator,
    * MCU interrupt entry and query parsing,
    * FPGA chirp-generator start (clock-domain crossing).

    An occasional "glitch" (a missed interrupt slot / flash wait state,
    ``glitch_probability`` per packet) adds up to ``glitch_extra_s`` more,
    which produces the heavy tail of Fig. 14b and the paper's quoted
    3.5 us worst case; ordinary packets stay within ~0.5 FFT bins of the
    mean at 500 kHz, matching the measured residual distribution.
    """

    detector_fixed_s: float = 0.3e-6
    detector_jitter_s: float = 0.2e-6
    mcu_fixed_s: float = 0.5e-6
    mcu_jitter_s: float = 0.6e-6
    fpga_fixed_s: float = 0.2e-6
    fpga_jitter_s: float = 0.3e-6
    glitch_probability: float = 0.01
    glitch_extra_s: float = 1.4e-6

    def __post_init__(self) -> None:
        for name in (
            "detector_fixed_s",
            "detector_jitter_s",
            "mcu_fixed_s",
            "mcu_jitter_s",
            "fpga_fixed_s",
            "fpga_jitter_s",
        ):
            if getattr(self, name) < 0:
                raise HardwareModelError(f"{name} must be non-negative")

    @property
    def min_latency_s(self) -> float:
        """Smallest possible turnaround latency."""
        return self.detector_fixed_s + self.mcu_fixed_s + self.fpga_fixed_s

    @property
    def max_latency_s(self) -> float:
        """Largest possible turnaround latency (paper: ~3.5 us total)."""
        return (
            self.min_latency_s
            + self.detector_jitter_s
            + self.mcu_jitter_s
            + self.fpga_jitter_s
            + (self.glitch_extra_s if self.glitch_probability > 0 else 0.0)
        )

    @property
    def jitter_span_s(self) -> float:
        """Packet-to-packet variation span (max - min)."""
        return self.max_latency_s - self.min_latency_s

    def sample_latency_s(self, rng: RngLike = None) -> float:
        """Draw one per-packet turnaround latency (seconds)."""
        generator = make_rng(rng)
        latency = self.min_latency_s
        for jitter in (
            self.detector_jitter_s,
            self.mcu_jitter_s,
            self.fpga_jitter_s,
        ):
            if jitter > 0:
                latency += float(generator.uniform(0.0, jitter))
        if self.glitch_probability > 0 and (
            generator.uniform() < self.glitch_probability
        ):
            latency += float(generator.uniform(0.0, self.glitch_extra_s))
        return latency

    def jitter_bins(self, params: ChirpParams) -> float:
        """Worst-case packet-to-packet bin wobble at this bandwidth.

        This (not the absolute latency) is what SKIP must absorb: the AP
        learns each device's *mean* offset from the preamble, but the
        per-packet wobble around it cannot be calibrated out.
        """
        return timing_offset_to_bins(self.jitter_span_s, params.bandwidth_hz)

    def sample_latencies_s(self, n, rng: RngLike = None) -> np.ndarray:
        """Independent per-packet latency draws, vectorised.

        ``n`` is a count or a shape tuple (the network simulator draws a
        whole ``(rounds, devices)`` batch at once). The stage jitters and
        the glitch tail are drawn as whole arrays instead of a Python
        loop of per-stage calls — same distribution, two orders of
        magnitude fewer ``Generator`` invocations.
        """
        shape = (int(n),) if np.isscalar(n) else tuple(int(s) for s in n)
        if any(s < 1 for s in shape) or not shape:
            raise HardwareModelError("need at least one draw")
        generator = make_rng(rng)
        latency = np.full(shape, self.min_latency_s)
        for jitter in (
            self.detector_jitter_s,
            self.mcu_jitter_s,
            self.fpga_jitter_s,
        ):
            if jitter > 0:
                latency += generator.uniform(0.0, jitter, size=shape)
        if self.glitch_probability > 0:
            glitched = generator.uniform(size=shape) < self.glitch_probability
            latency += np.where(
                glitched,
                generator.uniform(0.0, self.glitch_extra_s, size=shape),
                0.0,
            )
        return latency
