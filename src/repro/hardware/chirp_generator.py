"""Digital chirp generator: the tag's FPGA/ASIC baseband block.

Section 4.1: the tag synthesises its chirp with a phase-accumulator
driving 1-bit (square-wave) I/Q outputs into the switch network — not a
DAC. This model reproduces that chain:

* an ``acc_bits``-wide phase accumulator stepped by a quadratically
  increasing frequency word (the chirp), including the cyclic-shift
  start offset and the 3 MHz self-interference offset;
* hard-limited (sign) I/Q outputs — the square wave physically toggling
  the antenna switch;
* the square wave's odd harmonics (3rd at -9.5 dB, 5th at -14 dB),
  which the paper's cascaded-switch network is designed to cancel.

The receiver only sees the fundamental (the harmonics fall out of band
or are cancelled), which is why the rest of the library models the
transmitted chirp as the ideal complex exponential; this module exists
to *verify* that idealisation and to quantify the quantisation floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HardwareModelError
from repro.phy.chirp import ChirpParams, cyclic_shifted_upchirp


@dataclass(frozen=True)
class ChirpGenerator:
    """Phase-accumulator chirp synthesis with 1-bit I/Q output.

    Attributes
    ----------
    params:
        Chirp bandwidth / spreading factor to synthesise.
    acc_bits:
        Phase accumulator width; 16-24 bits are typical for tiny FPGAs.
    clock_multiplier:
        Accumulator clock as a multiple of the chirp bandwidth (the
        IGLOO nano runs well above the 500 kHz baseband).
    """

    params: ChirpParams
    acc_bits: int = 20
    clock_multiplier: int = 8

    def __post_init__(self) -> None:
        if not 4 <= self.acc_bits <= 48:
            raise HardwareModelError("acc_bits must be in [4, 48]")
        if self.clock_multiplier < 1:
            raise HardwareModelError("clock multiplier must be >= 1")

    def phase_track(self, shift: int = 0) -> np.ndarray:
        """Accumulated phase (radians) over one symbol at the clock rate.

        The accumulator integrates a linearly increasing frequency word;
        a cyclic shift enters as the starting frequency (mod BW), which
        is exactly how the paper's Verilog "generates the assigned cyclic
        shift with required frequency offset".
        """
        n_clock = self.params.n_samples * self.clock_multiplier
        modulus = 2**self.acc_bits
        # Instantaneous frequency in cycles/clock, quantised to the
        # accumulator grid each step.
        t = np.arange(n_clock)
        n = self.params.n_samples
        freq_cycles = (
            ((t / self.clock_multiplier + shift) % n) / n
        ) / self.clock_multiplier
        words = np.round(freq_cycles * modulus).astype(np.int64)
        acc = np.cumsum(words) % modulus
        return 2.0 * np.pi * acc / modulus

    def square_wave_iq(self, shift: int = 0) -> np.ndarray:
        """The 1-bit I/Q waveform the switch network actually emits."""
        phase = self.phase_track(shift)
        return np.sign(np.cos(phase)) + 1j * np.sign(np.sin(phase))

    def fundamental(self, shift: int = 0) -> np.ndarray:
        """Critical-rate fundamental of the square wave.

        Decimates the clock-rate square wave back to the symbol grid;
        the 4/pi fundamental amplitude is normalised out so the result
        is directly comparable to the ideal chirp.
        """
        square = self.square_wave_iq(shift)
        critical = square[:: self.clock_multiplier]
        return critical * (np.pi / 4.0) / np.sqrt(2.0)

    def fidelity_db(self, shift: int = 0) -> float:
        """Correlation of the synthesised chirp against the ideal one.

        Returns the power ratio (dB) of the matched projection onto the
        ideal cyclic-shifted chirp — the quantisation + harmonic floor.
        0 dB would be a perfect chirp; the 1-bit square wave correlates
        at about -1 dB at the fundamental (the 4/pi harvest minus
        harmonic leakage).
        """
        synthesised = self.fundamental(shift)
        ideal = np.asarray(cyclic_shifted_upchirp(self.params, shift))
        projection = np.vdot(ideal, synthesised) / np.sqrt(
            np.vdot(ideal, ideal).real
            * np.vdot(synthesised, synthesised).real
        )
        magnitude = abs(projection)
        if magnitude <= 0:
            return float("-inf")
        return float(20.0 * np.log10(magnitude))

    def harmonic_levels_db(self, n_harmonics: int = 5) -> dict:
        """Relative levels of the square wave's odd harmonics.

        An ideal square wave carries its k-th odd harmonic at
        ``20*log10(1/k)`` relative to the fundamental (-9.5 dB at k=3,
        -14 dB at k=5); these are what the cascaded ADG904 network in
        the paper cancels before the antenna.
        """
        levels = {}
        for k in range(3, 2 * n_harmonics + 2, 2):
            levels[k] = float(20.0 * np.log10(1.0 / k))
        return levels


def decode_through_generator(
    params: ChirpParams, shift: int, acc_bits: int = 20
) -> int:
    """End-to-end check: decode a generator-synthesised chirp.

    Returns the classic-CSS decision on the square-wave fundamental;
    equals ``shift`` when the quantisation floor is adequate — the test
    that justifies modelling tags as ideal chirp sources elsewhere.
    """
    from repro.phy.demodulation import Demodulator

    generator = ChirpGenerator(params=params, acc_bits=acc_bits)
    return Demodulator(params).classic_decode(generator.fundamental(shift))
