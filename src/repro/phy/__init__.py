"""Chirp spread spectrum (CSS) physical layer substrate.

This package implements the CSS machinery NetScatter builds on: chirp
symbol generation with cyclic shifts, dechirp + FFT demodulation with
zero-padding, the link-layer packet structure, the noise streams and
the sparse and analytic readouts the receiver decodes from.
"""

from repro.phy.chirp import ChirpParams, upchirp, downchirp, cyclic_shifted_upchirp
from repro.phy.demodulation import Demodulator, DechirpResult
from repro.phy.noise import estimate_noise_floor
from repro.phy.packet import PacketStructure
from repro.phy.sparse_readout import SparseReadout, dirichlet_kernel

__all__ = [
    "ChirpParams",
    "upchirp",
    "downchirp",
    "cyclic_shifted_upchirp",
    "Demodulator",
    "DechirpResult",
    "estimate_noise_floor",
    "PacketStructure",
    "SparseReadout",
    "dirichlet_kernel",
]
