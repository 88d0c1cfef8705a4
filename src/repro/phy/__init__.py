"""Chirp spread spectrum (CSS) physical layer substrate.

This package implements the CSS machinery NetScatter builds on: chirp
symbol generation with cyclic shifts, classic LoRa-style CSS modulation
(the baseline), dechirp + FFT demodulation with zero-padding, the ON-OFF
keyed per-device transmitter, the link-layer packet structure, and
packet-start synchronisation from the up/down-chirp preamble.
"""

from repro.phy.chirp import ChirpParams, upchirp, downchirp, cyclic_shifted_upchirp
from repro.phy.demodulation import Demodulator, DechirpResult
from repro.phy.modulation import CssModulator, CssDemodulator
from repro.phy.noise import estimate_noise_floor
from repro.phy.onoff import OnOffKeyedTransmitter
from repro.phy.packet import BackscatterPacket, PacketStructure
from repro.phy.sparse_readout import SparseReadout, dirichlet_kernel

__all__ = [
    "ChirpParams",
    "upchirp",
    "downchirp",
    "cyclic_shifted_upchirp",
    "Demodulator",
    "DechirpResult",
    "CssModulator",
    "CssDemodulator",
    "estimate_noise_floor",
    "OnOffKeyedTransmitter",
    "BackscatterPacket",
    "PacketStructure",
    "SparseReadout",
    "dirichlet_kernel",
]
