"""NetScatter reproduction: distributed CSS coding for large-scale
backscatter networks (Hessar, Najafi, Gollakota — NSDI 2019).

Quick start::

    from repro import NetScatterConfig, NetScatterReceiver
    from repro.core.dcss import DeviceTransmission, compose_preamble_and_payload_symbols
    from repro.channel.awgn import awgn

    config = NetScatterConfig()                  # 500 kHz, SF 9, SKIP 2
    txs = [DeviceTransmission(shift=10, bits=[1, 0, 1, 1]),
           DeviceTransmission(shift=200, bits=[0, 1, 1, 0])]
    symbols = compose_preamble_and_payload_symbols(config.chirp_params, txs)
    noisy = [awgn(s, -10.0) for s in symbols]
    receiver = NetScatterReceiver(config, {0: 10, 1: 200})
    decode = receiver.decode_fast_symbols(noisy)
    decode.bits_of(0)                            # -> [1, 0, 1, 1]

Package layout
--------------
``repro.phy``
    Chirp spread spectrum substrate (chirps, dechirp+FFT, packets,
    spectra, sparse and analytic readouts, noise streams).
``repro.channel``
    Propagation substrate (AWGN, path loss, fading, Doppler, office
    deployments).
``repro.hardware``
    Backscatter tag models (impedance switch network, oscillator, MCU
    timing, power budget, the composed device).
``repro.core``
    The paper's contribution: distributed CSS coding, the single-FFT
    concurrent receiver, power-aware allocation, power control,
    bandwidth aggregation, capacity analysis.
``repro.protocol``
    Queries, association, scheduling and the network simulator.
``repro.baselines``
    LoRa backscatter (TDMA, with/without rate adaptation), Choir and the
    multi-SF concurrency analysis.
``repro.analysis``
    Air-time accounting and report formatting.
``repro.experiments``
    Drivers that regenerate every table and figure of the evaluation.
"""

from repro.core.allocation import AllocationTable, power_aware_allocation
from repro.core.config import NetScatterConfig, TABLE1_CONFIGS
from repro.core.receiver import NetScatterReceiver
from repro.errors import ReproError
from repro.phy.chirp import ChirpParams

__version__ = "1.0.0"

__all__ = [
    "AllocationTable",
    "power_aware_allocation",
    "NetScatterConfig",
    "TABLE1_CONFIGS",
    "NetScatterReceiver",
    "ReproError",
    "ChirpParams",
    "__version__",
]
