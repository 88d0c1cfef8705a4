"""Noise-free rounds near full occupancy: a known defect of the peak search.

Every assigned device transmits on an integer bin of the SKIP grid
(SF 9, SKIP 2, so 256 slots; 128 devices fill a run of adjacent slots
from a random first one, 256 fill them all) with a random phase and unit
amplitude, and no noise is added. The tones are then orthogonal on the natural grid,
so a correct receiver detects every device and decodes every bit. The
engine does not: it locates each device's peak as the argmax of summed
preamble power on the zero-padded grid inside its window, and near full
occupancy the neighbours' sidelobes add between natural bins, so the
located peak drifts and some payload bits err.

The test scores the decode against ground truth, on the ``fft`` backend
(a symbol tensor through ``decode_rounds``) and on the closed-form
analytic path (``decode_readout``), and is a strict xfail until the peak
search is mended (ROADMAP item 4). Run this file as a script to print,
by occupancy and path, the detection miss rate, the payload false-alarm
rate (OFF symbols read as 1) and the noise-free BER:

    PYTHONPATH=src python tests/test_full_occupancy.py
"""

import numpy as np
import pytest

from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.receiver import NetScatterReceiver

OCCUPANCIES = (128, 256)
SEEDS = (1, 2, 3, 4)
N_ROUNDS = 4
N_PREAMBLE = 6
N_PAYLOAD = 40
PATHS = ("fft", "analytic")


def _round_batch(n_devices, seed):
    """A receiver and its noise-free tone batch on integer grid bins."""
    config = NetScatterConfig(
        spreading_factor=9, skip=2, n_association_shifts=0
    )
    rng = np.random.default_rng(seed)
    n_slots = config.n_bins // config.skip
    slots = (rng.integers(n_slots) + np.arange(n_devices)) % n_slots
    shifts = slots * config.skip
    bins = np.tile(shifts.astype(float), (N_ROUNDS, 1))
    amplitudes = np.ones((N_ROUNDS, n_devices))
    phases = rng.uniform(0.0, 2.0 * np.pi, (N_ROUNDS, n_devices))
    bits = np.ones((N_ROUNDS, N_PREAMBLE + N_PAYLOAD, n_devices))
    bits[:, N_PREAMBLE:] = rng.integers(
        0, 2, (N_ROUNDS, N_PAYLOAD, n_devices)
    )
    return config, dict(enumerate(shifts.tolist())), (
        bins, amplitudes, phases, bits,
    )


def _decode(path, config, assignments, batch):
    if path == "fft":
        symbols = compose_rounds(
            config.chirp_params, *batch, respread=False
        )
        receiver = NetScatterReceiver(config, assignments, readout="fft")
        decode = receiver.decode_rounds(
            symbols, n_preamble_upchirps=N_PREAMBLE, dechirped=True
        )
    else:
        receiver = NetScatterReceiver(
            config, assignments, readout="analytic"
        )
        decode = receiver.decode_readout(
            *batch, n_preamble_upchirps=N_PREAMBLE
        )
    assert decode.backend == path
    return decode


def _occupancy_scores(path, n_devices):
    """Detection misses, payload false alarms and bit errors, with their
    bases, over every seed's rounds at one occupancy."""
    misses = false_alarms = errors = offs = 0
    for seed in SEEDS:
        config, assignments, batch = _round_batch(n_devices, seed)
        decode = _decode(path, config, assignments, batch)
        sent = batch[-1][:, N_PREAMBLE:].astype(np.uint8)
        misses += int((~decode.detected).sum())
        false_alarms += int(((sent == 0) & (decode.bits == 1)).sum())
        errors += int((sent != decode.bits).sum())
        offs += int((sent == 0).sum())
    device_rounds = len(SEEDS) * N_ROUNDS * n_devices
    return {
        "miss_rate": misses / device_rounds,
        "false_alarm_rate": false_alarms / offs,
        "ber": errors / (device_rounds * N_PAYLOAD),
        "bit_errors": errors,
        "bits": device_rounds * N_PAYLOAD,
    }


def _table(path):
    rows = [(n, _occupancy_scores(path, n)) for n in OCCUPANCIES]
    for n, s in rows:
        print(
            f"{path:>8} {n:>4} devices: miss {s['miss_rate']:.2%}, "
            f"false alarm {s['false_alarm_rate']:.2e}, "
            f"BER {s['ber']:.2e} ({s['bit_errors']} / {s['bits']})"
        )
    return rows


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the padded-grid peak search is pulled by neighbours' sidelobes "
        "near full occupancy, so noise-free bits err (ROADMAP item 4)"
    ),
)
@pytest.mark.parametrize("path", PATHS)
def test_noise_free_rounds_decode_exactly_near_full_occupancy(path):
    for n, scores in _table(path):
        assert scores["miss_rate"] == 0.0, n
        assert scores["bit_errors"] == 0, n


if __name__ == "__main__":
    for path in PATHS:
        _table(path)
