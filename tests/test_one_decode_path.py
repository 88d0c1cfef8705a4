"""Every single-frame decode runs the engine's span loop and decision rule.

``decode_fast_symbols`` decodes its frame as one round on the ``fft``
path, so on any input it equals ``decode_rounds(x[None]).frame(0)``:
bit for bit on an ``fft`` receiver, and in every decision on the default
``sparse`` one. The per-symbol decoder of ``per_symbol_oracle`` is the
slow executable spec of the same rule. Its bits equal the engine's
wherever both detect. Its detection can differ where the two noise
floors differ, and most of that is at full occupancy, where both fall
back to a quantile of different sample sets.

The tests run a subset of a seeded grid: spreading factors 7 and 9, one
device up to full occupancy, -20..10 dB and 0-20 dB of near-far spread.
The subset holds full-occupancy cases where the two entry points used to
disagree on detection. Run this file as a script to sweep the whole
grid and print the detection disagreement rate against the oracle:

    PYTHONPATH=src python tests/test_one_decode_path.py
"""

import numpy as np
import pytest

import per_symbol_oracle as oracle
from repro.channel.awgn import awgn
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_rounds
from repro.core.receiver import NetScatterReceiver

#: Device counts per spreading factor; the last is full occupancy.
COUNTS = {7: (1, 2, 4, 8, 16, 32, 64), 9: (1, 4, 16, 64, 128, 256)}
SNRS_DB = (-20, -15, -10, -5, 0, 5, 10)
NEAR_FAR_DB = (0, 10, 20)
GRID = [
    (sf, n, snr, near_far)
    for sf, counts in COUNTS.items()
    for n in counts
    for snr in SNRS_DB
    for near_far in NEAR_FAR_DB
]
#: The tier-1 subset. ``(7, 64, -10, 0)`` and ``(9, 256, -20, 10)`` are
#: full-occupancy cases where the fast-symbol and round-matrix decodes
#: disagreed on 7 and 19 devices.
TIER1 = [
    (7, n, snr, near_far)
    for n in (1, 8, 64)
    for snr, near_far in ((-10, 0), (10, 20))
] + [(9, 16, -5, 10), (9, 256, -20, 10)]


def grid_case(sf, n_devices, snr_db, near_far_db, seed=0, n_payload=10):
    """One noisy round: ``(receiver config, assignments, symbols)``."""
    config = NetScatterConfig(spreading_factor=sf, n_association_shifts=0)
    rng = np.random.default_rng([seed, sf, n_devices, snr_db + 100,
                                 near_far_db])
    slots = config.n_bins // config.skip
    shifts = np.sort(rng.choice(slots, n_devices, replace=False)) * config.skip
    bins = shifts + rng.uniform(-0.3, 0.3, n_devices)
    amps = 10.0 ** (rng.uniform(0, near_far_db, n_devices) / 20.0)
    phases = rng.uniform(0, 2 * np.pi, n_devices)
    bits = np.vstack(
        [np.ones((6, n_devices)), rng.integers(0, 2, (n_payload, n_devices))]
    )
    symbols = compose_rounds(
        config.chirp_params, bins[None], amps[None], phases[None], bits[None]
    )[0]
    noisy = awgn(symbols, float(snr_db), rng)
    return config, dict(enumerate(shifts.tolist())), noisy


def oracle_disagreements(case):
    """``(devices, detection disagreements, bit disagreements)``.

    Bits count only where both the engine and the oracle detect.
    """
    config, assignments, symbols = grid_case(*case)
    receiver = NetScatterReceiver(config, assignments)
    engine = receiver.decode_fast_symbols(symbols)
    spec = oracle.decode_fast_symbols(receiver, list(symbols))
    detection = bits = 0
    for device_id in assignments:
        ours, theirs = engine.devices[device_id], spec.devices[device_id]
        detection += ours.detected != theirs.detected
        bits += ours.detected and theirs.detected and ours.bits != theirs.bits
    return len(assignments), detection, bits


@pytest.mark.parametrize("case", TIER1, ids=str)
def test_fast_symbols_equal_the_one_round_batch_decode(case):
    config, assignments, symbols = grid_case(*case)
    receiver = NetScatterReceiver(config, assignments)
    fast = receiver.decode_fast_symbols(symbols)
    batch = receiver.decode_rounds(symbols[None]).frame(0)
    for device_id in assignments:
        ours, theirs = fast.devices[device_id], batch.devices[device_id]
        assert ours.detected == theirs.detected, device_id
        assert ours.bits == theirs.bits, device_id
        assert ours.preamble_power == pytest.approx(theirs.preamble_power)
        assert ours.noise_power == pytest.approx(theirs.noise_power)
    fft_receiver = NetScatterReceiver(config, assignments, readout="fft")
    assert fft_receiver.decode_rounds(symbols[None]).frame(0) == fast


@pytest.mark.parametrize("case", TIER1, ids=str)
def test_bits_equal_the_oracle_where_both_detect(case):
    devices, detection, bits = oracle_disagreements(case)
    print(f"{case}: detection differs on {detection} of {devices} devices")
    assert bits == 0


def main():
    totals = np.zeros(3, dtype=int)
    full = np.zeros(3, dtype=int)
    for case in GRID:
        counts = np.array(oracle_disagreements(case))
        totals += counts
        if case[1] == COUNTS[case[0]][-1]:
            full += counts
    devices, detection, bits = totals
    print(
        f"{len(GRID)} rounds, {devices} devices: detection differs from "
        f"the oracle on {detection} ({detection / devices:.2%}), "
        f"{full[1]} of them at full occupancy; bits differ where both "
        f"detect on {bits}"
    )


if __name__ == "__main__":
    main()
