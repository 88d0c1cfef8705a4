"""Table 1 — NetScatter modulation configurations.

For six (BW, SF) operating points the paper tabulates the tolerable
timing and frequency mismatch, the per-device bitrate and the receive
sensitivity. All four columns are derived quantities; this driver
recomputes them and checks them against the paper's printed values.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.config import TABLE1_CONFIGS
from repro.experiments.common import ExperimentResult

# The paper's printed rows: (BW kHz, SF) -> (dt us, df Hz, bps, dBm).
PAPER_ROWS: Dict[Tuple[int, int], Tuple[float, float, float, float]] = {
    (500, 9): (2.0, 976.0, 976.0, -123.0),
    (500, 8): (2.0, 1953.0, 1953.0, -120.0),
    (250, 8): (4.0, 976.0, 976.0, -123.0),
    (250, 7): (4.0, 1953.0, 1953.0, -120.0),
    (125, 7): (8.0, 976.0, 976.0, -123.0),
    (125, 6): (8.0, 1953.0, 1953.0, -118.0),
}

SENSITIVITY_TOLERANCE_DB = 4.5
"""Sensitivity depends on the assumed noise figure and demodulator SNR
limits; we allow a few dB of modelling slack against the printed column
(the (125 kHz, SF 6) row differs most)."""


def run() -> ExperimentResult:
    """Recompute Table 1 and compare with the paper's values."""
    result = ExperimentResult(
        experiment_id="table1",
        title="NetScatter modulation configurations",
        columns=[
            "bw_khz",
            "sf",
            "time_tolerance_us",
            "freq_tolerance_hz",
            "bitrate_bps",
            "sensitivity_dbm",
            "paper_sensitivity_dbm",
        ],
    )
    all_rate_match = True
    all_tolerance_match = True
    all_sensitivity_close = True
    for config in TABLE1_CONFIGS:
        key = (int(config.bandwidth_hz / 1e3), config.spreading_factor)
        paper = PAPER_ROWS[key]
        dt_us = config.tolerable_timing_mismatch_s * 1e6
        df_hz = config.tolerable_frequency_mismatch_hz
        rate = config.device_bitrate_bps
        sens = config.sensitivity_dbm
        result.rows.append(
            {
                "bw_khz": key[0],
                "sf": key[1],
                "time_tolerance_us": dt_us,
                "freq_tolerance_hz": df_hz,
                "bitrate_bps": rate,
                "sensitivity_dbm": sens,
                "paper_sensitivity_dbm": paper[3],
            }
        )
        all_tolerance_match &= abs(dt_us - paper[0]) < 0.01
        all_tolerance_match &= abs(df_hz - paper[1]) < 2.0
        all_rate_match &= abs(rate - paper[2]) < 2.0
        all_sensitivity_close &= (
            abs(sens - paper[3]) <= SENSITIVITY_TOLERANCE_DB
        )
    result.check("timing/frequency tolerances match the paper", all_tolerance_match)
    result.check("per-device bitrates match the paper", all_rate_match)
    result.check(
        f"sensitivities within {SENSITIVITY_TOLERANCE_DB} dB of the paper",
        all_sensitivity_close,
    )
    return result
