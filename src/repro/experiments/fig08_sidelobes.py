"""Fig. 8 — normalised power spectrum of a zero-padded dechirped chirp.

The figure shows the main lobe and sinc side lobes of a single chirp
transmission on the interpolated FFT grid, annotated with the side-lobe
levels at the SKIP = 2 (-13 dB) and SKIP = 3 (-21 dB) neighbour
positions. Those two levels are the whole near-far story in one plot.
"""

from __future__ import annotations

from typing import Optional

from repro.constants import SIDE_LOBE_SKIP2_DB, SIDE_LOBE_SKIP3_DB
from repro.core.config import NetScatterConfig
from repro.experiments.common import ExperimentResult
from repro.phy.spectrum import dirichlet_side_lobe_db, side_lobe_profile


def run(
    config: Optional[NetScatterConfig] = None,
    max_offset_bins: float = 8.0,
    grid_step_bins: float = 0.1,
) -> ExperimentResult:
    """Trace the side-lobe profile near the peak and check the landmarks."""
    if config is None:
        config = NetScatterConfig()
    profile = side_lobe_profile(
        config.chirp_params, config.zero_pad_factor
    )

    result = ExperimentResult(
        experiment_id="fig08",
        title="Normalised power spectrum of one dechirped chirp "
        "(zero-padded FFT)",
        columns=["offset_bins", "power_db", "dirichlet_db"],
    )
    steps = int(round(max_offset_bins / grid_step_bins))
    for i in range(steps + 1):
        offset = i * grid_step_bins
        result.rows.append(
            {
                "offset_bins": offset,
                "power_db": profile.at_natural_bin(offset),
                "dirichlet_db": dirichlet_side_lobe_db(
                    offset, config.n_bins
                ),
            }
        )

    # The paper's annotations mark sinc side-lobe levels: the -13 dB
    # star at the SKIP = 2 position is the first side lobe (offset
    # ~1.43 bins, -13.3 dB) and the -21 dB star at SKIP = 3 is the third
    # lobe (~3.47 bins, -20.8 dB). We verify both lobes, plus the
    # worst-case exposure over each neighbour's residual-offset window
    # (which for SKIP = 3 is bounded by the second lobe at -17.8 dB —
    # slightly more conservative than the annotation).
    lobe1 = profile.worst_in_range(1.0, 2.0)
    lobe3 = profile.worst_in_range(3.0, 4.0)
    skip2_window = profile.worst_in_range(1.5, 2.5)
    skip3_window = profile.worst_in_range(2.5, 3.5)
    result.check(
        "first side lobe about -13 dB (paper's SKIP=2 annotation)",
        abs(lobe1 - SIDE_LOBE_SKIP2_DB) < 1.0,
    )
    result.check(
        "third side lobe about -21 dB (paper's SKIP=3 annotation)",
        abs(lobe3 - SIDE_LOBE_SKIP3_DB) < 1.0,
    )
    result.check(
        "side lobes decay with distance",
        profile.worst_side_lobe_beyond(16.0)
        < profile.worst_side_lobe_beyond(4.0)
        < profile.worst_side_lobe_beyond(1.1),
    )
    result.check(
        "SKIP=3 worst-case exposure better than SKIP=2's",
        skip3_window < skip2_window - 3.0,
    )
    result.notes.append(
        f"lobe levels: first {lobe1:.1f} dB, third {lobe3:.1f} dB "
        f"(paper annotations {SIDE_LOBE_SKIP2_DB:.0f} / "
        f"{SIDE_LOBE_SKIP3_DB:.0f} dB); window exposures: SKIP=2 "
        f"{skip2_window:.1f} dB, SKIP=3 {skip3_window:.1f} dB"
    )
    return result
