"""Statistics helpers for BER counting and CDF-style paper figures.

Most NetScatter evaluation figures are empirical CDFs (Figs. 4, 9, 14) or
complementary CDFs on log axes (Figs. 14b, 15a). These helpers turn raw
sample arrays into the (x, y) series the experiment reports print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ReproError


def cdf_at(samples: Sequence[float], threshold: float) -> float:
    """Fraction of samples <= ``threshold``."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ReproError("cannot evaluate CDF of an empty sample set")
    return float(np.mean(data <= threshold))


@dataclass(frozen=True)
class BerEstimate:
    """A bit-error-rate estimate with a Wilson confidence interval."""

    errors: int
    trials: int
    ber: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return (
            f"BER {self.ber:.3e} ({self.errors}/{self.trials}, "
            f"95% CI [{self.ci_low:.3e}, {self.ci_high:.3e}])"
        )


def ber_estimate(errors: int, trials: int, z: float = 1.96) -> BerEstimate:
    """Wilson-score BER estimate.

    The Wilson interval behaves sensibly at zero errors, which matters for
    the paper's 1e-4 floor over 1e4 symbols.
    """
    if trials <= 0:
        raise ReproError("trials must be positive")
    if errors < 0 or errors > trials:
        raise ReproError("errors must lie in [0, trials]")
    p_hat = errors / trials
    denom = 1.0 + z**2 / trials
    centre = (p_hat + z**2 / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return BerEstimate(
        errors=errors,
        trials=trials,
        ber=p_hat,
        ci_low=max(0.0, centre - margin),
        ci_high=min(1.0, centre + margin),
    )
