"""The abstract's headline windows, read off the Fig. 18 and Fig. 19 runs.

The abstract claims 14-62x link-layer throughput gains and 15-67x latency
reductions over prior long-range backscatter (LoRa backscatter, fixed
rate and rate-adapted, configs 1 and 2), with 1-2 orders of magnitude
more concurrency. Figs. 18 and 19 print those four ratios each at 256
devices; here the smallest and largest of them must bracket the
abstract's windows.
"""

import pytest

from repro.channel.deployment import paper_deployment
from repro.experiments import fig18_linklayer, fig19_latency

#: The abstract's windows: (low, high).
THROUGHPUT_GAIN = (14.0, 62.0)
LATENCY_REDUCTION = (15.0, 67.0)
COUNTS = (1, 256)


@pytest.fixture(scope="module")
def ratios():
    """The four 256-device ratios of each figure, from one deployment."""
    deployment = paper_deployment(rng=77)
    fig18 = fig18_linklayer.run(deployment, COUNTS, n_rounds=2, rng=78).rows[-1]
    fig19 = fig19_latency.run(deployment, COUNTS, rng=78).rows[-1]
    gains = [
        fig18[f"netscatter_cfg{c}_kbps"] / fig18[f"lora_{s}_kbps"]
        for c in (1, 2) for s in ("fixed", "ra")
    ]
    reductions = [
        fig19[f"lora_{s}_ms"] / fig19[f"netscatter_cfg{c}_ms"]
        for c in (1, 2) for s in ("fixed", "ra")
    ]
    return {"n_devices": fig18["n_devices"], "gains": gains, "reductions": reductions}


def _within_2x(measured, paper):
    return paper / 2.0 <= measured <= paper * 2.0


class TestAbstractClaims:
    def test_throughput_window_within_2x_of_paper(self, ratios):
        low, high = THROUGHPUT_GAIN
        assert _within_2x(min(ratios["gains"]), low), ratios
        assert _within_2x(max(ratios["gains"]), high), ratios

    def test_latency_window_within_2x_of_paper(self, ratios):
        low, high = LATENCY_REDUCTION
        assert _within_2x(min(ratios["reductions"]), low), ratios
        assert _within_2x(max(ratios["reductions"]), high), ratios

    def test_high_end_near_67x(self, ratios):
        assert max(ratios["reductions"]) == pytest.approx(LATENCY_REDUCTION[1], rel=0.25)

    def test_orders_of_magnitude_concurrency(self, ratios):
        """The abstract's '1-2 orders of magnitude higher transmission
        concurrency': 256 concurrent devices vs the 1-2 of prior
        backscatter systems and the 5-10 of Choir/FlipTracer."""
        assert ratios["n_devices"] / 10 >= 25  # vs Choir's ~10
        assert ratios["n_devices"] / 2 >= 100  # vs prior backscatter
