"""Tier-1 wall-clock guard for the analytic network fast path.

A coarse budget assertion (not a benchmark): the quick Fig. 17 sweep
must stay well under a generous wall-clock ceiling, so a future change
that silently re-materialises waveforms, rebuilds operators per round
or otherwise regresses the analytic engine fails loudly here. The
second guard deploys a 10^4-device office population and scores one
hybrid-fidelity schedule cycle, so the population path cannot silently
regress either. Both budgets sit several times above the measured
cost, so they hold on shared CI runners and on one CPU; the tier-1
command runs them everywhere.
"""

import time

from repro.channel.deployment import paper_deployment
from repro.core.config import NetScatterConfig
from repro.protocol.network import sweep_device_counts
from repro.protocol.population import (
    hybrid_population_round,
    office_population,
)

#: Generous ceiling (seconds) for the quick sweep below. The analytic
#: engine runs it in well under a second on a single modest core; the
#: pre-engine time-domain path took several times longer.
BUDGET_S = 6.0

#: Ceiling (seconds) for deploying and scoring the 10^4-device cycle
#: below: about 8x its 0.17-0.24 s on a 2-vCPU host, on one or two CPUs.
POPULATION_BUDGET_S = 2.0


def test_fig17_quick_sweep_within_budget():
    deployment = paper_deployment(n_devices=128, rng=2026)
    config = NetScatterConfig(n_association_shifts=0)
    start = time.perf_counter()
    metrics = sweep_device_counts(
        deployment,
        (1, 16, 64, 128),
        config=config,
        n_rounds=3,
        rng=17,
        engine="analytic",
    )
    elapsed = time.perf_counter() - start
    assert [m.n_devices for m in metrics] == [1, 16, 64, 128]
    assert elapsed < BUDGET_S, (
        f"analytic fig17 quick sweep took {elapsed:.2f}s "
        f"(budget {BUDGET_S}s) — the fast path has regressed"
    )


def test_population_1e4_cycle_within_budget():
    """Deploy and score one hybrid cycle over 10^4 devices in budget."""
    start = time.perf_counter()
    population = office_population(10_000, rng=101, snr_scale_db=-26.0)
    result = hybrid_population_round(population, seed=11)
    elapsed = time.perf_counter() - start
    assert result.n_devices == 10_000
    assert (
        result.n_closed_form_groups + result.n_monte_carlo_groups
        == result.n_groups
    )
    assert 0.0 <= result.delivery_ratio <= 1.0
    assert elapsed < POPULATION_BUDGET_S, (
        f"10^4-device hybrid cycle took {elapsed:.2f}s "
        f"(budget {POPULATION_BUDGET_S}s) — the population path has "
        "regressed"
    )
