"""Benches for the extension experiments beyond the paper's figures.

* Fig. 10 association flow at waveform level,
* the executable NetScatter-vs-Choir head-to-head (Section 2.2 made
  runnable).

The waveform-path vs fast-path cross-validation is a tier-1 test of
``tests/waveform_oracle.py`` (``tests/test_channel_simulator.py``).
"""

from benchmarks.conftest import emit
from repro.experiments import choir_comparison, fig10_association


def test_fig10_association_flow(benchmark):
    """Fig. 10: join-while-transmitting, request -> grant -> ACK."""
    result = benchmark(fig10_association.run, n_trials=8, rng=10)
    emit(result)


def test_choir_head_to_head(benchmark):
    """Section 2.2 executable: Choir collapses where NetScatter scales."""
    result = benchmark(choir_comparison.run, n_rounds=300, rng=22)
    emit(result)


def test_group_scaling(benchmark):
    """Extension: populations beyond one round's concurrency ceiling."""
    from repro.experiments import group_scaling

    result = benchmark(group_scaling.run, rng=5)
    emit(result)


def test_network_session_dynamics(benchmark):
    """Extension: the Section 3.2.3/3.3.2 closed loop over 40 fading
    rounds — power steps, sit-outs, re-association, reassignment
    queries — while the network keeps delivering."""
    from repro.channel.deployment import paper_deployment
    from repro.protocol.session import NetworkSession

    def run():
        deployment = paper_deployment(n_devices=64, rng=8)
        session = NetworkSession(
            deployment=deployment, fading_std_db=3.0, rng=9
        )
        return session.run(40)

    stats = benchmark(run)
    print(
        f"\n[extension:session] delivery={stats.mean_delivery:.3f} "
        f"participation={stats.mean_participation:.3f} "
        f"power-steps={stats.power_steps} "
        f"reassociations={stats.reassociations} "
        f"reassignment-queries={stats.reassignment_queries}"
    )
    assert stats.mean_delivery > 0.8
    assert stats.power_steps > 0
