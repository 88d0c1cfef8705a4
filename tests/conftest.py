"""Shared fixtures for the NetScatter reproduction test suite."""

import numpy as np
import pytest

from repro.core.config import NetScatterConfig
from repro.phy.chirp import ChirpParams


@pytest.fixture
def rng():
    """Deterministic generator; tests must not depend on global state."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def params():
    """The deployment chirp parameters (500 kHz, SF 9)."""
    return ChirpParams(bandwidth_hz=500e3, spreading_factor=9)


@pytest.fixture
def small_params():
    """A small symbol (SF 6) for tests where speed matters."""
    return ChirpParams(bandwidth_hz=125e3, spreading_factor=6)


@pytest.fixture
def config():
    """The deployment NetScatter configuration."""
    return NetScatterConfig()


@pytest.fixture
def small_config():
    """A small configuration for fast end-to-end tests."""
    return NetScatterConfig(
        bandwidth_hz=125e3, spreading_factor=6, skip=2,
        n_association_shifts=0,
    )


@pytest.fixture
def execute_chaos(monkeypatch, tmp_path):
    """Install ``tests/chaos.py``'s execute faults for one test:
    ``execute_chaos(*rules)`` wraps ``runner.execute_point``; teardown
    releases every hang and checks that no hung thread and no child
    process outlives the test."""
    import chaos
    import repro.campaign.runner as campaign_runner

    installed = []

    def install(*rules, seed=0):
        injector = chaos.ExecuteChaos(
            chaos.plan(*rules, seed=seed),
            tmp_path / f"execute-chaos-{len(installed)}",
        )
        monkeypatch.setattr(campaign_runner, "execute_point", injector)
        installed.append(injector)
        return injector

    yield install
    for injector in installed:
        injector.release()
