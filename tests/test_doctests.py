"""Run the library's docstring examples as tests.

Every module listed here must carry at least one runnable example —
the docs-consistency suite (``tests/test_docs_consistency.py``) keeps
the list in sync with the documented hot-path modules, so the examples
in the docs cannot silently rot.
"""

import doctest

import pytest

import repro.campaign.client
import repro.campaign.objectstore
import repro.campaign.retry
import repro.campaign.runner
import repro.campaign.service
import repro.campaign.spec
import repro.campaign.storage
import repro.campaign.store
import repro.core.allocation
import repro.core.capacity
import repro.phy.backend_plan
import repro.phy.noise
import repro.protocol.population
import repro.phy.sparse_readout
import repro.utils.conversions

MODULES_WITH_DOCTESTS = [
    repro.utils.conversions,
    repro.phy.sparse_readout,
    repro.phy.backend_plan,
    repro.phy.noise,
    repro.campaign.spec,
    repro.campaign.store,
    repro.campaign.storage,
    repro.campaign.retry,
    repro.campaign.runner,
    repro.campaign.objectstore,
    repro.campaign.service,
    repro.campaign.client,
    repro.core.allocation,
    repro.core.capacity,
    repro.protocol.population,
]


@pytest.mark.parametrize(
    "module", MODULES_WITH_DOCTESTS, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0
