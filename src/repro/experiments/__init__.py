"""Experiment drivers: one module per paper figure/table.

Each module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose ``report()``
prints the same rows/series the paper's figure shows, plus its headline
shape checks. ``python -m repro`` runs them through
:mod:`repro.experiments.registry`, at the default counts or, with
``--quick``, at reduced ones; the tier-1 tests run each once at its
paper scale.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
