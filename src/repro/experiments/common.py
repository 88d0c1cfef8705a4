"""Shared scaffolding for the figure/table reproduction drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reports import format_table
from repro.channel.deployment import (
    PAPER_DEPLOYMENT_DEVICES,
    Deployment,
    paper_deployment,
)
from repro.core.config import NetScatterConfig
from repro.errors import ReproError
from repro.protocol.network import (
    NetworkMetrics,
    check_device_counts,
    sweep_device_counts,
)
from repro.utils.rng import RngLike, child_seed, make_rng


@dataclass
class ExperimentResult:
    """Uniform result record for every experiment driver.

    Attributes
    ----------
    experiment_id:
        Paper anchor, e.g. ``"fig12"`` or ``"table1"``.
    title:
        Human-readable description.
    rows:
        The series/table the figure plots, one dict per row.
    columns:
        Column order for reporting.
    checks:
        Named shape assertions (``name -> bool``) the experiment
        validated against the paper's qualitative claims.
    notes:
        Free-form commentary (substitutions, deviations).
    """

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    columns: List[str] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def report(self, max_rows: Optional[int] = None) -> str:
        """Render the result as the text block the bench harness prints."""
        if not self.rows:
            raise ReproError(f"{self.experiment_id} produced no rows")
        rows = self.rows
        if max_rows is not None and len(rows) > max_rows:
            step = max(1, len(rows) // max_rows)
            rows = rows[::step]
        lines = [
            format_table(
                rows, self.columns, title=f"[{self.experiment_id}] {self.title}"
            )
        ]
        if self.checks:
            lines.append("shape checks:")
            for name, passed in self.checks.items():
                lines.append(f"  {'PASS' if passed else 'FAIL'}  {name}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def all_checks_pass(self) -> bool:
        """True when every recorded shape check held."""
        return all(self.checks.values())

    def check(self, name: str, passed: bool) -> None:
        """Record one shape assertion."""
        self.checks[name] = bool(passed)

    def column(self, key: str) -> List[object]:
        """Extract one column across rows."""
        if not self.rows or key not in self.rows[0]:
            raise ReproError(f"column {key!r} not present")
        return [row[key] for row in self.rows]


def geometric_sweep(start: int, stop: int, factor: float = 2.0) -> List[int]:
    """Geometric integer sweep helper for scaling experiments."""
    if start < 1 or stop < start or factor <= 1.0:
        raise ReproError("invalid sweep parameters")
    values = []
    current = float(start)
    while current <= stop:
        value = int(round(current))
        if not values or value != values[-1]:
            values.append(value)
        current *= factor
    if values[-1] != stop:
        values.append(stop)
    return values


def sweep_deployment(
    deployment: Optional[Deployment],
    device_counts: Sequence[int],
    generator: np.random.Generator,
) -> Tuple[Deployment, Tuple[int, ...]]:
    """The deployment and checked device counts of a Figs. 17-19 sweep.

    The counts are checked before anything is drawn. Without a
    deployment the paper's office is drawn from
    ``child_seed(generator, 0)``, the first draw the campaign layer's
    ``derive_seeds`` makes too.
    """
    n_devices = (
        PAPER_DEPLOYMENT_DEVICES if deployment is None
        else deployment.n_devices
    )
    counts = check_device_counts(device_counts, n_devices)
    if deployment is None:
        deployment = paper_deployment(rng=child_seed(generator, 0))
    return deployment, counts


def netscatter_sweep(
    deployment: Optional[Deployment],
    device_counts: Sequence[int],
    config: NetScatterConfig,
    n_rounds: int,
    rng: RngLike,
    engine: str,
) -> Tuple[Deployment, Tuple[int, ...], List[NetworkMetrics]]:
    """The swept deployment, the counts and each count's metrics.

    With the same base seed the default deployment's points are those
    of the ``fig17``/``fig18`` campaign presets, which the campaign CLI
    (``run --spec fig17``) runs with a store and a process pool.
    """
    generator = make_rng(rng)
    deployment, counts = sweep_deployment(
        deployment, device_counts, generator
    )
    metrics = sweep_device_counts(
        deployment,
        counts,
        config=config,
        n_rounds=n_rounds,
        rng=generator,
        engine=engine,
    )
    return deployment, counts, metrics
