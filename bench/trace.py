"""In-memory span recorder and the timing wrappers of the traced run.

The traced run measures each layer from outside the program: before
set-up, the worker replaces the functions named in :data:`TARGETS` with
wrappers that record one span per call, and restores them afterwards.
Nothing under ``src/`` changes.

A span is ``(id, parent, name, start_ns, end_ns, thread, unit, elems)``.
The parent comes from a contextvar, so nesting follows the call stack
of one thread. A new thread starts with an empty context: the campaign
service's HTTP handler threads and its runner threads therefore record
root spans of their own, because nothing carries a parent across HTTP
or into a thread the service starts. ``unit`` is the benchmark's work
unit (batch, cycle or request) the span ran under, or ``None`` there.

A span's self time is its duration minus the time its child spans
cover. Children of one span run on the parent's thread, one after the
other, so that cover is the sum of their durations.

Each wrapper sits on the binding the caller resolves at call time:

* methods on their class (``NetScatterReceiver.decode_readout``);
* ``from x import f`` names on the importing module
  (``repro.core.receiver.estimate_noise_floor``,
  ``repro.protocol.network.power_aware_allocation``,
  ``repro.campaign.runner.paper_deployment``);
* names imported inside a function body on their defining module
  (``repro.core.dcss.compose_readout``, ``repro.core.capacity.*``,
  ``repro.channel.fading.step_tracks``).

The workloads call ``paper_deployment``, ``office_population`` and
``hybrid_population_round`` through their modules for the same reason.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

POSIX_OPS = ("get", "put_atomic", "put_exclusive", "replace", "delete", "list", "exists")


@dataclass(frozen=True)
class Target:
    """One wrapped binding: span name, module, ``function`` or ``Class.method``.

    ``elems`` records the size of the returned array as the span's work
    count. ``total`` reports the span's total time beside its self time,
    for spans whose children are the interesting part.
    """

    span: str
    module: str
    attr: str
    elems: bool = False
    total: bool = False


TARGETS = (
    Target("phy.calibrate", "repro.phy.backend_plan", "calibrate", total=True),
    Target("phy.planner_select", "repro.phy.backend_plan", "BackendPlanner.select"),
    Target("phy.noise_draw", "repro.phy.noise", "NoiseStream.standard_complex", elems=True),
    Target("phy.noise_floor", "repro.core.receiver", "estimate_noise_floor"),
    Target("phy.fft_readout", "repro.core.receiver", "full_fft_values", elems=True),
    Target("core.decode_readout", "repro.core.receiver", "NetScatterReceiver.decode_readout"),
    Target("core.compose_readout", "repro.core.dcss", "compose_readout", elems=True),
    Target("core.compose_rounds", "repro.core.dcss", "compose_rounds", elems=True),
    Target("core.closed_form", "repro.core.capacity", "packet_delivery_probability", elems=True),
    Target("core.closed_form", "repro.core.capacity", "effective_bit_error_rate", elems=True),
    Target("core.ncx2_cdf", "repro.core.capacity", "noncentral_chi2_cdf", elems=True),
    Target("core.allocation", "repro.protocol.network", "power_aware_allocation"),
    Target("channel.paper_deployment", "repro.channel.deployment", "paper_deployment"),
    Target("channel.paper_deployment", "repro.campaign.runner", "paper_deployment"),
    Target("channel.step_tracks", "repro.channel.fading", "step_tracks"),
    Target("channel.from_snrs", "repro.channel.deployment", "Deployment.from_snrs"),
    Target("protocol.sim_init", "repro.protocol.network", "NetworkSimulator.__init__"),
    Target(
        "protocol.run_rounds", "repro.protocol.network", "NetworkSimulator.run_rounds",
        total=True,
    ),
    Target(
        "protocol.office_population", "repro.protocol.population", "office_population",
        total=True,
    ),
    Target("protocol.assign_cluster", "repro.protocol.population", "assign_cluster"),
    Target("protocol.split_fidelity", "repro.protocol.population", "split_fidelity"),
    Target(
        "protocol.hybrid_round", "repro.protocol.population", "hybrid_population_round",
        total=True,
    ),
    Target("campaign.service_submit", "repro.campaign.service", "CampaignService.submit"),
    Target("campaign.runner_run", "repro.campaign.runner", "CampaignRunner.run", total=True),
    Target("campaign.execute_point", "repro.campaign.runner", "execute_point", total=True),
    Target("campaign.store_save", "repro.campaign.store", "CampaignStore.save"),
    Target("campaign.store_load", "repro.campaign.store", "CampaignStore.load"),
    Target("campaign.store_has", "repro.campaign.store", "CampaignStore.has"),
    Target("campaign.lease_acquire", "repro.campaign.leases", "LeaseManager.acquire"),
    Target("campaign.lease_release", "repro.campaign.leases", "LeaseManager.release"),
    *(
        Target(f"campaign.posix.{op}", "repro.campaign.storage", f"PosixDriver.{op}")
        for op in POSIX_OPS
    ),
)

#: Distinct span names of the wrappers, in declaration order.
SPAN_NAMES = tuple(dict.fromkeys(t.span for t in TARGETS))
#: Span names whose wrappers record an element count.
ELEM_SPANS = tuple(dict.fromkeys(t.span for t in TARGETS if t.elems))
#: Span names reported with their total time as well as their self time.
TOTAL_SPANS = tuple(dict.fromkeys(t.span for t in TARGETS if t.total))

#: The benchmark's own spans: set-up, and one per work unit.
SETUP_SPAN = "bench.setup"
UNIT_SPAN = "bench.unit"


def binding(target: Target) -> tuple:
    """``(holder, name)``: the module or class whose attribute ``name`` the
    target wraps, its module imported."""
    module = importlib.import_module(target.module)
    owner, _, name = target.attr.rpartition(".")
    return (getattr(module, owner) if owner else module), name


class Tracer:
    """Records spans in memory; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._parent = contextvars.ContextVar("bench_span_parent", default=0)
        self._unit = contextvars.ContextVar("bench_span_unit", default=None)
        self._installed: List[tuple] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _begin(self) -> tuple:
        span_id = next(self._ids)
        parent = self._parent.get()
        return span_id, parent, self._parent.set(span_id), time.perf_counter_ns()

    def _end(self, opened: tuple, name: str, elems: int = 0) -> None:
        span_id, parent, token, start = opened
        end = time.perf_counter_ns()
        self._parent.reset(token)
        self.spans.append(
            (span_id, parent, name, start, end, threading.get_ident(),
             self._unit.get(), elems)
        )

    def wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._begin()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elems = int(getattr(result, "size", 0)) if target.elems else 0
                self._end(opened, target.span, elems)

        return traced

    @contextlib.contextmanager
    def span(self, name: str, unit: Optional[str] = None):
        """A span of the benchmark's own; ``unit`` tags everything inside it."""
        unit_token = self._unit.set(unit) if unit is not None else None
        opened = self._begin()
        try:
            yield
        finally:
            self._end(opened, name)
            if unit_token is not None:
                self._unit.reset(unit_token)

    # ------------------------------------------------------------------ #
    # wrapper installation
    # ------------------------------------------------------------------ #

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        # Resolve every binding first: a module first imported after one
        # wrapper is in place would bind that wrapper by ``from x import
        # f``, nest a second span in it and keep it after uninstall.
        targets = tuple(targets)
        bindings = [binding(target) for target in targets]
        for target, (holder, name) in zip(targets, bindings):
            raw = holder.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(target, raw.__func__))
            else:
                wrapped = self.wrap(target, raw)
            setattr(holder, name, wrapped)
            self._installed.append((holder, name, raw))

    def uninstall(self) -> None:
        while self._installed:
            holder, name, raw = self._installed.pop()
            setattr(holder, name, raw)

    @contextlib.contextmanager
    def installed(self, targets: Iterable[Target] = TARGETS):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s``, ``elems``."""
        covered = self._child_cover()
        stats: Dict[str, Dict[str, float]] = {}
        for span_id, _, name, start, end, _, _, elems in self.spans:
            entry = stats.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "elems": 0}
            )
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - covered[span_id]) / 1e9
            entry["elems"] += elems
        return stats

    def unit_coverage(self) -> List[float]:
        """Share of each unit span's duration that its child spans cover."""
        covered = self._child_cover()
        return [
            covered[span_id] / max(end - start, 1)
            for span_id, _, name, start, end, _, _, _ in self.spans
            if name == UNIT_SPAN
        ]

    def time_under(self, names: Iterable[str], ancestor: str) -> float:
        """Seconds spent in outermost ``names`` spans nested under ``ancestor``."""
        wanted = set(names)
        by_id = {span[0]: span for span in self.spans}
        total = 0
        for _, parent, name, start, end, *_ in self.spans:
            if name not in wanted:
                continue
            while parent in by_id and by_id[parent][2] not in wanted:
                if by_id[parent][2] == ancestor:
                    total += end - start
                    break
                parent = by_id[parent][1]
        return total / 1e9

    def _child_cover(self) -> Dict[int, int]:
        covered: Dict[int, int] = defaultdict(int)
        for _, parent, _, start, end, _, _, _ in self.spans:
            covered[parent] += end - start
        return covered

    def dump(self, path, **fields) -> None:
        """Append every span as one JSON line, tagged with ``fields``."""
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, thread, unit, elems in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent or None,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "thread": thread,
                    "unit": unit,
                    "elems": elems,
                    **fields,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
