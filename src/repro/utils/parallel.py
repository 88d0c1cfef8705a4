"""CPU counting and the one rule for when a computation may go parallel.

Every concurrent path of the repository asks here: the campaign
process pool (:func:`repro.campaign.runner.resolve_pool_workers`),
the Monte-Carlo leg threads of a population cycle and the two-stage
decode pipeline (:func:`pipeline`). A computation that already runs as
one of several threads of a pool in this process is marked
(:func:`mark_parallel`), so that it opens no stage thread of its own:
the pool already fills the CPUs, and a nested stage thread only adds
contention for the one interpreter lock (a 10^4-device cycle with
8-round legs runs ~10% slower without the mark; docs/PERFORMANCE.md
§7). Process-pool workers are not marked: each has its own
interpreter, and there a stage thread measured neither faster nor
slower.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, TypeVar

_Item = TypeVar("_Item")
_Staged = TypeVar("_Staged")
_Result = TypeVar("_Result")

_INSIDE_POOL = contextvars.ContextVar("repro_inside_pool", default=False)

#: Name prefix of the pipeline's stage thread (see :func:`pipeline`).
STAGE_THREAD_PREFIX = "decode-stage"


def usable_cpus() -> int:
    """CPUs this process may run on, at least 1.

    The process's affinity mask where the OS reports one, else
    ``os.cpu_count()``. A container pinned to one CPU of a large host
    counts 1 here, where ``os.cpu_count()`` would count the host's.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return max(1, len(affinity(0)))
    return max(1, os.cpu_count() or 1)


def mark_parallel() -> None:
    """Mark the current context as one thread of a pool.

    Set by each Monte-Carlo leg inside its own copy of the caller's
    context, so the mark ends with the leg.
    """
    _INSIDE_POOL.set(True)


def in_parallel() -> bool:
    """Whether the current context runs as one thread of a pool."""
    return _INSIDE_POOL.get()


def pipeline(
    produce: Callable[[_Item], _Staged],
    consume: Callable[[_Staged], _Result],
    items: Iterable[_Item],
) -> List[_Result]:
    """``[consume(produce(item)) for item in items]``, two stages at once.

    ``produce`` of the next item runs on one worker thread while the
    calling thread runs ``consume`` of the current one, so the worker
    holds at most one item ahead. The ``produce`` calls run one at a
    time in item order, and so do the ``consume`` calls, which stay on
    the caller. Order-dependent work, such as random draws from one
    generator, may therefore sit in either stage, as long as it stays
    in one of them. Each ``produce`` call runs in a copy of the
    caller's context, so context-carried state such as trace spans
    keeps its parent.

    It runs serially, with no thread at all, for fewer than two items,
    on one usable CPU (:func:`usable_cpus`), or inside a pool thread
    (:func:`in_parallel`). The executor lives only for this call: a
    failure in either stage reaches the caller with its own type once no
    stage thread is left. A ``produce`` failure at item k surfaces when
    item k is due, before item k+1 is submitted; a ``consume`` failure
    at item k leaves at most item k+1 produced.
    """
    items = list(items)
    if len(items) < 2 or usable_cpus() <= 1 or in_parallel():
        return [consume(produce(item)) for item in items]

    stage = ThreadPoolExecutor(1, thread_name_prefix=STAGE_THREAD_PREFIX)

    def submit(item):
        return stage.submit(contextvars.copy_context().run, produce, item)

    results = []
    try:
        ahead = submit(items[0])
        for item in items[1:]:
            staged = ahead.result()
            ahead = submit(item)
            results.append(consume(staged))
        results.append(consume(ahead.result()))
    finally:
        stage.shutdown(wait=True, cancel_futures=True)
    return results
