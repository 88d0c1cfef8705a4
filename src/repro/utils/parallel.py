"""CPU counting and the one rule for when a computation may go parallel.

Every concurrent path of the repository asks here: the campaign
process pool (:func:`repro.campaign.runner.resolve_pool_workers`),
the Monte-Carlo leg pool of a population cycle (forked worker
processes and the caller) and the decode pipeline (:func:`pipeline`),
whose stage thread opens each span by drawing its noise and whose
caller, once it has decided a span, shares the next span's reads. A
computation that already runs as one worker of a pool is marked
(:func:`mark_parallel`), so that it opens no stage thread of its own:
the pool already fills the CPUs. Every Monte-Carlo leg is marked,
whether a forked leg worker or the caller runs it; the caller marks
each of its legs in a copy of its context, so the mark ends with the
leg. Campaign process-pool workers are not marked: there a stage
thread measured neither faster nor slower (docs/PERFORMANCE.md §7).
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Any, Callable, Iterable, List, Optional, Tuple, TypeVar

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
    """Mark the current context as one worker of a pool.

    Set by each forked Monte-Carlo leg worker for its whole life, and
    by the caller for each leg it runs, inside a copy of its context,
    so there the mark ends with the leg.
    """
    _INSIDE_POOL.set(True)


def in_parallel() -> bool:
    """Whether the current context runs as one worker of a pool."""
    return _INSIDE_POOL.get()


def pipeline(
    produce: Callable[
        [_Item], Tuple[List[Callable[[], Any]], Callable[[List[Any]], _Staged]]
    ],
    consume: Callable[[_Staged], _Result],
    items: Iterable[_Item],
) -> List[_Result]:
    """Each item read in parts on two threads, then consumed on the caller.

    ``produce(item)`` splits an item into ``(parts, finish)``: ``parts``
    is a list of independent calls, and ``finish`` turns their results,
    in part order, into the item's staged value. The result is
    ``[consume(finish([part() for part in parts])) for parts, finish in
    map(produce, items)]``, computed on two threads:

    * a stage thread runs the next item's parts while the caller runs
      ``consume`` of the current one; once done, the caller helps with
      the remaining parts of the item it needs next;
    * the stage thread opens every item by taking its first part, so
      every first part, and all of a one-part item, runs on the stage
      thread;
    * parts of one item may run at once, but the next item's parts
      start only once all of this item's parts are done, so work that
      runs one part per item, such as random draws from one generator,
      stays in item order;
    * ``produce``, ``finish`` and ``consume`` run on the caller, in
      item order, and ``produce`` of item k+2 runs only once item k is
      consumed, so at most two items are in flight.

    Each part the stage thread runs runs in a copy of the caller's
    context, taken when its item is produced, so context-carried state
    such as trace spans keeps its parent.

    It runs serially, with no thread at all, for fewer than two items,
    on one usable CPU (:func:`usable_cpus`), or inside a pool worker
    (:func:`in_parallel`). The stage thread lives only for this call: a
    failure on either thread reaches the caller with its own type once
    no stage thread is left. A part failure at item k surfaces when
    item k is due, before item k+1 is produced; a ``consume`` failure
    at item k leaves at most item k+1 read.
    """
    items = list(items)
    if len(items) < 2 or usable_cpus() <= 1 or in_parallel():
        return [consume(_read_serially(*produce(item))) for item in items]

    # Guards the three names below and every _Parts' counters.
    turn = threading.Condition()
    reading = _Parts([])  # the item whose parts are handed out
    failure: Optional[BaseException] = None
    closed = False

    def stage():
        nonlocal failure
        while True:
            with turn:
                while not closed and not reading.open_to(stage=True):
                    turn.wait()
                if closed:
                    return
                item, index = reading, reading.take()
                # The caller may be waiting for the item to open.
                turn.notify_all()
            try:
                result = item.context.run(item.parts[index])
            except BaseException as error:
                with turn:
                    failure = error
                    turn.notify_all()
                return
            with turn:
                item.finish_part(index, result)
                turn.notify_all()

    def read(item):
        """The caller's share of ``item``'s parts, then its results."""
        while True:
            with turn:
                while True:
                    if failure is not None:
                        raise failure
                    if item.done == len(item.parts):
                        return item.results
                    if item.open_to(stage=False):
                        index = item.take()
                        break
                    turn.wait()
            result = item.parts[index]()
            with turn:
                item.finish_part(index, result)
                turn.notify_all()

    def publish(item):
        nonlocal reading
        parts, finish = produce(item)
        with turn:
            reading = _Parts(parts)
            turn.notify_all()
        return reading, finish

    thread = threading.Thread(target=stage, name=STAGE_THREAD_PREFIX)
    thread.start()
    results = []
    try:
        current, finish = publish(items[0])
        for item in items[1:]:
            staged = finish(read(current))
            current, finish = publish(item)
            results.append(consume(staged))
        results.append(consume(finish(read(current))))
    finally:
        with turn:
            closed = True
            turn.notify_all()
        thread.join()
    return results


def _read_serially(parts, finish):
    """One item of :func:`pipeline`, read on the calling thread."""
    return finish([part() for part in parts])


class _Parts:
    """One item's parts as the two threads of :func:`pipeline` take them.

    Guarded by the pipeline's condition: parts are taken in order, and
    the caller takes one only after the stage thread opened the item.
    """

    def __init__(self, parts: List[Callable[[], Any]]) -> None:
        self.parts = parts
        self.results: List[Any] = [None] * len(parts)
        self.taken = 0
        self.done = 0
        self.context = contextvars.copy_context()

    def open_to(self, stage: bool) -> bool:
        """Whether the stage thread (or else the caller) may take a part."""
        return (stage or self.taken > 0) and self.taken < len(self.parts)

    def take(self) -> int:
        self.taken += 1
        return self.taken - 1

    def finish_part(self, index: int, result: Any) -> None:
        self.results[index] = result
        self.done += 1
