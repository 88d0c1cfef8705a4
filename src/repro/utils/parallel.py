"""CPU counting and the one rule for when a computation may go parallel.

Every concurrent path of the repository asks here: the campaign
process pool (:func:`repro.campaign.runner.resolve_pool_workers`),
the Monte-Carlo leg pool of a population cycle (forked worker
processes and the caller) and the decode pipeline (:func:`pipeline`),
whose stage thread draws every span's noise, span after span, while
both threads share the reads of the spans in flight. A
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
from functools import partial
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

    * every first part runs on the stage thread, which opens the items
      one after another, in item order; so work that runs in the first
      part of each item, such as random draws from one generator,
      stays on one thread, in item order;
    * the other parts of an item may run on either thread, at once, as
      soon as the item is produced: the caller reads them while the
      stage thread draws, and the stage thread reads them while the
      caller runs ``consume`` of the item before;
    * ``produce``, ``finish`` and ``consume`` run on the caller, in
      item order. ``produce`` of item k+1 runs once item k's first part
      has ended and all of its parts are taken, so no part of item k+1
      starts before item k's first part has ended; ``produce`` of item
      k+2 runs only once item k is consumed, so at most two items are
      in flight;
    * the stage thread takes the parts of item k before it opens item
      k+1, and the caller consumes item k as soon as it is done, before
      it takes another part of item k+1.

    Each part the stage thread runs runs in a copy of the caller's
    context, taken when its item is produced, so context-carried state
    such as trace spans keeps its parent.

    It runs serially, with no thread at all, for fewer than two items,
    on one usable CPU (:func:`usable_cpus`), or inside a pool worker
    (:func:`in_parallel`). The stage thread lives only for this call: a
    failure on either thread reaches the caller with its own type once
    no stage thread is left. A part failure at item k surfaces when
    item k is due, once every earlier item is consumed; a failing
    first part at item k lets no later item be produced. A failure at
    item k leaves at most item k+1 produced and partly read.
    """
    items = list(items)
    if len(items) < 2 or usable_cpus() <= 1 or in_parallel():
        return [consume(_read_serially(*produce(item))) for item in items]

    # Guards the three names below and every _Parts' counters.
    turn = threading.Condition()
    flight: List[_Parts] = []  # produced and not yet consumed, in order
    # The earliest item a part failed in, as (order, error).
    failed: Optional[Tuple[int, BaseException]] = None
    closed = False

    def run(item, index, part):
        """Run one taken part and record its result or its failure;
        return whether it succeeded."""
        nonlocal failed
        try:
            result = part()
        except BaseException as error:
            with turn:
                if failed is None or item.order < failed[0]:
                    failed = (item.order, error)
                turn.notify_all()
            return False
        with turn:
            item.finish_part(index, result)
            turn.notify_all()
        return True

    def stage():
        while True:
            with turn:
                while True:
                    if closed or failed is not None:
                        return
                    item, index = _next_part(flight, stage=True)
                    if item is not None:
                        break
                    turn.wait()
            part = partial(item.context.run, item.parts[index])
            if not run(item, index, part):
                return

    def next_step():
        """The caller's next step, once it may take one: ``("produce",
        None, None)``, ``("consume", item, None)`` or ``("read", item,
        index)``. Raises a part's failure once its item is due."""
        with turn:
            while True:
                if failed is not None and flight[0].order == failed[0]:
                    raise failed[1]
                if (
                    failed is None
                    and len(flight) < 2
                    and produced < len(items)
                    and (not flight or flight[-1].ready_for_next)
                ):
                    return "produce", None, None
                if flight and flight[0].complete:
                    return "consume", flight.pop(0), None
                if failed is None:
                    item, index = _next_part(flight, stage=False)
                    if item is not None:
                        return "read", item, index
                turn.wait()

    thread = threading.Thread(target=stage, name=STAGE_THREAD_PREFIX)
    thread.start()
    produced = 0
    results = []
    try:
        while len(results) < len(items):
            step, item, index = next_step()
            if step == "produce":
                item = _Parts(produced, *produce(items[produced]))
                produced += 1
                with turn:
                    flight.append(item)
                    turn.notify_all()
            elif step == "consume":
                results.append(consume(item.finish(item.results)))
            else:
                run(item, index, item.parts[index])
    finally:
        with turn:
            closed = True
            turn.notify_all()
        thread.join()
    return results


def _read_serially(parts, finish):
    """One item of :func:`pipeline`, read on the calling thread."""
    return finish([part() for part in parts])


def _next_part(flight, stage: bool):
    """Take the oldest part in ``flight`` that the stage thread (or else
    the caller) may take: ``(item, index)``, or ``(None, None)``."""
    for item in flight:
        index = item.take(stage)
        if index is not None:
            return item, index
    return None, None


class _Parts:
    """One item's parts as the two threads of :func:`pipeline` take them.

    Guarded by the pipeline's condition. Only the stage thread takes the
    first part; either thread takes the others, in order.
    """

    def __init__(
        self, order: int, parts: List[Callable[[], Any]], finish: Callable
    ) -> None:
        self.order = order
        self.parts = parts
        self.finish = finish
        self.results: List[Any] = [None] * len(parts)
        self.opened = self.first_done = not parts
        self.taken = 1  # the next part after the first to hand out
        self.done = 0
        self.context = contextvars.copy_context()

    def take(self, stage: bool) -> Optional[int]:
        """Hand out a part to the stage thread (or else the caller)."""
        if stage and not self.opened:
            self.opened = True
            return 0
        if self.taken < len(self.parts):
            self.taken += 1
            return self.taken - 1
        return None

    @property
    def ready_for_next(self) -> bool:
        """Whether the next item may be produced: this item's first part
        has ended and all of its parts are taken."""
        return self.first_done and self.taken >= len(self.parts)

    @property
    def complete(self) -> bool:
        return self.done == len(self.parts)

    def finish_part(self, index: int, result: Any) -> None:
        self.results[index] = result
        self.done += 1
        if index == 0:
            self.first_done = True
