"""Every thread the store starts: one CPU fan and one fsync fan per
process.

The paper's §II picture makes each node a storage manager, and a
:class:`~repro.cluster.ClusterCoordinator` holds all of them in one
process.  Their threads are therefore a property of the process, not
of a manager: two pools, each built at import and each starting a
thread only when a task finds none idle, shared by every pipeline and
backend that is open (or ever was).  Nothing else under ``repro``
builds or shuts down a pool, and closing a manager or a backend
touches neither.

* **The CPU fan** — :data:`FAN_WIDTH` lanes: ``FAN_WIDTH - 1``
  ``repro-cpu`` threads plus whichever thread consumes the results.
  Every encode block and every decode batch of every manager runs
  through :func:`ordered`, its one ordered sliding window.  A read
  hands it a few batches of its cache misses, each one compiled call
  and none over a fixed budget of work
  (:data:`repro.storage.pipeline._BATCH_BYTES`), and none when its
  work would not pay for a hand-off
  (:data:`repro.storage.pipeline._HANDOFF_BYTES`, measured): an item
  costs some 20 us to hand to a lane, more than the decode of a small
  chunk.  Nothing below it fans again, so no task ever waits on
  another.
* **The sync fan** — :data:`SYNC_FAN` ``repro-sync`` threads for the
  durability barrier (:func:`barrier`).  An fsync wait is I/O, not
  CPU, so its depth has nothing to do with the CPU fan's width: it is
  the same on a one-CPU host.

Tests and the paper benches pin the width by swapping in
:data:`FAN_WIDTH` and a pool of ``width - 1`` threads (:func:`lanes`)
for their scope; the store itself takes no such setting.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from collections.abc import Sequence
from concurrent.futures import Future, ThreadPoolExecutor, wait

#: Lanes of the CPU fan: the CPUs this process may run on, read once
#: at import.  At 1 every task runs inline on the calling thread.
FAN_WIDTH = len(os.sched_getaffinity(0)) \
    if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Durability-barrier fan depth.  The filesystem journal group-commits
#: concurrent flushes, and batching saturates around this queue depth
#: on commodity disks — so the barrier fans to this fixed width
#: (bounded by the object count).
SYNC_FAN = 8


def lanes(width: int) -> ThreadPoolExecutor:
    """The pool of a ``width``-lane CPU fan: ``width - 1`` threads,
    none started before the first task (the consumer is the last
    lane; at a width of 1 nothing is ever submitted)."""
    return ThreadPoolExecutor(max(width - 1, 1),
                              thread_name_prefix="repro-cpu")


_cpu = lanes(FAN_WIDTH)
_sync = ThreadPoolExecutor(SYNC_FAN, thread_name_prefix="repro-sync")


def ordered(function, items: list):
    """Yield ``function(item)`` for every item, in item order.

    Inline at a width of 1 (or for a single item).  Otherwise a
    sliding window of ``width + 1`` calls is in flight: each time the
    consumer takes the oldest result, the next item is submitted, so
    at most ``i + width + 2`` calls have started when item ``i``'s
    result (or error) reaches the consumer, and what is in flight
    stays bounded by the window rather than the operation.  Closing
    the generator early (the consumer failed) or an error settles the
    window first: see :func:`_abandon`.

    The consumer is one of the ``width`` lanes.  While the oldest
    result is not ready it claims the oldest call no pool thread has
    started and runs it itself, so one consumer's fan never has more
    runnable threads than CPUs, and when the pool's threads get no CPU
    (another process holds it) or are busy with another consumer's
    calls, the consumer still does the work at the serial pace instead
    of sleeping.
    """
    width = FAN_WIDTH
    if width <= 1 or len(items) <= 1:
        for item in items:
            yield function(item)
        return
    pool = _cpu
    pending = iter(items)
    window: deque = deque()     # [item, future], oldest first

    def top_up() -> None:
        for item in itertools.islice(pending, width + 1 - len(window)):
            window.append([item, pool.submit(function, item)])

    try:
        top_up()
        while window:
            for entry in window:
                if window[0][1].done():
                    break
                if entry[1].cancel():   # no pool thread has it
                    entry[1] = _run_here(function, entry[0])
            _, future = window.popleft()
            top_up()
            yield future.result()
    finally:
        _abandon([future for _, future in window])


def _abandon(futures) -> None:
    """Cancel the tasks that have not started and wait for those that
    have, so nothing of an operation that is about to raise keeps
    running — bumping counters, writing into a canvas nobody holds —
    after it has."""
    for future in futures:
        future.cancel()
    wait(futures)


def _run_here(function, item) -> Future:
    """``function(item)`` run on the calling thread, as a settled
    future: its error is raised where the window reaches it, in item
    order, like a pool thread's."""
    future = Future()
    try:
        future.set_result(function(item))
    except Exception as exc:
        future.set_exception(exc)
    return future


def barrier(flush, targets: Sequence) -> None:
    """Run ``flush(target)`` for every target, :data:`SYNC_FAN` at a
    time, and return once all have finished (the first error raised).

    One task per object; a single object is flushed inline, so a
    backend whose barrier covers one object never waits on a thread.
    """
    if len(targets) < 2:
        for target in targets:
            flush(target)
        return
    list(_sync.map(flush, targets))
