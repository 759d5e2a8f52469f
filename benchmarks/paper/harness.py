"""Shared plumbing of the paper experiments: axes, a timer and
paper-style table printing.

Every experiment module in :mod:`paper` exposes a ``run()`` function
that returns its rows as dictionaries and prints a table shaped like the
corresponding table in the paper, so the output can be eyeballed against
the original numbers (shape, not absolute values: ``docs/paper.md``
records each experiment's scale).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.cli import fmt_bytes, fmt_seconds
from repro.storage import fan

__all__ = ["backend_axis", "cold_head", "fan_width", "fmt_bytes",
           "fmt_seconds", "native_axis", "print_table", "timed",
           "workers_axis"]


def backend_axis(backends=None) -> tuple[str, ...]:
    """Normalize an experiment's ``backends`` argument.

    None means the paper's default (local files only); a string names a
    single backend; any iterable is swept in order.  Experiments that
    accept a backend axis report one row group per backend, so the same
    table compares disk against memory.
    """
    if backends is None:
        return ("local",)
    if isinstance(backends, str):
        return (backends,)
    return tuple(backends)


def cold_head(manager, name: str) -> None:
    """Drop the version of array ``name`` that ``manager`` holds in its
    hot slot, so the next whole read of the head decodes the stored
    layout.  The paper measures reads of what is stored; a held head
    is one memory copy, whatever the layout, and would hide it."""
    manager._hot.forget(name)


def workers_axis(workers=None) -> tuple[int, ...]:
    """Normalize an experiment's ``workers`` argument.

    None means the inline default; an int names a single fan width;
    any iterable is swept in order — the workers analogue of
    :func:`backend_axis`, for experiments comparing inline against
    pooled encode and decode.  Each degree reaches the store through
    :func:`fan_width`.
    """
    if workers is None:
        return (1,)
    if isinstance(workers, int):
        return (workers,)
    return tuple(workers)


@contextmanager
def fan_width(workers: int | None):
    """Run the block with the store's CPU fan ``workers`` lanes wide
    (None: the host's own width).  The store takes no such setting —
    its width is the CPUs it may run on, and its one CPU pool is the
    process's (:mod:`repro.storage.fan`) — so an experiment sweeping a
    ``workers`` column swaps in the width and a pool of ``workers - 1``
    threads for the block, and shuts that pool down after it."""
    if workers is None:
        yield
        return
    saved = fan.FAN_WIDTH, fan._cpu
    pool = fan.lanes(workers)
    fan.FAN_WIDTH, fan._cpu = workers, pool
    try:
        yield
    finally:
        fan.FAN_WIDTH, fan._cpu = saved
        pool.shutdown()


def native_axis() -> tuple[int, ...]:
    """The compiled-kernel axis an experiment can sweep.

    ``(0, 1)`` when the native kernels compiled on this host — rows
    are measured once with the kernels force-disabled (the in-process
    :func:`repro.core.native.disabled` scope, since ``REPRO_NATIVE``
    is latched per process) and once with them active — and ``(0,)``
    when no compiler is available, so artifacts never claim a native
    row the host could not produce.  The kernels are byte-identical
    to the numpy fallbacks by contract, so the axis may change
    wall-clock only.
    """
    from repro.core import native

    return (0, 1) if native.available() else (0,)


@contextmanager
def timed():
    """Context manager yielding a mutable elapsed-seconds holder.

    >>> with timed() as t:
    ...     _ = sum(range(1000))
    >>> t.seconds >= 0
    True
    """

    class _Holder:
        seconds = 0.0

    holder = _Holder()
    start = time.perf_counter()
    try:
        yield holder
    finally:
        holder.seconds = time.perf_counter() - start


def print_table(title: str, headers: list[str],
                rows: list[list[str]]) -> None:
    """Print an aligned ASCII table resembling the paper's tables."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))

    def line(cells):
        return "  ".join(str(cell).ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    print()
    print(f"=== {title} ===")
    print(line(headers))
    print(line(["-" * width for width in widths]))
    for row in rows:
        print(line(row))
    print()
