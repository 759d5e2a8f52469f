"""Stacked selects: one 16-version x 64-chunk range read, cold and cached.

The paper's Table IV range selects stack one box of many versions.  A
stacked select is one read plan over all its layers: per chunk the
versions resolve in ascending order and share one chain scope, and
every chunk's layers are one task of one fan batch, cache on or off.
This bench reads all 16 versions of a 512 x 512 int32 array cut into
64 chunks of 64 x 64 cells, on the memory backend, with the cache off
(cold), as the first select on an empty cache big enough to hold
every chunk (cold cached), and from that cache once it holds them all
(cached), and prints the median ``time.process_time`` and wall clock
(``time.perf_counter``) of each, with the CPU fan one lane wide and two
(swapped in by :func:`paper.harness.fan_width`).

It asserts counts, not seconds: a cold stack reads every chunk row of
the chain exactly once, cached or not — a cold cached one misses each
of its 1 024 chunks once and hits none — and a cached one is 1 024
cache hits, no miss and no read.  Run with
``python -m pytest benchmarks/bench_stacked_select.py -q -s``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from paper.harness import cold_head, fan_width
from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager

VERSIONS = 16
SHAPE = (512, 512)
CHUNK_SHAPE = (64, 64)
CHUNKS = (SHAPE[0] // CHUNK_SHAPE[0]) * (SHAPE[1] // CHUNK_SHAPE[1])
#: Timed selects per configuration; the median is printed.
REPEATS = 7
#: The CPU fan widths every configuration is timed at.
WIDTHS = (1, 2)


def _store(cache_bytes: int):
    """A chain-policy store of VERSIONS sparse steps, its head dropped
    from the hot slot so every layer decodes; with the stack."""
    manager = VersionedStorageManager("/unused/stacked", backend="memory",
                                      delta_policy="chain",
                                      cache_bytes=cache_bytes)
    manager.create_array("A", ArraySchema.simple(SHAPE, np.int32),
                         chunk_shape=CHUNK_SHAPE)
    rng = np.random.default_rng(7)
    data = rng.integers(-1000, 1000, SHAPE, dtype=np.int32)
    truth = []
    for _ in range(VERSIONS):
        manager.insert("A", data)
        truth.append(data)
        data = data.copy()
        data.reshape(-1)[rng.choice(data.size, 2000, replace=False)] += 3
    cold_head(manager, "A")
    return manager, np.stack(truth)


def _stack(manager, truth, *, emptied: bool = False
           ) -> tuple[float, float, object]:
    """Median milliseconds of REPEATS stacked selects of every
    version, in process time and in wall clock, and the counters of the
    last one; ``emptied`` clears the cache before each."""
    versions = list(range(1, VERSIONS + 1))
    cpu, wall = [], []
    for _ in range(REPEATS):
        if emptied:
            manager.cache.clear()
        with manager.stats.measure() as window:
            start, started = time.process_time(), time.perf_counter()
            stack = manager.select_versions("A", versions)
            cpu.append(time.process_time() - start)
            wall.append(time.perf_counter() - started)
        assert np.array_equal(stack, truth)
    return statistics.median(cpu) * 1e3, statistics.median(wall) * 1e3, \
        window


def _widths(manager, truth, *, emptied: bool = False) -> list:
    """:func:`_stack` at every fan width in WIDTHS."""
    timed = []
    for width in WIDTHS:
        with fan_width(width):
            timed.append(_stack(manager, truth, emptied=emptied))
    return timed


def bench_stacked_select():
    manager, truth = _store(cache_bytes=0)
    with manager:
        cold = _widths(manager, truth)
        rows = len(manager.catalog.snapshot("A").all_chunks())
    # Each chunk row of the chain is read once: every layer's walk
    # stops at the layer below it.
    assert rows == VERSIONS * CHUNKS
    for _, _, window in cold:
        assert window.chunks_read == rows
        assert window.cache_hits == window.cache_misses == 0

    manager, truth = _store(cache_bytes=64 << 20)
    with manager:
        cold_cached = _widths(manager, truth, emptied=True)
        cached = _widths(manager, truth)
    # The cache changes what is kept, not what is read.
    for _, _, window in cold_cached:
        assert window.chunks_read == rows
        assert (window.cache_hits, window.cache_misses) == (0, rows)
    for _, _, window in cached:
        assert (window.cache_hits, window.cache_misses) == \
            (VERSIONS * CHUNKS, 0)
        assert window.chunks_read == 0
    print(f"\nstacked select {VERSIONS} x {CHUNKS} chunks, median of "
          f"{REPEATS} (process time / wall clock, ms):")
    for name, timed in (("cold", cold), ("cold cached", cold_cached),
                        ("cached", cached)):
        print(f"  {name:<12}" + "".join(
            f"  width {width}: {cpu:6.1f} / {wall:6.1f}"
            for width, (cpu, wall, _) in zip(WIDTHS, timed)))
