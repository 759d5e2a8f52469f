"""Figure 2 — chunk reads along a delta chain.

The figure's scenario: an array stored as four chunks with three
versions, version 3 delta'ed against version 2, version 2 against
version 1.  A query for a rectangular region of version 3 overlapping
two chunks must read six chunks: the two overlapping chunks in each of
the three versions.

The experiment also sweeps the chain depth to show the linear read
amplification that motivates the materialization algorithms, and
reports *file opens* next to *chunks read*: with co-located placement
the whole chain of one chunk lives in one object, so the batched chain
read opens as many objects as the region overlaps chunks — constant in
chain depth — while payload reads grow linearly.  The optional backend
axis (``backends=("local", "memory", "object")``) runs the same sweep
against the in-memory backend for a disk-free baseline and against the
S3-style object store, where the same invariant reappears one level
down: the chain's spans coalesce into *ranged GETs*, and ``ranged_gets``
stays constant in chain depth exactly like ``file_opens`` (the
``bytes_over_fetched`` column shows what the request-size floor traded
for those round trips).  The workers axis (``workers=(1, 4)``) repeats
everything at a fan width of 4 (:func:`paper.harness.fan_width`) — the
counters (and the constant-opens invariant) must be identical to the
inline run.  Each
row also carries the store's SHA-256 ``fingerprint``: equal across
every cell of one depth (no backend or workers degree may change a
stored byte), and stable across runs — the regression gate CI compares
against the committed ``BENCH_fig2.json``; ``json_path`` writes every
row to that JSON artifact.  The query's wall clock is measured by
``benchmarks/e2e`` (``scan-deep``), not by this grid.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from paper.harness import backend_axis, fan_width, print_table, workers_axis
from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager

ARRAY = "fig2"


def _build(root: Path, versions: int, rng: np.random.Generator,
           backend: str = "local") -> VersionedStorageManager:
    # 20x20 int64 cells with 800-byte chunks -> stride 10 -> 2x2 grid,
    # exactly the figure's four chunks.
    manager = VersionedStorageManager(root, chunk_bytes=800,
                                      compressor="none",
                                      delta_codec="hybrid",
                                      delta_policy="chain",
                                      backend=backend)
    manager.create_array(ARRAY, ArraySchema.simple((20, 20),
                                                   dtype=np.int64))
    data = rng.integers(0, 1000, (20, 20)).astype(np.int64)
    for _ in range(versions):
        manager.insert(ARRAY, data)
        mask = rng.random((20, 20)) > 0.9
        data = np.where(mask, data + 1, data)
    return manager


def _cell(root: Path, backend: str, degree: int, depth: int,
          rng: np.random.Generator) -> dict:
    """One store of ``depth`` versions and the figure's query on it."""
    manager = _build(root, depth, rng, backend=backend)
    with manager.stats.measure() as window:
        # The figure's region: the top half, overlapping the two upper
        # chunks.
        manager.select_region(ARRAY, depth, (0, 0), (9, 19))
    row = {
        "backend": backend,
        "workers": degree,
        "chain_depth": depth,
        "chunks_overlapping_query": 2,
        "chunks_read": window.chunks_read,
        "file_opens": window.file_opens,
        "ranged_gets": window.ranged_gets,
        "bytes_over_fetched": window.bytes_over_fetched,
        "fingerprint": manager.fingerprint(ARRAY),
    }
    manager.close()
    return row


def run(max_chain: int = 6, *, backends=None, workers=None,
        workdir: str | None = None,
        json_path: str | Path | None = None,
        quiet: bool = False) -> list[dict]:
    """Measure chunks read for the Figure 2 query at several depths."""
    rows = []
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        for backend in backend_axis(backends):
            for degree in workers_axis(workers):
                rng = np.random.default_rng(2012)
                with fan_width(degree):
                    for depth in range(1, max_chain + 1):
                        rows.append(_cell(
                            Path(scratch) / backend / f"w{degree}-d{depth}",
                            backend, degree, depth, rng))

    if json_path is not None:
        Path(json_path).write_text(json.dumps(rows, indent=2))
    if not quiet:
        print_table(
            "Figure 2: chunk reads for a 2-chunk region query vs chain "
            "depth (depth 3 = the paper's 6-chunk diagram)",
            ["Backend", "Workers", "Chain Depth", "Chunks In Region",
             "Chunks Read", "File Opens", "Ranged GETs", "Over-fetched"],
            [[row["backend"], str(row["workers"]),
              str(row["chain_depth"]),
              str(row["chunks_overlapping_query"]),
              str(row["chunks_read"]),
              str(row["file_opens"]),
              str(row["ranged_gets"]),
              str(row["bytes_over_fetched"])] for row in rows])
    return rows


if __name__ == "__main__":  # pragma: no cover
    run(backends=("local", "memory", "object"), workers=(1, 4),
        json_path="BENCH_fig2.json")
