"""Section V-D (M5) — the workload-aware layout experiment.

Paper protocol: "We ran experiments on our weather data set considering
workloads with overlapping range queries (i.e., sets of range queries
retrieving 10 images each and overlapping by four versions exactly).
The resulting space optimal layouts consider longer delta-chains than
the I/O optimal layouts.  However, the I/O optimal layout proved to be
more efficient when executing the queries.  Our system took on average
1.51 s to resolve queries on the space optimal layout (results were
averaged over 30 runs), while it took only 1.10 s on average on the I/O
optimal layout, which corresponds to a speedup of 27%."

The reproduction stores one NOAA measurement series twice — once under
the space-optimal layout, once under the workload-aware layout — runs
the same overlapping range queries against both, and reports average
per-run time, bytes read, and the speedup.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from paper.harness import fmt_bytes, fmt_seconds, print_table, timed
from repro.core.schema import ArraySchema
from repro.datasets import noaa_series
from repro.materialize import (
    MaterializationMatrix,
    RangeQuery,
    WeightedQuery,
    optimal_layout,
    workload_aware_layout,
    workload_cost,
)
from repro.storage import VersionedStorageManager

ARRAY = "noaa"


def overlapping_ranges(version_count: int, length: int = 10,
                       overlap: int = 4) -> list[tuple[int, int]]:
    """Ranges of ``length`` versions overlapping by exactly ``overlap``."""
    ranges = []
    start = 1
    while start + length - 1 <= version_count:
        ranges.append((start, start + length - 1))
        start += length - overlap
    return ranges


def _build_store(root: Path, frames: list[np.ndarray],
                 chunk_bytes: int) -> VersionedStorageManager:
    manager = VersionedStorageManager(
        root, chunk_bytes=chunk_bytes, compressor="none",
        delta_codec="hybrid", delta_policy="chain")
    manager.create_array(
        ARRAY, ArraySchema.simple(frames[0].shape, dtype=frames[0].dtype))
    for frame in frames:
        manager.insert(ARRAY, frame)
    return manager


def _run_queries(manager: VersionedStorageManager,
                 ranges: list[tuple[int, int]], runs: int) -> dict:
    with manager.stats.measure() as io, timed() as timer:
        for _ in range(runs):
            for first, last in ranges:
                manager.select_versions(ARRAY,
                                        list(range(first, last + 1)))
    return {"seconds_per_run": timer.seconds / runs,
            "bytes_read": io.bytes_read // runs}


def run(versions: int = 22, shape: tuple[int, int] = (64, 64), *,
        range_length: int = 10, overlap: int = 4, runs: int = 5,
        chunk_bytes: int = 16 * 1024, workdir: str | None = None,
        quiet: bool = False) -> dict:
    """Regenerate the 27%-speedup experiment at reproduction scale."""
    frames = noaa_series(versions, shape=shape)["humidity"]
    ranges = overlapping_ranges(versions, range_length, overlap)
    workload = [WeightedQuery(RangeQuery(first, last), 1.0)
                for first, last in ranges]

    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        base = Path(scratch)
        space_manager = _build_store(base / "space", frames, chunk_bytes)
        io_manager = _build_store(base / "io", frames, chunk_bytes)

        matrix = MaterializationMatrix.from_manager(space_manager, ARRAY)
        space_layout = optimal_layout(matrix)
        io_layout = workload_aware_layout(matrix, workload)

        space_manager.apply_layout(ARRAY, dict(space_layout.parent_of))
        io_manager.apply_layout(ARRAY, dict(io_layout.parent_of))

        space = _run_queries(space_manager, ranges, runs)
        io = _run_queries(io_manager, ranges, runs)
        result = {
            "versions": versions,
            "ranges": ranges,
            "space_seconds": space["seconds_per_run"],
            "io_seconds": io["seconds_per_run"],
            "space_bytes": space["bytes_read"],
            "io_bytes": io["bytes_read"],
            "space_model_cost": workload_cost(space_layout, workload,
                                              matrix),
            "io_model_cost": workload_cost(io_layout, workload, matrix),
            "speedup": (space["seconds_per_run"] - io["seconds_per_run"])
            / space["seconds_per_run"],
            "space_materialized": len(space_layout.materialized),
            "io_materialized": len(io_layout.materialized),
        }
        space_manager.catalog.close()
        io_manager.catalog.close()

    if not quiet:
        print_table(
            f"Section V-D (M5): workload-aware layouts "
            f"({len(ranges)} overlapping {range_length}-version ranges)",
            ["Layout", "Materialized", "Bytes/Run", "Time/Run",
             "Model Cost"],
            [["Space optimal", str(result["space_materialized"]),
              fmt_bytes(result["space_bytes"]),
              fmt_seconds(result["space_seconds"]),
              fmt_bytes(result["space_model_cost"])],
             ["I/O optimal", str(result["io_materialized"]),
              fmt_bytes(result["io_bytes"]),
              fmt_seconds(result["io_seconds"]),
              fmt_bytes(result["io_model_cost"])]])
        print(f"speedup of I/O-optimal over space-optimal: "
              f"{result['speedup']:.0%} (paper: 27%)")
    return result


if __name__ == "__main__":  # pragma: no cover
    run()
