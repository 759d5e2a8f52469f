"""Design-choice ablations called out in DESIGN.md.

* **Chunk-size sweep** — Section V-B: "We experimented with various
  chunk sizes and in the end decided to use 10 MB for all experiments,
  since it gave good results for most settings."  The sweep reruns the
  Table III snapshot queries across chunk budgets to expose the
  trade-off: tiny chunks inflate per-chunk overhead on full scans, huge
  chunks destroy subselect locality.

* **Delta placement** — Section III-B.3's two on-disk layouts
  (per-version files vs co-located chains) and Section VI's remark that
  the co-location optimization "did not improve performance
  significantly" — measured on a range query over a delta chain.

* **Hybrid threshold** — the hybrid codec's exact cost search vs fixed
  small-code widths, quantifying what the "optimal threshold value"
  buys.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.bench.harness import fmt_bytes, fmt_seconds, print_table, timed
from repro.core.schema import ArraySchema
from repro.datasets import noaa_series, osm_series
from repro.delta import CodePlan, codes as code_store
from repro.storage import (
    COLOCATED,
    PER_VERSION,
    VersionedStorageManager,
)

ARRAY = "ablate"


def run_chunk_sweep(versions: int = 8,
                    shape: tuple[int, int] = (256, 256), *,
                    budgets: tuple[int, ...] = (2 * 1024, 8 * 1024,
                                                32 * 1024, 128 * 1024),
                    workdir: str | None = None,
                    quiet: bool = False) -> list[dict]:
    """Snapshot select/subselect times across chunk byte budgets."""
    tiles = osm_series(versions, shape=shape)
    rows = []
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        for budget in budgets:
            manager = VersionedStorageManager(
                Path(scratch) / str(budget), chunk_bytes=budget,
                compressor="none", delta_codec="hybrid",
                delta_policy="chain")
            manager.create_array(
                ARRAY, ArraySchema.simple(shape, dtype=np.uint8))
            for tile in tiles:
                manager.insert(ARRAY, tile)
            with timed() as full_timer:
                manager.select(ARRAY, versions)
            with manager.stats.measure() as sub_io, timed() as sub_timer:
                manager.select_region(ARRAY, versions, (0, 0), (15, 15))
            rows.append({
                "chunk_bytes": budget,
                "select_seconds": full_timer.seconds,
                "subselect_seconds": sub_timer.seconds,
                "subselect_bytes": sub_io.bytes_read,
            })
            manager.catalog.close()

    if not quiet:
        print_table(
            "Ablation: chunk-size sweep (OSM snapshot queries)",
            ["Chunk Size", "Select Time", "Subselect Time",
             "Subselect Bytes"],
            [[fmt_bytes(row["chunk_bytes"]),
              fmt_seconds(row["select_seconds"]),
              fmt_seconds(row["subselect_seconds"]),
              fmt_bytes(row["subselect_bytes"])] for row in rows])
    return rows


def run_placement(versions: int = 12,
                  shape: tuple[int, int] = (128, 128), *,
                  workdir: str | None = None,
                  quiet: bool = False) -> list[dict]:
    """Co-located delta chains vs per-version files on a range select."""
    frames = noaa_series(versions, shape=shape)["humidity"]
    rows = []
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        for placement in (COLOCATED, PER_VERSION):
            manager = VersionedStorageManager(
                Path(scratch) / placement, chunk_bytes=16 * 1024,
                compressor="none", delta_codec="hybrid",
                delta_policy="chain", placement=placement)
            manager.create_array(
                ARRAY, ArraySchema.simple(shape, dtype=np.float32))
            for frame in frames:
                manager.insert(ARRAY, frame)
            with timed() as range_timer:
                manager.select_versions(ARRAY,
                                        list(range(1, versions + 1)))
            file_count = sum(
                1 for path in (Path(scratch) / placement).rglob("*")
                if path.is_file())
            rows.append({
                "placement": placement,
                "range_seconds": range_timer.seconds,
                "files": file_count,
            })
            manager.catalog.close()

    if not quiet:
        print_table(
            "Ablation: delta placement (range select over the chain)",
            ["Placement", "Range Select Time", "Files On Disk"],
            [[row["placement"], fmt_seconds(row["range_seconds"]),
              str(row["files"])] for row in rows])
    return rows


def run_hybrid_threshold(versions: int = 6,
                         shape: tuple[int, int] = (128, 128), *,
                         quiet: bool = False) -> list[dict]:
    """Optimal hybrid split vs fixed small-code widths."""
    frames = noaa_series(versions, shape=shape)["humidity"]
    plans = [CodePlan.build(current, previous)
             for previous, current in zip(frames, frames[1:])]

    rows = []
    optimal_total = sum(code_store.hybrid_size(plan.codes, plan.stats)
                        for plan in plans)
    rows.append({"strategy": "optimal threshold",
                 "size_bytes": optimal_total})
    for fixed_bits in (0, 8, 16, 32):
        total = 0
        for plan in plans:
            n = plan.codes.size
            outliers = int(np.count_nonzero(
                plan.codes >> np.uint64(fixed_bits)))
            position_bits = max(1, (n - 1).bit_length())
            value_bits = 64
            total += ((n * fixed_bits + 7) // 8
                      + (outliers * position_bits + 7) // 8
                      + (outliers * value_bits + 7) // 8 + 11)
        rows.append({"strategy": f"fixed D={fixed_bits}",
                     "size_bytes": total})

    if not quiet:
        print_table(
            "Ablation: hybrid small-code width (NOAA deltas)",
            ["Strategy", "Total Size"],
            [[row["strategy"], fmt_bytes(row["size_bytes"])]
             for row in rows])
    return rows


if __name__ == "__main__":  # pragma: no cover
    run_chunk_sweep()
    run_placement()
    run_hybrid_threshold()
