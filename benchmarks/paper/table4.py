"""Table IV — OSM range queries (all 16 versions, full + subselect).

Paper's rows:

                            16 Array Select       16 Array Subselect
    Chunks + Deltas          2.00 GB  249.80 s     42.50 MB   6.86 s
    Chunks                  15.00 GB  451.01 s    450.00 MB  14.17 s
    Chunks + Deltas + LZ     1.89 GB  335.22 s     39.50 MB  10.32 s
    Uncompressed            15.00 GB  289.16 s    15.00 GB  276.18 s

Expected shape: for range queries the delta chain amortizes — reading
all 16 versions costs barely more than one materialized version plus the
small deltas, while the materialized configurations read 16 full tiles.
LZ reads the least but pays decompression CPU (the paper found it
slightly *slower* than plain deltas here).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from paper.harness import fmt_bytes, fmt_seconds, print_table, timed
from paper.osm_stores import ARRAY, build_all, one_chunk_region


def run(versions: int = 16, shape: tuple[int, int] = (512, 512), *,
        chunk_bytes: int = 16 * 1024, workdir: str | None = None,
        quiet: bool = False) -> list[dict]:
    """Regenerate Table IV at reproduction scale."""
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        tiles, stores = build_all(Path(scratch), versions=versions,
                                  shape=shape, chunk_bytes=chunk_bytes)
        all_versions = list(range(1, len(tiles) + 1))
        rows = []
        for name, (manager, _import_seconds) in stores.items():
            with manager.stats.measure() as full_io, timed() as full_timer:
                stack = manager.select_versions(ARRAY, all_versions)
            assert stack.shape == (len(tiles),) + tiles[0].shape
            np.testing.assert_array_equal(stack[-1], tiles[-1])

            lo, hi = one_chunk_region(manager)
            with manager.stats.measure() as sub_io, timed() as sub_timer:
                window = manager.select_versions_region(
                    ARRAY, all_versions, lo, hi)
            assert window.shape[0] == len(tiles)

            rows.append({
                "method": name,
                "select_bytes": full_io.bytes_read,
                "select_seconds": full_timer.seconds,
                "subselect_bytes": sub_io.bytes_read,
                "subselect_seconds": sub_timer.seconds,
            })

        if not quiet:
            print_table(
                f"Table IV: OSM range query over {len(tiles)} versions",
                ["Method", "Select Bytes", "Select Time",
                 "Subselect Bytes", "Subselect Time"],
                [[row["method"],
                  fmt_bytes(row["select_bytes"]),
                  fmt_seconds(row["select_seconds"]),
                  fmt_bytes(row["subselect_bytes"]),
                  fmt_seconds(row["subselect_seconds"])] for row in rows])
        for manager, _ in stores.values():
            manager.catalog.close()
        return rows


if __name__ == "__main__":  # pragma: no cover
    run()
