"""Table III — OSM snapshot queries (latest version, full + subselect).

Paper's rows (1 GB tiles, 10 MB chunks):

                            1 Array Select        1 Array Subselect
    Chunks + Deltas         1.53 GB   42.63 s     30.20 MB   0.96 s
    Chunks                  1.00 GB   27.38 s     30.20 MB   1.06 s
    Chunks + Deltas + LZ    0.13 GB   18.63 s      2.90 MB   0.61 s
    Uncompressed            1.00 GB  192.0  s      1.0  GB  19.65 s

Expected shape: chunking makes subselects read ~1/chunk-count of the
data; delta chains inflate snapshot reads of the *latest* version (the
whole chain must be unwound); LZ reads the least; the unchunked baseline
must read the full tile even for a subselect.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from paper.harness import (
    cold_head,
    fmt_bytes,
    fmt_seconds,
    print_table,
    timed,
)
from paper.osm_stores import ARRAY, build_all, one_chunk_region


def run(versions: int = 16, shape: tuple[int, int] = (512, 512), *,
        chunk_bytes: int = 16 * 1024, workdir: str | None = None,
        quiet: bool = False) -> list[dict]:
    """Regenerate Table III at reproduction scale."""
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        tiles, stores = build_all(Path(scratch), versions=versions,
                                  shape=shape, chunk_bytes=chunk_bytes)
        latest = len(tiles)
        rows = []
        for name, (manager, _import_seconds) in stores.items():
            cold_head(manager, ARRAY)
            with manager.stats.measure() as full_io, timed() as full_timer:
                out = manager.select(ARRAY, latest)
            assert out.single().tobytes() == tiles[-1].tobytes()

            lo, hi = one_chunk_region(manager)
            with manager.stats.measure() as sub_io, timed() as sub_timer:
                window = manager.select_region(ARRAY, latest, lo, hi)
            expected = tiles[-1][tuple(slice(l, h + 1)
                                       for l, h in zip(lo, hi))]
            assert window.single().tobytes() == expected.tobytes()

            rows.append({
                "method": name,
                "select_bytes": full_io.bytes_read,
                "select_seconds": full_timer.seconds,
                "subselect_bytes": sub_io.bytes_read,
                "subselect_seconds": sub_timer.seconds,
            })

        if not quiet:
            print_table(
                f"Table III: OSM snapshot query "
                f"({tiles[0].nbytes / 2**10:.0f} KB tiles, "
                f"{chunk_bytes / 2**10:.0f} KB chunks)",
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
