"""Read-throughput scan — deep delta-chain selects.

Deep delta chains are where Section III's chain policy pays its read
amplification: a depth-*k* select must decode *k* delta levels on top
of the materialized root.  The fused decode folds every
level straight into one copy of the root, at the cells' own width —
dense levels over every cell, sparse and hybrid levels by an O(nnz)
scatter.

This experiment measures that read on multi-MB chunks.  The grid is
``chain_depth`` x ``delta_codec`` x ``backend`` x ``native`` (the
compiled decode kernels vs the numpy fallbacks, swept in-process via
:func:`repro.core.native.disabled`; the axis collapses to native=0
on hosts without a compiler) and each cell reports:

* ``mb_per_sec`` / ``select_seconds`` — logical version bytes over the
  deep select's wall clock (min-of-N, volatile columns);
* ``chains_fused`` / ``fused_levels`` / ``scatter_levels`` — the
  :class:`IOStats` fused-read counters for one deep select, identity
  columns pinning which decode path the cell actually ran;
* ``fingerprint`` — the store's SHA-256, byte-identical between the
  ``native`` rows of one (depth, codec, backend) store *by
  construction* (both rows read the same store) and stable across
  runs for the regression gate.
"""

from __future__ import annotations

import contextlib
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.bench.harness import (
    backend_axis,
    native_axis,
    print_table,
    timed,
)
from repro.core import native
from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager

ARRAY = "scan"
#: 1024x1024 int64 = 8 MiB per version; with an 8 MiB chunk budget the
#: array is a single 1M-value chunk — 16 tiles of the blocked unpack.
SHAPE = (1024, 1024)
CHUNK_BYTES = 8 << 20
DEFAULT_DEPTHS = (2, 8)
DEFAULT_CODECS = ("dense", "sparse", "hybrid")


def _versions(depth: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One root plus ``depth - 1`` sparse mutations (~1% of cells
    bumped by up to 2^20, so per-level codes stay ~21 bits wide and the
    chain policy keeps every level a delta)."""
    cur = rng.integers(0, 1 << 20, SHAPE, dtype=np.int64)
    out = [cur]
    cells = SHAPE[0] * SHAPE[1]
    for _ in range(depth - 1):
        cur = cur.copy()
        picks = rng.choice(cells, cells // 100, replace=False)
        flat = cur.reshape(-1)
        flat[picks] += rng.integers(1, 1 << 20, picks.size)
        out.append(cur)
    return out


def _build(root: Path, codec: str, versions: list[np.ndarray],
           backend: str) -> VersionedStorageManager:
    manager = VersionedStorageManager(root, chunk_bytes=CHUNK_BYTES,
                                      compressor="none",
                                      delta_codec=codec,
                                      delta_policy="chain",
                                      backend=backend)
    manager.create_array(ARRAY, ArraySchema.simple(SHAPE,
                                                   dtype=np.int64))
    for data in versions:
        manager.insert(ARRAY, data)
    return manager


def _time_select(manager: VersionedStorageManager, depth: int,
                 repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        with timed() as clock:
            manager.select(ARRAY, depth)
        best = min(best, clock.seconds)
    return best


def run(depths=DEFAULT_DEPTHS, codecs=DEFAULT_CODECS, *,
        backends=None, repeats: int = 3,
        workdir: str | None = None,
        json_path: str | Path | None = None,
        quiet: bool = False) -> list[dict]:
    """Measure deep-select throughput across the scan grid.

    Each (depth, codec, backend) cell builds one store, then times the
    deepest select under each native setting, asserting the selected
    bytes before recording the rows.
    """
    rows = []
    logical_mb = (SHAPE[0] * SHAPE[1] * 8) / 1e6
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        for backend in backend_axis(backends):
            for codec in codecs:
                rng = np.random.default_rng(2012)
                for depth in depths:
                    root = Path(scratch) / backend / codec / str(depth)
                    versions = _versions(depth, rng)
                    manager = _build(root, codec, versions, backend)
                    fingerprint = manager.fingerprint(ARRAY)
                    for use_native in native_axis():
                        with contextlib.ExitStack() as stack:
                            if not use_native:
                                stack.enter_context(native.disabled())
                            got = manager.select(ARRAY, depth)
                            if not np.array_equal(got.attribute("value"),
                                                  versions[-1]):
                                raise AssertionError(
                                    f"select returned wrong bytes at "
                                    f"backend={backend} codec={codec} "
                                    f"depth={depth} native={use_native}")
                            with manager.stats.measure() as window:
                                manager.select(ARRAY, depth)
                            seconds = _time_select(manager, depth,
                                                   repeats)
                        rows.append({
                            "backend": backend,
                            "delta_codec": codec,
                            "chain_depth": depth,
                            "native": use_native,
                            "chains_fused": window.chains_fused,
                            "fused_levels": window.fused_levels,
                            "scatter_levels": window.scatter_levels,
                            "select_seconds": seconds,
                            "mb_per_sec": logical_mb / seconds,
                            "fingerprint": fingerprint,
                        })
                    manager.close()

    if json_path is not None:
        Path(json_path).write_text(json.dumps(rows, indent=2))
    if not quiet:
        print_table(
            "Scan throughput: deep-chain select (one store per cell)",
            ["Backend", "Codec", "Depth", "Native", "MB/s",
             "Fused Lvls", "Scatter Lvls"],
            [[row["backend"], row["delta_codec"],
              str(row["chain_depth"]), str(row["native"]),
              f"{row['mb_per_sec']:.0f}",
              str(row["fused_levels"]),
              str(row["scatter_levels"])]
             for row in rows])
    return rows


if __name__ == "__main__":  # pragma: no cover
    run(backends=("local", "object"), json_path="BENCH_scan.json")
