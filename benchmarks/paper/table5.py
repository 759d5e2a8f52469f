"""Table V — NOAA and ConceptNet under the five workloads.

Paper protocol: each data set is stored under three compression
configurations — hybrid deltas + LZ (H+LZ), hybrid deltas only (H), and
no compression — and the Head / Random / Range / Update / Mixed
workloads of Section V-B run against each.

Paper's headline shapes: the delta configurations compress NOAA ~3:1
and CNet ~35:1 ("CNet compresses so well because the data is very
sparse"); compression costs query time (None is fastest almost
everywhere); Head queries on H are much cheaper than Random/Range
because the head of the chain is shallow.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from paper.harness import cold_head, fmt_bytes, fmt_seconds, print_table
from repro.core.array import SparsePayload
from repro.core.schema import ArraySchema
from repro.datasets import conceptnet_series, noaa_series
from repro.storage import POLICY_CHAIN, POLICY_MATERIALIZE, \
    VersionedStorageManager
from paper.workloads import (
    TABLE5_WORKLOADS,
    run_workload,
    workload_by_name,
)

#: Configuration name -> manager keyword arguments (Table V's rows).
CONFIGURATIONS = {
    "H+LZ": dict(compressor="lz", delta_codec="hybrid+lz",
                 delta_policy=POLICY_CHAIN),
    "H": dict(compressor="none", delta_codec="hybrid",
              delta_policy=POLICY_CHAIN),
    "None": dict(compressor="none", delta_policy=POLICY_MATERIALIZE),
}


def _load_noaa(root: Path, config: dict, versions: int,
               shape: tuple[int, int],
               chunk_bytes: int) -> VersionedStorageManager:
    manager = VersionedStorageManager(root, chunk_bytes=chunk_bytes,
                                      **config)
    frames = noaa_series(versions, shape=shape)["humidity"]
    manager.create_array("noaa",
                         ArraySchema.simple(shape, dtype=np.float32))
    for frame in frames:
        manager.insert("noaa", frame)
    return manager


def _load_cnet(root: Path, config: dict, versions: int, size: int,
               nnz: int, chunk_bytes: int) -> VersionedStorageManager:
    manager = VersionedStorageManager(root, chunk_bytes=chunk_bytes,
                                      **config)
    manager.create_array(
        "cnet", ArraySchema.simple((size, size), dtype=np.int32))
    for snapshot in conceptnet_series(versions, size=size, nnz=nnz):
        manager.insert("cnet", SparsePayload.of(snapshot.coords,
                                                snapshot.values))
    return manager


def run(versions: int = 10, *, noaa_shape: tuple[int, int] = (96, 96),
        cnet_size: int = 256, cnet_nnz: int = 1500,
        chunk_bytes: int = 16 * 1024, workdir: str | None = None,
        quiet: bool = False) -> list[dict]:
    """Regenerate Table V at reproduction scale."""
    rows = []
    loaders = {
        "NOAA": lambda root, config: _load_noaa(
            root, config, versions, noaa_shape, chunk_bytes),
        "CNet": lambda root, config: _load_cnet(
            root, config, versions, cnet_size, cnet_nnz, chunk_bytes),
    }
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        for dataset, loader in loaders.items():
            for config_name, config in CONFIGURATIONS.items():
                root = Path(scratch) / dataset / config_name
                manager = loader(root, dict(config))
                array = dataset.lower()
                size = manager.stored_bytes(array)
                row = {
                    "dataset": dataset,
                    "compression": config_name,
                    "size_bytes": size,
                }
                for workload_name in TABLE5_WORKLOADS:
                    # Updates mutate version count; regenerate per run.
                    count = len(manager.get_versions(array))
                    operations = workload_by_name(workload_name, count)
                    cold_head(manager, array)
                    report = run_workload(manager, array, operations,
                                          name=workload_name)
                    row[f"{workload_name}_seconds"] = report.seconds
                    row[f"{workload_name}_chunks"] = report.chunks_read
                rows.append(row)
                manager.catalog.close()

    if not quiet:
        print_table(
            "Table V: NOAA and ConceptNet workloads",
            ["Data", "Comp.", "Size", "Head", "Head chunks", "Rand.",
             "Range", "Up.", "Mix."],
            [[row["dataset"], row["compression"],
              fmt_bytes(row["size_bytes"]),
              fmt_seconds(row["head_seconds"]),
              str(row["head_chunks"]),
              fmt_seconds(row["random_seconds"]),
              fmt_seconds(row["range_seconds"]),
              fmt_seconds(row["update_seconds"]),
              fmt_seconds(row["mixed_seconds"])] for row in rows])
    return rows


if __name__ == "__main__":  # pragma: no cover
    run()
