"""Tour of the version materialization optimizer (Section IV).

Builds a Materialization Matrix over a periodic frame series, compares
the layouts the store runs — the linear chain it writes, the exact
virtual-root optimum, head-biased and workload-aware — and applies the
best one to a live store via background re-organization (Section IV-E).
The paper's Algorithms 1 and 2 live with the reproduction, in
``benchmarks/paper/spanning.py``.

Run with::

    python examples/optimizer_tour.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import (
    ArraySchema,
    Layout,
    MaterializationMatrix,
    RangeQuery,
    SnapshotQuery,
    WeightedQuery,
    head_biased_layout,
    optimal_layout,
    workload_aware_layout,
)
from repro.datasets import panorama_series
from repro.materialize import workload_cost
from repro.storage import VersionedStorageManager


def main() -> None:
    frames = panorama_series(16, shape=(64, 64), period=4)
    contents = {i: frame for i, frame in enumerate(frames, 1)}

    matrix = MaterializationMatrix.build(contents)
    print(f"materialization matrix: {matrix.n}x{matrix.n}, "
          f"MM(1,1)={matrix.materialize_size(1):.0f} B, "
          f"MM(1,5)={matrix.delta_size(1, 5):.0f} B (same scene), "
          f"MM(1,3)={matrix.delta_size(1, 3):.0f} B (opposite phase)")

    layouts = {
        "linear chain": Layout.linear_chain(contents),
        "virtual-root optimum": optimal_layout(matrix),
        "head-biased (IV-E)": head_biased_layout(matrix),
    }
    print("\nstorage cost by layout:")
    for name, layout in layouts.items():
        print(f"  {name:22s} {layout.total_size(matrix):9.0f} B "
              f"({len(layout.materialized)} materialized)")

    # A workload that hammers the newest version plus one scene replay.
    workload = [
        WeightedQuery(SnapshotQuery(16), weight=8.0),
        WeightedQuery(RangeQuery(13, 16), weight=2.0),
        WeightedQuery(SnapshotQuery(4), weight=1.0),
    ]
    tuned = workload_aware_layout(matrix, workload)
    print("\nworkload-aware layout:")
    for name, layout in [*layouts.items(), ("workload-aware", tuned)]:
        cost = workload_cost(layout, workload, matrix)
        print(f"  {name:22s} I/O cost {cost:10.0f}")

    # Apply the optimum to a live store (background re-organization).
    with tempfile.TemporaryDirectory() as root:
        manager = VersionedStorageManager(root, chunk_bytes=32 * 1024,
                                          compressor="lz",
                                          delta_codec="hybrid+lz")
        manager.create_array(
            "pano", ArraySchema.simple(frames[0].shape, dtype=np.uint8))
        for frame in frames:
            manager.insert("pano", frame)
        before = manager.store.total_bytes("pano")
        manager.apply_layout("pano", dict(optimal_layout(matrix).parent_of))
        after = manager.store.total_bytes("pano")
        print(f"\nlive store re-organized: {before // 1024} KB -> "
              f"{after // 1024} KB")
        # Every version still reconstructs exactly.
        for version, frame in contents.items():
            assert np.array_equal(
                manager.select("pano", version).single(), frame)
        print("all versions verified byte-exact after re-organization")
        manager.catalog.close()


if __name__ == "__main__":
    main()
