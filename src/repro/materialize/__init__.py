"""Version materialization algorithms (Section IV).

Decides which versions of an array to store in full and which to delta
against which others, minimizing total storage (spanning tree / forest
algorithms) or workload I/O cost (workload-aware layouts), with
incremental policies for newly arriving versions.
"""

from repro.materialize.layout import Layout
from repro.materialize.matrix import MaterializationMatrix
from repro.materialize.spanning import (
    UnionFind,
    algorithm1_mst,
    algorithm2_forest,
    kruskal_mst,
    optimal_layout,
    prim_mst,
)
from repro.materialize.workload_opt import (
    RangeQuery,
    RegionQuery,
    SnapshotQuery,
    WeightedQuery,
    Workload,
    exhaustive_optimal,
    greedy_workload_layout,
    head_biased_layout,
    segmented_layout,
    workload_aware_layout,
    workload_cost,
)

__all__ = [
    "Layout",
    "MaterializationMatrix",
    "RangeQuery",
    "RegionQuery",
    "SnapshotQuery",
    "UnionFind",
    "WeightedQuery",
    "Workload",
    "algorithm1_mst",
    "algorithm2_forest",
    "exhaustive_optimal",
    "greedy_workload_layout",
    "head_biased_layout",
    "kruskal_mst",
    "optimal_layout",
    "prim_mst",
    "segmented_layout",
    "workload_aware_layout",
    "workload_cost",
]
