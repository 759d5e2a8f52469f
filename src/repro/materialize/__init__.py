"""Version materialization: the layouts ``reorganize`` runs (Section IV).

Decides which versions of an array to store in full and which to delta
against which others, minimizing total storage (the virtual-root
spanning tree, also under the head-biased constraint) or workload I/O
cost (workload-aware layouts).  The paper's Algorithms 1 and 2 and its
incremental policies for new versions live with the reproduction in
``benchmarks/paper/``.
"""

from repro.materialize.layout import Layout, UnionFind
from repro.materialize.matrix import MaterializationMatrix
from repro.materialize.spanning import optimal_layout
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
    "exhaustive_optimal",
    "greedy_workload_layout",
    "head_biased_layout",
    "optimal_layout",
    "segmented_layout",
    "workload_aware_layout",
    "workload_cost",
]
