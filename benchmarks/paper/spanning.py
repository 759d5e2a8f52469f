"""The paper's spanning tree and forest heuristics (Section IV-B/C).

The store lays versions out by the exact virtual-root optimum,
:func:`repro.materialize.spanning.optimal_layout`.  The paper's own
algorithms live here, with the reproduction; no store path runs them:

* :func:`algorithm1_mst` — Algorithm 1: build the undirected
  materialization graph over the delta costs, take its minimum spanning
  tree, root it at the cheapest materialization, and orient the deltas
  away from the root.  Optimal under the assumption that materializing
  always costs more than any delta
  (:func:`materialization_always_larger`).

* :func:`algorithm2_forest` — Algorithm 2 (Appendix B): start from
  Algorithm 1's tree, then repeatedly consider versions whose
  materialization is cheaper than some delta on their path to the root;
  if the most expensive such delta exceeds the materialization cost,
  split the tree there and materialize the version — producing a minimum
  spanning *forest* with multiple roots.  This greedy split is the
  paper's heuristic.

A union-find Kruskal (the store's :class:`~repro.materialize.layout.
UnionFind`) and a Prim implementation are both here; Kruskal is the
default, Prim exists for cross-validation.  Trees are oriented by the
store's :meth:`~repro.materialize.layout.Layout.from_tree`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.errors import ReproError
from repro.materialize.layout import Layout, UnionFind
from repro.materialize.matrix import MaterializationMatrix


def materialization_always_larger(matrix: MaterializationMatrix) -> bool:
    """Section IV-C's simplifying assumption: MM(i,i) > MM(i,j) for all j.

    When it holds, the optimal layout has exactly one materialized
    version (the plain MST case); otherwise the spanning *forest*
    generalization can win.
    """
    diag = np.diag(matrix.costs)
    off = matrix.costs.copy()
    np.fill_diagonal(off, -np.inf)  # exclude self-comparisons
    return bool(np.all(diag[:, None] > off - 1e-12))


def kruskal_mst(nodes: list[int],
                edges: list[tuple[float, int, int]]
                ) -> list[tuple[float, int, int]]:
    """Minimum spanning tree/forest edges via Kruskal's algorithm."""
    forest = UnionFind(nodes)
    chosen = []
    for weight, a, b in sorted(edges):
        if forest.union(a, b):
            chosen.append((weight, a, b))
    return chosen


def prim_mst(nodes: list[int],
             weight_of: dict[tuple[int, int], float]
             ) -> list[tuple[float, int, int]]:
    """Minimum spanning tree edges via Prim's algorithm (dense graphs)."""
    if not nodes:
        return []
    start = nodes[0]
    visited = {start}
    frontier = [(w, start, b) for (a, b), w in weight_of.items()
                if a == start]
    heapq.heapify(frontier)
    chosen = []
    while frontier and len(visited) < len(nodes):
        weight, a, b = heapq.heappop(frontier)
        if b in visited:
            continue
        visited.add(b)
        chosen.append((weight, a, b))
        for (x, y), w in weight_of.items():
            if x == b and y not in visited:
                heapq.heappush(frontier, (w, b, y))
    if len(visited) != len(nodes):
        raise ReproError("graph is not connected")
    return chosen


def algorithm1_mst(matrix: MaterializationMatrix,
                   use_prim: bool = False) -> Layout:
    """The paper's Algorithm 1: MST of deltas, cheapest version as root."""
    versions = matrix.versions
    if len(versions) == 1:
        return Layout({versions[0]: None})

    if use_prim:
        weight_of = {}
        for i, a in enumerate(versions):
            for j, b in enumerate(versions):
                if i != j:
                    weight_of[(a, b)] = float(matrix.costs[i, j])
        mst = prim_mst(list(versions), weight_of)
    else:
        edges = [(float(matrix.costs[i, j]), versions[i], versions[j])
                 for i in range(len(versions))
                 for j in range(i + 1, len(versions))]
        mst = kruskal_mst(list(versions), edges)

    # The root's one edge to the virtual root materializes it.
    root = min(versions, key=matrix.materialize_size)
    return Layout.from_tree(
        [(None, root), *((a, b) for _, a, b in mst)]).require_valid()


def algorithm2_forest(matrix: MaterializationMatrix) -> Layout:
    """The paper's Algorithm 2: split the MST where materializing wins.

    "If there exists a delta on the path from that version to the root of
    the tree that is more expensive than the materialization, then it is
    advantageous to split the graph by materializing that version
    instead."  Applied greedily, best gain first, until no positive gain
    remains.
    """
    layout = algorithm1_mst(matrix)
    while True:
        best_gain = 0.0
        best_version = None
        for version in layout.versions:
            if layout.parent_of[version] is None:
                continue
            # Most expensive delta on the path from `version` to its root.
            path = layout.path_to_root(version)
            edge_costs = [matrix.delta_size(child, parent)
                          for child, parent in zip(path, path[1:])]
            most_expensive = max(edge_costs)
            gain = most_expensive - matrix.materialize_size(version)
            if gain > best_gain + 1e-9:
                best_gain = gain
                best_version = version
        if best_version is None:
            return layout.require_valid()
        layout = _split_at(layout, best_version, matrix)


def _split_at(layout: Layout, version: int,
              matrix: MaterializationMatrix) -> Layout:
    """Cut the most expensive path edge above ``version``; re-root at it."""
    path = layout.path_to_root(version)
    edge_costs = [matrix.delta_size(child, parent)
                  for child, parent in zip(path, path[1:])]
    cut_index = int(np.argmax(edge_costs))
    # Cutting the edge (path[k], path[k+1]) detaches the subtree holding
    # `version`; re-root that subtree at `version` by reversing the
    # parent pointers strictly below the cut.  (The matrix is symmetric,
    # so reversing an edge keeps its cost; apply_layout re-encodes the
    # reversed edge in its new direction.)
    parent_of = dict(layout.parent_of)
    for child, parent in list(zip(path, path[1:]))[:cut_index]:
        parent_of[parent] = child
    parent_of[version] = None
    return Layout(parent_of)
