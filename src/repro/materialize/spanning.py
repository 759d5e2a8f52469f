"""Space-optimal layouts via spanning trees and forests (Section IV-C).

Three algorithms are provided:

* :func:`algorithm1_mst` — the paper's Algorithm 1: build the undirected
  materialization graph over the delta costs, take its minimum spanning
  tree, root it at the cheapest materialization, and orient the deltas
  away from the root.  Optimal under the assumption that materializing
  always costs more than any delta.

* :func:`algorithm2_forest` — the paper's Algorithm 2 (Appendix B):
  start from Algorithm 1's tree, then repeatedly consider versions whose
  materialization is cheaper than some delta on their path to the root;
  if the most expensive such delta exceeds the materialization cost,
  split the tree there and materialize the version — producing a minimum
  spanning *forest* with multiple roots.  This greedy split is the
  paper's heuristic.

* :func:`optimal_layout` — an exact formulation the paper's analysis
  implies: add a *virtual root* node connected to every version i with
  edge weight MM(i, i).  Spanning trees of the augmented graph are in
  one-to-one correspondence with valid layouts (versions adjacent to the
  virtual root are materialized), so the MST of the augmented graph is
  the provably space-optimal layout, with no single-materialization
  assumption needed.  Tests verify Algorithm 1 matches it whenever the
  assumption holds and Algorithm 2 closes most of the gap otherwise.

A from-scratch union-find Kruskal and a Prim implementation are both
included; Kruskal is the default, Prim exists for cross-validation.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.errors import ReproError
from repro.materialize.layout import Layout
from repro.materialize.matrix import MaterializationMatrix


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self, items):
        self._parent = {item: item for item in items}
        self._size = {item: 1 for item in items}

    def find(self, item):
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; False when already joined."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return True


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


# ----------------------------------------------------------------------
# Layout algorithms
# ----------------------------------------------------------------------
def _orient_tree(versions: tuple[int, ...],
                 tree_edges: list[tuple[int, int]],
                 roots: list[int]) -> Layout:
    """Turn undirected tree edges + chosen roots into a Layout."""
    adjacency: dict[int, list[int]] = {v: [] for v in versions}
    for a, b in tree_edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent_of: dict[int, int | None] = {}
    stack = list(roots)
    for root in roots:
        parent_of[root] = None
    while stack:
        node = stack.pop()
        for neighbour in adjacency[node]:
            if neighbour not in parent_of:
                parent_of[neighbour] = node
                stack.append(neighbour)
    if len(parent_of) != len(versions):
        raise ReproError("tree does not span every version")
    return Layout(parent_of)


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

    root = min(versions, key=matrix.materialize_size)
    return _orient_tree(versions, [(a, b) for _, a, b in mst],
                        [root]).require_valid()


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


def optimal_layout(matrix: MaterializationMatrix) -> Layout:
    """Exact space-optimal layout via the virtual-root MST reduction.

    Add node -1 ("the disk") with an edge of weight MM(i, i) to every
    version i.  Any valid layout corresponds to a spanning tree of the
    augmented complete graph and vice versa, with identical total cost,
    so the MST is the global optimum over all spanning forests and
    materialization choices.
    """
    versions = matrix.versions
    virtual = object()  # sentinel that cannot collide with a version id
    nodes: list = [virtual, *versions]
    edges: list[tuple[float, object, object]] = []
    for i, version in enumerate(versions):
        edges.append((float(matrix.costs[i, i]), virtual, version))
    for i in range(len(versions)):
        for j in range(i + 1, len(versions)):
            edges.append((float(matrix.costs[i, j]),
                          versions[i], versions[j]))

    forest = UnionFind(nodes)
    chosen: list[tuple[object, object]] = []
    for weight, a, b in sorted(edges, key=lambda e: e[0]):
        if forest.union(a, b):
            chosen.append((a, b))

    # Orient away from the virtual root.
    adjacency: dict[object, list[object]] = {node: [] for node in nodes}
    for a, b in chosen:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent_of: dict[int, int | None] = {}
    stack: list[tuple[object, object | None]] = [(virtual, None)]
    seen = {virtual}
    while stack:
        node, parent = stack.pop()
        if node is not virtual:
            parent_of[node] = None if parent is virtual else parent
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append((neighbour, node))
    if len(parent_of) != len(versions):
        raise ReproError("virtual-root MST did not span all versions")
    return Layout(parent_of).require_valid()
