"""The space-optimal layout via the virtual-root spanning tree (Section IV-C).

:func:`optimal_layout` is the exact formulation the paper's analysis
implies: add a *virtual root* node connected to every version i with
edge weight MM(i, i).  Spanning trees of the augmented graph are in
one-to-one correspondence with valid layouts (versions adjacent to the
virtual root are materialized), so the MST of the augmented graph is
the provably space-optimal layout, with no single-materialization
assumption needed.  The paper's own heuristics, Algorithm 1 (one MST,
one materialization) and Algorithm 2 (split that tree where
materializing wins), live with the reproduction in
``benchmarks/paper/spanning.py``; its tests check they never beat this
optimum.
"""

from __future__ import annotations

from repro.materialize.layout import Layout, UnionFind
from repro.materialize.matrix import MaterializationMatrix


def optimal_layout(matrix: MaterializationMatrix) -> Layout:
    """Exact space-optimal layout via the virtual-root MST reduction.

    Add the virtual root ("the disk", ``None``) with an edge of weight
    MM(i, i) to every version i.  Any valid layout corresponds to a
    spanning tree of the augmented complete graph and vice versa, with
    identical total cost, so the MST is the global optimum over all
    spanning forests and materialization choices.

    Kruskal sorts the edges by weight alone; the sort is stable, with
    the virtual edges listed first and then the pairs i < j, and that
    order breaks every tie — so it decides which bytes ``reorganize``
    stores.
    """
    versions = matrix.versions
    edges: list[tuple[float, int | None, int]] = [
        (float(matrix.costs[i, i]), None, version)
        for i, version in enumerate(versions)]
    for i in range(len(versions)):
        for j in range(i + 1, len(versions)):
            edges.append((float(matrix.costs[i, j]),
                          versions[i], versions[j]))

    forest = UnionFind([None, *versions])
    tree = [(a, b) for _, a, b in sorted(edges, key=lambda e: e[0])
            if forest.union(a, b)]
    return Layout.from_tree(tree).require_valid()
