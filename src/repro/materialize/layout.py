"""Version layouts: the graph model of Section IV-B.

A *layout* records, for every version, either that it is materialized or
which other version it is delta-encoded against.  In the paper's graph
representation each version is a node with exactly one incoming arc — a
self-loop for materialization, or an arc from its delta base — so a
layout of n versions always contains n edges (Observation 1).

Validity (the ability to reconstruct every version) is characterized by
Observations 2–4:

* Obs. 2 — any undirected cycle of length > 1 makes the layout invalid;
* Obs. 3 — a layout whose every connected component has exactly one
  materialized version is valid;
* Obs. 4 — a layout without undirected cycles is always valid; ignoring
  materialization self-loops, a valid layout graph is a *polytree*
  (here, since every node stores its base, a forest of rooted trees).

:class:`Layout` is a thin immutable mapping ``version -> parent`` (None
meaning materialized) with the validity predicate (over
:class:`UnionFind`, the package's one union-find), cost evaluation
against a :class:`~repro.materialize.matrix.MaterializationMatrix`, the
closure computation used by the workload-aware cost model of Section
IV-D, and :meth:`Layout.from_tree`, the one orientation of a spanning
tree of the virtual-root graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.errors import InvalidLayoutError
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


@dataclass(frozen=True)
class Layout:
    """An encoding strategy for a collection of versions."""

    parent_of: Mapping[int, int | None]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent_of", dict(self.parent_of))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def versions(self) -> tuple[int, ...]:
        return tuple(sorted(self.parent_of))

    @property
    def materialized(self) -> tuple[int, ...]:
        """The roots: versions stored in full."""
        return tuple(sorted(v for v, p in self.parent_of.items()
                            if p is None))

    @property
    def edge_count(self) -> int:
        """Observation 1: always n (self-loops included)."""
        return len(self.parent_of)

    def is_valid(self) -> bool:
        """Whether every version can be reconstructed.

        Checks the Observation 3/4 characterization: delta edges must
        form a forest (no undirected cycle), every parent must be a
        version of the layout, and — because each node has exactly one
        incoming arc by construction — each tree then contains exactly
        one materialized root.
        """
        forest = UnionFind(self.parent_of)
        for version, base in self.parent_of.items():
            if base is None:
                continue
            if base not in self.parent_of or base == version:
                return False
            if not forest.union(version, base):
                return False  # undirected cycle (Observation 2)
        return True

    def require_valid(self) -> "Layout":
        if not self.is_valid():
            raise InvalidLayoutError(
                f"layout cannot reconstruct all versions: {self.parent_of}")
        return self

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def total_size(self, matrix: MaterializationMatrix) -> float:
        """Total storage bytes of the layout under the matrix."""
        return sum(matrix.size(v, p) for v, p in self.parent_of.items())

    def stored_size_of(self, version: int,
                       matrix: MaterializationMatrix) -> float:
        """Bytes this layout uses for one version."""
        return matrix.size(version, self.parent_of[version])

    def path_to_root(self, version: int) -> list[int]:
        """Versions on the reconstruction path, starting at ``version``."""
        if version not in self.parent_of:
            raise InvalidLayoutError(
                f"version {version} not in layout {sorted(self.parent_of)}")
        path = [version]
        seen = {version}
        cursor = self.parent_of[version]
        while cursor is not None:
            if cursor in seen:
                raise InvalidLayoutError(
                    f"cycle while resolving version {version}")
            path.append(cursor)
            seen.add(cursor)
            cursor = self.parent_of[cursor]
        return path

    def closure(self, requested: Iterable[int]) -> set[int]:
        """All versions that must be retrieved to answer a query.

        Section IV-D: "the union of all versions directly accessed by the
        query, plus all further versions that have to be retrieved in
        order to reconstruct the accessed versions."
        """
        needed: set[int] = set()
        for version in requested:
            needed.update(self.path_to_root(version))
        return needed

    def io_cost(self, requested: Iterable[int],
                matrix: MaterializationMatrix) -> float:
        """Cost_Lambda(q) ~ sum of stored sizes over the closure."""
        return sum(self.stored_size_of(v, matrix)
                   for v in self.closure(requested))

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def with_parent(self, version: int, parent: int | None) -> "Layout":
        """A copy with one version's encoding changed."""
        updated = dict(self.parent_of)
        updated[version] = parent
        return Layout(updated)

    @classmethod
    def from_tree(cls, edges: Iterable[tuple[int | None, int | None]]
                  ) -> "Layout":
        """Orient a spanning tree of the virtual-root graph.

        ``None`` is the virtual root, "the disk": a version adjacent to
        it is materialized, every other version deltas against its
        neighbour on the path to it.  A tree has one orientation from a
        given root, so the order of ``edges`` does not change the
        layout.
        """
        adjacency: dict[int | None, list[int | None]] = {None: []}
        for a, b in edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        parent_of: dict[int, int | None] = {}
        stack: list[tuple[int | None, int | None]] = [(None, None)]
        seen: set[int | None] = {None}
        while stack:
            node, parent = stack.pop()
            if node is not None:
                parent_of[node] = parent
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append((neighbour, node))
        return cls(parent_of)

    @classmethod
    def linear_chain(cls, versions: Iterable[int],
                     newest_materialized: bool = False) -> "Layout":
        """The baseline of Section V-D: a simple linear chain of deltas.

        With ``newest_materialized`` False the *first* version is stored
        in full and each later version is delta'ed against its
        predecessor (the natural insert order); True flips the chain to
        be "differenced backwards in time from the most recently added
        version".
        """
        ordered = sorted(versions)
        if not ordered:
            raise InvalidLayoutError("cannot lay out zero versions")
        parent_of: dict[int, int | None] = {}
        if newest_materialized:
            parent_of[ordered[-1]] = None
            for previous, current in zip(ordered, ordered[1:]):
                parent_of[previous] = current
        else:
            parent_of[ordered[0]] = None
            for previous, current in zip(ordered, ordered[1:]):
                parent_of[current] = previous
        return cls(parent_of)

    @classmethod
    def all_materialized(cls, versions: Iterable[int]) -> "Layout":
        """Every version stored in full (the uncompressed baseline)."""
        return cls({v: None for v in versions})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Layout({dict(sorted(self.parent_of.items()))})"
