"""Workload-aware layouts (Section IV-D).

Given a workload Q of weighted snapshot and range queries, the I/O
optimal layout minimizes

    Lambda_Q = argmin_Lambda sum_j w_j * Cost_Lambda(q_j)

where Cost_Lambda(q) is the total stored size of every version in the
query's reconstruction closure.  Exhaustive search is exponential (the
number of candidate spanning trees follows Cayley's formula), so the
module provides:

* :func:`exhaustive_optimal` — exact search by enumerating spanning
  trees of the virtual-root graph through Prüfer sequences; tractable
  for small n and used as ground truth in tests;
* :func:`greedy_workload_layout` — local search over single-version
  re-encoding moves, the practical default;
* :func:`segmented_layout` — the paper's divide-and-conquer heuristic
  for overlapping range queries: lay out each segment delineated by the
  query boundaries most compactly, giving each its own materialization;
* :func:`head_biased_layout` — the Section IV-E special case: "the
  newest version is always materialized since it is heavily queried",
  everything else stored most compactly;
* :func:`workload_aware_layout` — the front door: builds the candidate
  set, refines the best with greedy local search, returns the winner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.errors import ReproError, WorkloadError
from repro.materialize.layout import Layout
from repro.materialize.matrix import MaterializationMatrix
from repro.materialize.spanning import optimal_layout

#: The largest matrix :func:`exhaustive_optimal` enumerates: 8^6 trees.
EXHAUSTIVE_MAX_VERSIONS = 7
#: :func:`workload_aware_layout` searches exhaustively up to this size.
EXHAUSTIVE_LIMIT = 6
#: Moves :func:`greedy_workload_layout` applies before it stops.
GREEDY_MAX_ROUNDS = 100


# ----------------------------------------------------------------------
# Workload model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SnapshotQuery:
    """Read one version (optionally a sub-region; cost model treats the
    chunk set as proportional, per Section IV-D's byte proxy)."""

    version: int

    def versions(self) -> tuple[int, ...]:
        return (self.version,)


@dataclass(frozen=True)
class RangeQuery:
    """Read every version in an inclusive range (the stacked select)."""

    first: int
    last: int

    def __post_init__(self) -> None:
        if self.last < self.first:
            raise WorkloadError(
                f"range [{self.first}, {self.last}] is reversed")

    def versions(self) -> tuple[int, ...]:
        return tuple(range(self.first, self.last + 1))


@dataclass(frozen=True)
class RegionQuery:
    """Read a sub-region of one version (IV-D's "small portions of
    arbitrary versions").

    ``fraction`` is the share of the version's chunks the region
    overlaps; the byte-proxy cost model scales the closure cost by it
    (every version on the reconstruction path is read at the same chunk
    subset, since all versions share one chunk grid).
    """

    version: int
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise WorkloadError(
                f"region fraction must be in (0, 1], got {self.fraction}")

    def versions(self) -> tuple[int, ...]:
        return (self.version,)


@dataclass(frozen=True)
class WeightedQuery:
    """A query with its access frequency."""

    query: SnapshotQuery | RangeQuery | RegionQuery
    weight: float = 1.0


Workload = list[WeightedQuery]


def validate_workload(workload: Workload, versions: Iterable[int]) -> None:
    """Every queried version must be one of ``versions``."""
    known = set(versions)
    for item in workload:
        missing = set(item.query.versions()) - known
        if missing:
            raise WorkloadError(
                f"workload references unknown versions {sorted(missing)}")


def workload_cost(layout: Layout, workload: Workload,
                  matrix: MaterializationMatrix) -> float:
    """sum_j w_j * Cost_Lambda(q_j) over the workload.

    Region queries scale their closure cost by the chunk fraction they
    touch (Section IV-D counts chunks accessed as the I/O proxy).
    """
    total = 0.0
    for item in workload:
        cost = layout.io_cost(item.query.versions(), matrix)
        fraction = getattr(item.query, "fraction", 1.0)
        total += item.weight * cost * fraction
    return total


# ----------------------------------------------------------------------
# Exact search (small n)
# ----------------------------------------------------------------------
def _prufer_to_edges(sequence: tuple[int, ...],
                     node_count: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence into the edges of its labelled tree."""
    import heapq

    degree = [1] * node_count
    for node in sequence:
        degree[node] += 1
    leaves = [node for node in range(node_count) if degree[node] == 1]
    heapq.heapify(leaves)
    edges = []
    for node in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, node))
        degree[leaf] -= 1
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(leaves, node)
    last = [node for node in range(node_count) if degree[node] == 1]
    edges.append((last[0], last[1]))
    return edges


def exhaustive_optimal(matrix: MaterializationMatrix,
                       workload: Workload) -> Layout:
    """Exact I/O-optimal layout by full spanning-tree enumeration.

    Enumerates all (n+1)^(n-1) spanning trees of the virtual-root graph
    via Prüfer sequences (Cayley's formula — the count the paper cites
    as the reason exhaustive search does not scale).
    """
    validate_workload(workload, matrix.versions)
    n = matrix.n
    if n > EXHAUSTIVE_MAX_VERSIONS:
        raise ReproError(
            f"exhaustive search limited to {EXHAUSTIVE_MAX_VERSIONS} "
            f"versions; matrix has {n} (Cayley growth: (n+1)^(n-1) trees)")
    node_count = n + 1
    label = (None, *matrix.versions)  # node 0 is the virtual root
    best_layout: Layout | None = None
    best_cost = np.inf
    best_size = np.inf
    for sequence in itertools.product(range(node_count),
                                      repeat=node_count - 2):
        edges = _prufer_to_edges(tuple(sequence), node_count)
        layout = Layout.from_tree((label[a], label[b]) for a, b in edges)
        cost = workload_cost(layout, workload, matrix)
        # Tie-break on storage so results are deterministic.
        key = (cost, layout.total_size(matrix))
        if best_layout is None or key < (best_cost, best_size):
            best_layout = layout
            best_cost, best_size = key
    assert best_layout is not None
    return best_layout


# ----------------------------------------------------------------------
# Greedy local search
# ----------------------------------------------------------------------
def greedy_workload_layout(matrix: MaterializationMatrix,
                           workload: Workload,
                           start: Layout | None = None) -> Layout:
    """Hill-climb over single-version re-encoding moves.

    Each move re-encodes one version — materializing it or delta-ing it
    against a different version — keeping the layout valid.  Moves are
    applied best-first until a local optimum.
    """
    validate_workload(workload, matrix.versions)
    layout = start or optimal_layout(matrix)
    current_cost = workload_cost(layout, workload, matrix)
    versions = layout.versions

    for _ in range(GREEDY_MAX_ROUNDS):
        best_move: Layout | None = None
        best_cost = current_cost
        for version in versions:
            for parent in (None, *versions):
                if parent == version or \
                        parent == layout.parent_of[version]:
                    continue
                candidate = layout.with_parent(version, parent)
                if not candidate.is_valid():
                    continue
                cost = workload_cost(candidate, workload, matrix)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    best_move = candidate
        if best_move is None:
            return layout
        layout = best_move
        current_cost = best_cost
    return layout


# ----------------------------------------------------------------------
# The paper's structural heuristics
# ----------------------------------------------------------------------
def head_biased_layout(matrix: MaterializationMatrix) -> Layout:
    """Materialize the newest version; store the rest most compactly.

    Section IV-E: for workloads "heavily biased towards the latest
    version ... the newest version is always materialized since it is
    heavily queried.  All the other versions are then stored in the most
    compact way possible."
    """
    newest = matrix.versions[-1]
    index = matrix.index_of(newest)
    forced = matrix.costs.copy()
    forced[index, index] = 0.0  # force the virtual edge to the newest
    constrained = MaterializationMatrix(versions=matrix.versions,
                                        costs=forced)
    layout = optimal_layout(constrained)
    assert layout.parent_of[newest] is None
    return layout


def segmented_layout(matrix: MaterializationMatrix,
                     workload: Workload) -> Layout:
    """Divide-and-conquer over the segments range queries delineate.

    Section IV-D: "This divide and conquer algorithm can be generalized
    for N overlapping queries delineating M segments, by considering the
    most compact representation of each segment initially, and by
    combining adjacent segments iteratively."  Each segment is laid out
    space-optimally in isolation (one materialization per segment), so
    no query's closure crosses a segment whose versions it never asked
    for; a final merge pass joins adjacent segments when that lowers the
    workload cost.
    """
    validate_workload(workload, matrix.versions)
    boundaries = _segments(matrix.versions, workload)

    parent_of: dict[int, int | None] = {}
    for segment in boundaries:
        sub = matrix.restrict(list(segment))
        sub_layout = optimal_layout(sub)
        parent_of.update(sub_layout.parent_of)
    layout = Layout(parent_of).require_valid()

    # Merge pass: try delta-ing each segment root against the adjacent
    # version of the previous segment; keep changes that lower cost.
    cost = workload_cost(layout, workload, matrix)
    for segment, previous in zip(boundaries[1:], boundaries):
        root = next(v for v in segment if layout.parent_of[v] is None)
        candidate = layout.with_parent(root, previous[-1])
        if not candidate.is_valid():
            continue
        candidate_cost = workload_cost(candidate, workload, matrix)
        if candidate_cost < cost - 1e-9:
            layout, cost = candidate, candidate_cost
    return layout


def _segments(versions: tuple[int, ...],
              workload: Workload) -> list[tuple[int, ...]]:
    """Partition versions into maximal runs with identical query sets."""
    membership: dict[int, frozenset[int]] = {}
    for version in versions:
        touching = frozenset(
            index for index, item in enumerate(workload)
            if version in item.query.versions())
        membership[version] = touching
    segments: list[tuple[int, ...]] = []
    current: list[int] = []
    previous_set: frozenset[int] | None = None
    for version in versions:
        if previous_set is not None and membership[version] != previous_set:
            segments.append(tuple(current))
            current = []
        current.append(version)
        previous_set = membership[version]
    if current:
        segments.append(tuple(current))
    return segments


def workload_aware_layout(matrix: MaterializationMatrix,
                          workload: Workload) -> Layout:
    """The front door: exact when tiny, candidates + greedy otherwise."""
    validate_workload(workload, matrix.versions)
    if matrix.n <= EXHAUSTIVE_LIMIT:
        return exhaustive_optimal(matrix, workload)

    candidates = [
        optimal_layout(matrix),
        head_biased_layout(matrix),
        segmented_layout(matrix, workload),
        Layout.linear_chain(matrix.versions, newest_materialized=True),
    ]
    best = min(candidates,
               key=lambda lay: workload_cost(lay, workload, matrix))
    return greedy_workload_layout(matrix, workload, start=best)
