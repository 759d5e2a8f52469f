"""Tests for the virtual-root spanning-tree optimum (Section IV-C)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.materialize import (
    Layout,
    MaterializationMatrix,
    UnionFind,
    exhaustive_optimal,
    head_biased_layout,
    optimal_layout,
)


def _matrix(costs: list[list[float]]) -> MaterializationMatrix:
    array = np.array(costs, dtype=float)
    return MaterializationMatrix(
        versions=tuple(range(1, len(costs) + 1)), costs=array)


def _brute_force_optimum(matrix: MaterializationMatrix) -> float:
    """Minimum total size over every valid layout (tiny n only)."""
    versions = matrix.versions
    best = np.inf
    choices = [(None, *[u for u in versions if u != v]) for v in versions]
    for assignment in itertools.product(*choices):
        layout = Layout(dict(zip(versions, assignment)))
        if layout.is_valid():
            best = min(best, layout.total_size(matrix))
    return best


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind([1, 2, 3, 4])
        assert uf.union(1, 2)
        assert not uf.union(2, 1)
        assert uf.find(1) == uf.find(2)
        assert uf.find(3) != uf.find(1)

    def test_union_by_size_path_compression(self):
        uf = UnionFind(range(100))
        for i in range(99):
            uf.union(i, i + 1)
        root = uf.find(0)
        assert all(uf.find(i) == root for i in range(100))


class TestOptimalLayout:
    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            costs = rng.integers(1, 100, size=(n, n)).astype(float)
            costs = (costs + costs.T) / 2
            matrix = MaterializationMatrix(
                versions=tuple(range(1, n + 1)), costs=costs)
            layout = optimal_layout(matrix)
            assert layout.is_valid()
            assert layout.total_size(matrix) == \
                pytest.approx(_brute_force_optimum(matrix))

    @pytest.mark.parametrize("costs,expected", [
        # Deltas of weight 2 tie five ways; 3's materialization (3)
        # ties with the (1, 5) delta and is listed first.
        ([[4, 2, 2, 4, 3], [2, 4, 2, 2, 4], [2, 2, 3, 3, 2],
          [4, 2, 3, 4, 2], [3, 4, 2, 2, 4]],
         {1: 3, 2: 1, 3: None, 4: 2, 5: 3}),
        # Every edge weighs the same: the virtual edges come first.
        ([[7] * 4] * 4, {1: None, 2: None, 3: None, 4: None}),
        # 1's materialization ties with its deltas: it stays a root.
        ([[5, 5, 5, 5], [5, 5, 1, 5], [5, 1, 5, 1], [5, 5, 1, 5]],
         {1: None, 2: None, 3: 2, 4: 3}),
    ], ids=["pairs", "all-equal", "virtual-first"])
    def test_tie_break_is_pinned(self, costs, expected):
        """Equal weights keep Kruskal's order — virtual edges first,
        then pairs i < j, sorted stably by weight — so ``reorganize``
        keeps storing the same bytes."""
        assert optimal_layout(_matrix(costs)).parent_of == expected

    def test_head_biased_tie_break_is_pinned(self):
        matrix = _matrix([[4, 2, 2, 4, 3], [2, 4, 2, 2, 4], [2, 2, 3, 3, 2],
                          [4, 2, 3, 4, 2], [3, 4, 2, 2, 4]])
        assert head_biased_layout(matrix).parent_of == \
            {1: 3, 2: 1, 3: 5, 4: 2, 5: None}

    def test_periodic_pattern_found(self):
        """The Section V-D synthetic scenario in miniature: versions
        recur with period 2; the optimal layout deltas each recurrence
        against its previous occurrence, not its neighbour."""
        big, tiny = 1000.0, 1.0
        n = 6
        costs = np.full((n, n), big)
        for i in range(n):
            for j in range(n):
                if i != j and (i - j) % 2 == 0:
                    costs[i, j] = tiny
        matrix = MaterializationMatrix(
            versions=tuple(range(1, n + 1)), costs=costs)
        layout = optimal_layout(matrix)
        # Expect: two materialized-ish clusters, all deltas tiny.
        delta_edges = [(v, p) for v, p in layout.parent_of.items()
                       if p is not None]
        assert all((v - p) % 2 == 0 for v, p in delta_edges)
        assert layout.total_size(matrix) == 2 * big + 4 * tiny

    def test_real_version_family_linear_chainish(self, rng):
        """Smoothly evolving versions: the optimum degenerates to a
        linear chain (the Section V-D confirmation experiment)."""
        shape = (32, 32)
        base = rng.integers(0, 1000, size=shape).astype(np.int32)
        contents = {1: base}
        for v in range(2, 7):
            nxt = contents[v - 1].copy()
            # Monotone drift: nearby versions are closest.
            nxt += rng.integers(0, 3, size=shape).astype(np.int32)
            contents[v] = nxt
        matrix = MaterializationMatrix.build(contents)
        layout = optimal_layout(matrix)
        # Every delta edge connects adjacent versions.
        for version, parent in layout.parent_of.items():
            if parent is not None:
                assert abs(version - parent) == 1


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(2, 5))
def test_optimal_layout_property(data, n):
    """optimal_layout is valid and never beaten by random valid layouts."""
    values = data.draw(st.lists(
        st.floats(min_value=1, max_value=1e6), min_size=n * n,
        max_size=n * n))
    costs = np.array(values).reshape(n, n)
    costs = (costs + costs.T) / 2
    matrix = MaterializationMatrix(versions=tuple(range(n)), costs=costs)
    layout = optimal_layout(matrix)
    assert layout.is_valid()
    optimal_size = layout.total_size(matrix)

    versions = matrix.versions
    for _ in range(20):
        parent_of = {}
        for v in versions:
            parent_of[v] = data.draw(st.one_of(
                st.none(), st.sampled_from([u for u in versions if u != v])))
        candidate = Layout(parent_of)
        if candidate.is_valid():
            assert optimal_size <= candidate.total_size(matrix) + 1e-6


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_exhaustive_search_with_no_workload_finds_the_optimum(data, n):
    """With an empty workload every layout costs 0, so the exhaustive
    search breaks its tie on storage: two independent searches — Prüfer
    enumeration and Kruskal — through the one tree orientation."""
    values = data.draw(st.lists(st.integers(1, 20), min_size=n * n,
                                max_size=n * n))
    costs = np.array(values, dtype=float).reshape(n, n)
    costs = np.triu(costs) + np.triu(costs, 1).T
    matrix = MaterializationMatrix(versions=tuple(range(1, n + 1)),
                                   costs=costs)
    assert exhaustive_optimal(matrix, []).total_size(matrix) == \
        optimal_layout(matrix).total_size(matrix)
