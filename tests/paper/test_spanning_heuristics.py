"""Tests for the paper's spanning tree and forest heuristics
(Section IV-B/C): Algorithms 1 and 2 against the store's optimum."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from paper.spanning import (
    algorithm1_mst,
    algorithm2_forest,
    kruskal_mst,
    materialization_always_larger,
    prim_mst,
)
from repro.materialize import Layout, MaterializationMatrix, optimal_layout


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


def _version_family(rng, count=5, shape=(32, 32)):
    base = rng.integers(0, 10000, size=shape).astype(np.int32)
    contents = {1: base}
    for v in range(2, count + 1):
        nxt = contents[v - 1].copy()
        mask = rng.random(size=shape) > 0.95
        nxt[mask] += rng.integers(1, 10)
        contents[v] = nxt
    return contents


class TestAssumption:
    def test_assumption_check(self, rng):
        matrix = MaterializationMatrix.build(_version_family(rng))
        # Similar versions: deltas always beat materialization.
        assert materialization_always_larger(matrix)
        # Unrelated uint8 versions: zigzag'ed deltas span [-255, 255]
        # and need 9 bits per cell, more than the 8-bit materialization.
        unrelated = {
            1: rng.integers(0, 256, (64, 64)).astype(np.uint8),
            2: rng.integers(0, 256, (64, 64)).astype(np.uint8),
        }
        assert not materialization_always_larger(
            MaterializationMatrix.build(unrelated))


class TestMSTPrimitives:
    def test_kruskal_known_graph(self):
        edges = [(1.0, 1, 2), (2.0, 2, 3), (10.0, 1, 3)]
        mst = kruskal_mst([1, 2, 3], edges)
        assert sum(w for w, _, _ in mst) == 3.0

    def test_prim_agrees_with_kruskal(self, rng):
        nodes = list(range(6))
        weights = {}
        edges = []
        for a in nodes:
            for b in nodes:
                if a < b:
                    w = float(rng.integers(1, 100))
                    weights[(a, b)] = w
                    weights[(b, a)] = w
                    edges.append((w, a, b))
        kruskal_total = sum(w for w, _, _ in kruskal_mst(nodes, edges))
        prim_total = sum(w for w, _, _ in prim_mst(nodes, weights))
        assert kruskal_total == prim_total


class TestAlgorithm1:
    def test_single_version(self):
        layout = algorithm1_mst(_matrix([[42.0]]))
        assert layout.parent_of == {1: None}

    def test_roots_at_cheapest_materialization(self):
        matrix = _matrix([
            [100, 5, 9],
            [5, 60, 5],
            [9, 5, 90],
        ])
        layout = algorithm1_mst(matrix)
        assert layout.materialized == (2,)
        assert layout.is_valid()

    def test_optimal_when_assumption_holds(self):
        # Deltas all cheaper than any materialization: Algorithm 1 must
        # equal the exact optimum (the paper's claim).
        matrix = _matrix([
            [100, 10, 30, 40],
            [10, 110, 15, 35],
            [30, 15, 120, 12],
            [40, 35, 12, 90],
        ])
        assert materialization_always_larger(matrix)
        layout = algorithm1_mst(matrix)
        assert layout.total_size(matrix) == _brute_force_optimum(matrix)

    def test_prim_variant_same_cost(self):
        matrix = _matrix([
            [100, 10, 30],
            [10, 110, 15],
            [30, 15, 120],
        ])
        a = algorithm1_mst(matrix, use_prim=False)
        b = algorithm1_mst(matrix, use_prim=True)
        assert a.total_size(matrix) == b.total_size(matrix)


class TestAlgorithm2:
    def test_splits_when_materialization_beats_delta(self):
        # Two clusters of similar versions with an expensive delta
        # between them: materializing one per cluster wins.
        matrix = _matrix([
            [100, 5, 500, 500],
            [5, 100, 500, 500],
            [500, 500, 100, 5],
            [500, 500, 5, 100],
        ])
        tree = algorithm1_mst(matrix)
        forest = algorithm2_forest(matrix)
        assert forest.total_size(matrix) < tree.total_size(matrix)
        assert len(forest.materialized) == 2
        assert forest.is_valid()
        assert forest.total_size(matrix) == 100 + 5 + 100 + 5

    def test_no_split_when_assumption_holds(self):
        matrix = _matrix([
            [100, 10, 30],
            [10, 110, 15],
            [30, 15, 120],
        ])
        tree = algorithm1_mst(matrix)
        forest = algorithm2_forest(matrix)
        assert forest.parent_of == tree.parent_of


class TestOptimalLayout:
    def test_never_worse_than_heuristics(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            costs = rng.integers(1, 1000, size=(n, n)).astype(float)
            costs = (costs + costs.T) / 2
            matrix = MaterializationMatrix(
                versions=tuple(range(1, n + 1)), costs=costs)
            exact = optimal_layout(matrix).total_size(matrix)
            assert exact <= algorithm1_mst(matrix).total_size(matrix) + 1e-9
            assert exact <= algorithm2_forest(matrix) \
                .total_size(matrix) + 1e-9

    def test_algorithm1_matches_optimal_under_assumption(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            deltas = rng.integers(1, 50, size=(n, n)).astype(float)
            deltas = (deltas + deltas.T) / 2
            costs = deltas.copy()
            np.fill_diagonal(costs, 1000.0)  # materialization dominates
            matrix = MaterializationMatrix(
                versions=tuple(range(1, n + 1)), costs=costs)
            assert materialization_always_larger(matrix)
            assert algorithm1_mst(matrix).total_size(matrix) == \
                pytest.approx(optimal_layout(matrix).total_size(matrix))
