"""Tests for workload-aware layouts (Section IV-D / IV-E)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ReproError, WorkloadError
from repro.materialize import (
    Layout,
    MaterializationMatrix,
    RangeQuery,
    SnapshotQuery,
    WeightedQuery,
    exhaustive_optimal,
    greedy_workload_layout,
    head_biased_layout,
    optimal_layout,
    segmented_layout,
    workload_aware_layout,
    workload_cost,
)


def _chain_matrix(n=5, materialize=1000.0, near=10.0,
                  far_step=10.0) -> MaterializationMatrix:
    """Versions on a line: delta cost grows with version distance."""
    costs = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            costs[i, j] = materialize if i == j \
                else near + far_step * (abs(i - j) - 1)
    return MaterializationMatrix(versions=tuple(range(1, n + 1)),
                                 costs=costs)


class TestQueries:
    def test_snapshot_versions(self):
        assert SnapshotQuery(3).versions() == (3,)

    def test_range_versions(self):
        assert RangeQuery(2, 4).versions() == (2, 3, 4)

    def test_reversed_range_rejected(self):
        with pytest.raises(WorkloadError):
            RangeQuery(4, 2)

    def test_unknown_version_rejected(self):
        matrix = _chain_matrix(3)
        workload = [WeightedQuery(SnapshotQuery(99))]
        with pytest.raises(WorkloadError):
            workload_cost_check = greedy_workload_layout(matrix, workload)


class TestWorkloadCost:
    def test_weighted_sum(self):
        matrix = _chain_matrix(3)
        layout = Layout({1: None, 2: 1, 3: 2})
        workload = [
            WeightedQuery(SnapshotQuery(1), weight=2.0),
            WeightedQuery(SnapshotQuery(3), weight=1.0),
        ]
        v1 = layout.io_cost([1], matrix)
        v3 = layout.io_cost([3], matrix)
        assert workload_cost(layout, workload, matrix) == 2 * v1 + v3


class TestHeadBiased:
    def test_newest_materialized(self):
        matrix = _chain_matrix(6)
        layout = head_biased_layout(matrix)
        assert layout.parent_of[6] is None
        assert layout.is_valid()

    def test_head_queries_cheap(self):
        matrix = _chain_matrix(6)
        head = head_biased_layout(matrix)
        chain = Layout.linear_chain(matrix.versions)  # oldest materialized
        head_cost = head.io_cost([6], matrix)
        chain_cost = chain.io_cost([6], matrix)
        assert head_cost < chain_cost


class TestExhaustive:
    def test_single_version(self):
        matrix = _chain_matrix(1)
        layout = exhaustive_optimal(matrix,
                                    [WeightedQuery(SnapshotQuery(1))])
        assert layout.parent_of == {1: None}

    def test_materializes_hot_version(self):
        matrix = _chain_matrix(4)
        hot = [WeightedQuery(SnapshotQuery(3), weight=100.0),
               WeightedQuery(SnapshotQuery(1), weight=0.01)]
        layout = exhaustive_optimal(matrix, hot)
        # Version 3 dominates the workload: it must be a root.
        assert layout.parent_of[3] is None

    def test_respects_version_limit(self):
        matrix = _chain_matrix(9)
        with pytest.raises(ReproError):
            exhaustive_optimal(matrix, [WeightedQuery(SnapshotQuery(1))])

    def test_beats_or_matches_all_heuristics(self, rng):
        for _ in range(5):
            n = 5
            costs = rng.integers(1, 500, size=(n, n)).astype(float)
            costs = (costs + costs.T) / 2
            matrix = MaterializationMatrix(
                versions=tuple(range(1, n + 1)), costs=costs)
            workload = [
                WeightedQuery(SnapshotQuery(int(rng.integers(1, n + 1))),
                              weight=float(rng.integers(1, 10)))
                for _ in range(3)
            ] + [WeightedQuery(RangeQuery(1, 3), weight=2.0)]
            exact = workload_cost(
                exhaustive_optimal(matrix, workload), workload, matrix)
            for heuristic in (optimal_layout(matrix),
                              head_biased_layout(matrix),
                              segmented_layout(matrix, workload),
                              greedy_workload_layout(matrix, workload)):
                assert exact <= workload_cost(heuristic, workload,
                                              matrix) + 1e-6


class TestGreedy:
    def test_improves_on_space_optimal_for_skewed_workloads(self):
        matrix = _chain_matrix(8, materialize=100.0, near=30.0,
                               far_step=5.0)
        # Everything reads version 8; space optimum keeps long chains.
        workload = [WeightedQuery(SnapshotQuery(8), weight=10.0)]
        space = optimal_layout(matrix)
        tuned = greedy_workload_layout(matrix, workload, start=space)
        assert workload_cost(tuned, workload, matrix) <= \
            workload_cost(space, workload, matrix)
        assert tuned.parent_of[8] is None

    def test_result_valid(self):
        matrix = _chain_matrix(7)
        workload = [WeightedQuery(RangeQuery(2, 5)),
                    WeightedQuery(SnapshotQuery(7), weight=3.0)]
        layout = greedy_workload_layout(matrix, workload)
        assert layout.is_valid()


class TestSegmented:
    def test_overlapping_ranges_create_segments(self):
        matrix = _chain_matrix(10)
        # Two ranges overlapping on [4..6]: segments 1-3, 4-6, 7-10.
        workload = [WeightedQuery(RangeQuery(1, 6)),
                    WeightedQuery(RangeQuery(4, 10))]
        layout = segmented_layout(matrix, workload)
        assert layout.is_valid()
        # No closure may escape the union of the query's own versions
        # plus its segment roots — check query 1 never pulls version 10.
        assert 10 not in layout.closure(range(1, 7))

    def test_beats_space_optimal_on_disjoint_hot_ranges(self):
        # Far-apart versions delta expensively; two hot disjoint ranges.
        matrix = _chain_matrix(10, materialize=50.0, near=20.0,
                               far_step=15.0)
        workload = [WeightedQuery(RangeQuery(1, 3), weight=5.0),
                    WeightedQuery(RangeQuery(8, 10), weight=5.0)]
        segmented = segmented_layout(matrix, workload)
        space = optimal_layout(matrix)
        assert workload_cost(segmented, workload, matrix) <= \
            workload_cost(space, workload, matrix)


class TestFrontDoor:
    def test_small_goes_exact(self):
        matrix = _chain_matrix(4)
        workload = [WeightedQuery(SnapshotQuery(4), weight=5.0)]
        front = workload_aware_layout(matrix, workload)
        exact = exhaustive_optimal(matrix, workload)
        assert workload_cost(front, workload, matrix) == \
            pytest.approx(workload_cost(exact, workload, matrix))

    def test_large_returns_valid_competitive_layout(self):
        matrix = _chain_matrix(12)
        workload = [
            WeightedQuery(RangeQuery(1, 10), weight=1.0),
            WeightedQuery(RangeQuery(7, 12), weight=1.0),
            WeightedQuery(SnapshotQuery(12), weight=4.0),
        ]
        layout = workload_aware_layout(matrix, workload)
        assert layout.is_valid()
        baseline = Layout.linear_chain(matrix.versions)
        assert workload_cost(layout, workload, matrix) <= \
            workload_cost(baseline, workload, matrix)
