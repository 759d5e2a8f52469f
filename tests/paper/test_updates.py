"""Tests for incremental and batch update policies (Section IV-E)."""

from __future__ import annotations

import numpy as np
import pytest

from paper.updates import (
    BatchUpdatePlanner,
    extend_matrix,
    incremental_insert,
)
from repro.core.errors import ReproError
from repro.materialize import Layout, MaterializationMatrix, optimal_layout


def _family(rng, count, shape=(16, 16)):
    base = rng.integers(0, 1000, size=shape).astype(np.int32)
    contents = {1: base}
    for v in range(2, count + 1):
        nxt = contents[v - 1].copy()
        nxt[rng.random(size=shape) > 0.9] += 1
        contents[v] = nxt
    return contents


class TestExtendMatrix:
    def test_adds_row_and_column(self, rng):
        contents = _family(rng, 3)
        matrix = MaterializationMatrix.build(contents)
        new = contents[3].copy()
        new[0, 0] += 7
        extended = extend_matrix(matrix, contents, 4, new)
        assert extended.versions == (1, 2, 3, 4)
        # Old entries unchanged.
        assert extended.delta_size(1, 2) == matrix.delta_size(1, 2)
        # New version is closest to version 3.
        assert extended.delta_size(4, 3) <= extended.delta_size(4, 1)

    def test_matches_full_rebuild(self, rng):
        contents = _family(rng, 3)
        matrix = MaterializationMatrix.build(contents)
        new = contents[3] + 1
        extended = extend_matrix(matrix, contents, 4, new,
                                 materialized_size=float(new.nbytes))
        full = MaterializationMatrix.build({**contents, 4: new})
        np.testing.assert_allclose(
            extended.costs[:3, :3], full.costs[:3, :3])
        np.testing.assert_allclose(extended.costs[3, :3],
                                   full.costs[3, :3])

    def test_duplicate_version_rejected(self, rng):
        contents = _family(rng, 2)
        matrix = MaterializationMatrix.build(contents)
        with pytest.raises(ReproError):
            extend_matrix(matrix, contents, 2, contents[2])

    def test_missing_contents_rejected(self, rng):
        contents = _family(rng, 3)
        matrix = MaterializationMatrix.build(contents)
        with pytest.raises(ReproError):
            extend_matrix(matrix, {1: contents[1]}, 4, contents[3])

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32],
                             ids=str)
    def test_exact_and_sampled_like_a_full_build(self, rng, dtype):
        # Growing a matrix by its head prices every pair exactly as a
        # build over all versions does, sampled (same cell sample) or
        # not.
        dtype = np.dtype(dtype)
        shape = (48, 40)
        if dtype.kind == "f":
            frames = [rng.normal(0, 50, shape).astype(dtype)]
        else:
            frames = [rng.integers(0, 200, shape).astype(dtype)]
        for _ in range(4):
            nxt = frames[-1].copy()
            mask = rng.random(shape) > 0.9
            nxt[mask] = nxt[mask] * 2 + 1 if dtype.kind == "f" \
                else nxt[mask] + dtype.type(3)
            frames.append(nxt)
        contents = dict(enumerate(frames, start=1))
        total = contents[1].size
        sample_index = np.random.default_rng(0).choice(
            total, size=round(total * 0.1), replace=False)
        head = max(contents)
        older = {v: a for v, a in contents.items() if v != head}
        for index, fraction in ((None, None), (sample_index, 0.1)):
            full = MaterializationMatrix.build(contents,
                                               sample_fraction=fraction)
            grown = extend_matrix(
                MaterializationMatrix.build(older,
                                            sample_fraction=fraction),
                older, head, contents[head],
                materialized_size=full.materialize_size(head),
                sample_index=index)
            assert np.array_equal(grown.costs, full.costs)


class TestIncrementalInsert:
    def test_deltas_against_best_parent(self):
        costs = np.array([
            [100.0, 10.0, 90.0],
            [10.0, 100.0, 5.0],
            [90.0, 5.0, 100.0],
        ])
        matrix = MaterializationMatrix(versions=(1, 2, 3), costs=costs)
        layout = Layout({1: None, 2: 1})
        updated = incremental_insert(layout, matrix, 3)
        assert updated.parent_of[3] == 2  # the cheapest delta
        assert updated.is_valid()

    def test_materializes_when_cheaper(self):
        costs = np.array([
            [100.0, 500.0],
            [500.0, 50.0],
        ])
        matrix = MaterializationMatrix(versions=(1, 2), costs=costs)
        layout = Layout({1: None})
        updated = incremental_insert(layout, matrix, 2)
        assert updated.parent_of[2] is None

    def test_existing_version_rejected(self):
        matrix = MaterializationMatrix(
            versions=(1,), costs=np.array([[10.0]]))
        with pytest.raises(ReproError):
            incremental_insert(Layout({1: None}), matrix, 1)


class TestBatchPlanner:
    def test_flushes_on_batch_size(self, rng):
        planner = BatchUpdatePlanner(batch_size=3)
        contents = _family(rng, 6)
        flushes = []
        for v in sorted(contents):
            result = planner.add(v, contents[v])
            if result is not None:
                flushes.append(result)
        assert len(flushes) == 2
        assert planner.flushed_batches == 2
        assert planner.pending_count == 0

    def test_batches_stay_separate(self, rng):
        planner = BatchUpdatePlanner(batch_size=3)
        contents = _family(rng, 6)
        for v in sorted(contents):
            planner.add(v, contents[v])
        layout = planner.layout
        assert layout.is_valid()
        # No delta edge may cross the batch boundary between 3 and 4.
        for version, parent in layout.parent_of.items():
            if parent is not None:
                assert (version <= 3) == (parent <= 3)

    def test_chain_length_bounded_by_batch(self, rng):
        planner = BatchUpdatePlanner(batch_size=4)
        contents = _family(rng, 12)
        for v in sorted(contents):
            planner.add(v, contents[v])
        assert planner.max_chain_length() <= 4

    def test_each_batch_is_optimal(self, rng):
        planner = BatchUpdatePlanner(batch_size=3)
        contents = _family(rng, 3)
        batch_layout = None
        for v in sorted(contents):
            result = planner.add(v, contents[v])
            if result is not None:
                batch_layout = result
        matrix = MaterializationMatrix.build(contents)
        expected = optimal_layout(matrix)
        assert batch_layout.total_size(matrix) == \
            pytest.approx(expected.total_size(matrix))

    def test_manual_flush(self, rng):
        planner = BatchUpdatePlanner(batch_size=100)
        contents = _family(rng, 2)
        for v in sorted(contents):
            assert planner.add(v, contents[v]) is None
        assert planner.flush() is not None
        assert planner.flush() is None  # idempotent on empty
        assert planner.layout.is_valid()

    def test_duplicate_rejected(self, rng):
        planner = BatchUpdatePlanner(batch_size=5)
        contents = _family(rng, 1)
        planner.add(1, contents[1])
        with pytest.raises(ReproError):
            planner.add(1, contents[1])

    def test_bad_batch_size(self):
        with pytest.raises(ReproError):
            BatchUpdatePlanner(batch_size=0)

    def test_empty_layout(self):
        planner = BatchUpdatePlanner()
        assert planner.max_chain_length() == 0
