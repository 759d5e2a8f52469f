"""Tests for the Materialization Matrix (Section IV-A)."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compression import IdentityCodec, LempelZivCodec
from repro.core.errors import DeltaShapeMismatchError, ReproError
from repro.materialize import (
    MaterializationMatrix,
    extend_matrix,
    optimal_layout,
)

# The sort-based hybrid pricing lives with the planner's oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "delta"))
import encoding_oracle  # noqa: E402


def _version_family(rng, count=5, shape=(32, 32)):
    base = rng.integers(0, 10000, size=shape).astype(np.int32)
    contents = {1: base}
    for v in range(2, count + 1):
        nxt = contents[v - 1].copy()
        mask = rng.random(size=shape) > 0.95
        nxt[mask] += rng.integers(1, 10)
        contents[v] = nxt
    return contents


class TestBuild:
    def test_symmetric(self, rng):
        matrix = MaterializationMatrix.build(_version_family(rng))
        np.testing.assert_allclose(matrix.costs, matrix.costs.T)

    def test_diagonal_is_materialization(self, rng):
        contents = _version_family(rng)
        matrix = MaterializationMatrix.build(contents)
        # Identity codec: materialized size ~ raw bytes + small header.
        raw = contents[1].nbytes
        assert raw <= matrix.materialize_size(1) <= raw + 64

    def test_similar_versions_have_small_deltas(self, rng):
        matrix = MaterializationMatrix.build(_version_family(rng))
        assert matrix.delta_size(1, 2) < matrix.materialize_size(1) / 5

    def test_custom_compressor(self, rng):
        contents = {1: np.zeros((64, 64), dtype=np.int32),
                    2: np.ones((64, 64), dtype=np.int32)}
        matrix = MaterializationMatrix.build(
            contents, compressor=LempelZivCodec())
        # All-constant arrays LZ down to almost nothing.
        assert matrix.materialize_size(1) < 200

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            MaterializationMatrix.build({})

    def test_mismatched_shapes_rejected(self, rng):
        with pytest.raises(DeltaShapeMismatchError):
            MaterializationMatrix.build({
                1: np.zeros((4, 4), dtype=np.int32),
                2: np.zeros((4, 5), dtype=np.int32),
            })

    def test_size_accessors(self, rng):
        matrix = MaterializationMatrix.build(_version_family(rng, count=3))
        assert matrix.size(1, None) == matrix.materialize_size(1)
        assert matrix.size(1, 2) == matrix.delta_size(1, 2)
        with pytest.raises(ReproError):
            matrix.delta_size(1, 1)
        with pytest.raises(ReproError):
            matrix.materialize_size(99)

    def test_assumption_check(self, rng):
        matrix = MaterializationMatrix.build(_version_family(rng))
        # Similar versions: deltas always beat materialization.
        assert matrix.materialization_always_larger()
        # Unrelated uint8 versions: zigzag'ed deltas span [-255, 255]
        # and need 9 bits per cell, more than the 8-bit materialization.
        unrelated = {
            1: rng.integers(0, 256, (64, 64)).astype(np.uint8),
            2: rng.integers(0, 256, (64, 64)).astype(np.uint8),
        }
        assert not MaterializationMatrix.build(
            unrelated).materialization_always_larger()


class TestSampling:
    def test_sampled_estimate_close_to_exact(self, rng):
        contents = _version_family(rng, count=4, shape=(128, 128))
        exact = MaterializationMatrix.build(contents)
        sampled = MaterializationMatrix.build(
            contents, sample_fraction=0.05, rng=rng)
        for i in (1, 2, 3):
            estimate = sampled.delta_size(i, i + 1)
            truth = exact.delta_size(i, i + 1)
            assert estimate == pytest.approx(truth, rel=0.5, abs=200)

    def test_sampled_is_cheaper_to_build(self, rng):
        # Structural check: the sample really is smaller than the array.
        contents = _version_family(rng, count=3, shape=(64, 64))
        matrix = MaterializationMatrix.build(
            contents, sample_fraction=0.01, rng=rng)
        assert matrix.n == 3  # built successfully from 1% of cells

    def test_invalid_fraction(self, rng):
        contents = _version_family(rng, count=2)
        with pytest.raises(ReproError):
            MaterializationMatrix.build(contents, sample_fraction=0.0)
        with pytest.raises(ReproError):
            MaterializationMatrix.build(contents, sample_fraction=1.5)


def _oracle_costs(contents, sample_index=None):
    """The matrix the seed built: every pair's sort-based hybrid size,
    lower id differenced against higher id, sampled costs scaled by
    N / R; the identity-compressed size on the diagonal."""
    ids = sorted(contents)
    costs = np.zeros((len(ids), len(ids)))
    for i, a in enumerate(ids):
        costs[i, i] = len(IdentityCodec().encode(contents[a]))
        for j in range(i + 1, len(ids)):
            flat_a = contents[a].ravel()
            flat_b = contents[ids[j]].ravel()
            scale = 1.0
            if sample_index is not None:
                scale = flat_a.size / len(sample_index)
                flat_a, flat_b = flat_a[sample_index], flat_b[sample_index]
            codes, _ = encoding_oracle.reference_codes(flat_a, flat_b)
            costs[i, j] = costs[j, i] = \
                float(encoding_oracle.hybrid_size(codes)) * scale
    return MaterializationMatrix(versions=tuple(ids), costs=costs)


class TestPricedLikeTheOracle:
    """The matrix prices a pair from the write path's ``CodePlan``
    histogram; the numbers must be the ones the sort-and-search
    estimator gave, so every layout computed from them is unchanged."""

    @staticmethod
    def _series(rng, dtype, count=5, shape=(48, 40)):
        dtype = np.dtype(dtype)
        if dtype.kind == "f":
            frames = [rng.normal(0, 50, shape).astype(dtype)]
        else:
            frames = [rng.integers(0, 200, shape).astype(dtype)]
        for _ in range(count - 1):
            nxt = frames[-1].copy()
            mask = rng.random(shape) > 0.9
            nxt[mask] = nxt[mask] * 2 + 1 if dtype.kind == "f" \
                else nxt[mask] + dtype.type(3)
            frames.append(nxt)
        return dict(enumerate(frames, start=1))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32],
                             ids=str)
    def test_exact_sampled_and_extended(self, rng, dtype):
        contents = self._series(rng, dtype)
        exact = MaterializationMatrix.build(contents)
        oracle = _oracle_costs(contents)
        assert np.array_equal(exact.costs, oracle.costs)
        assert optimal_layout(exact) == optimal_layout(oracle)

        total = contents[1].size
        sample_index = np.random.default_rng(0).choice(
            total, size=round(total * 0.1), replace=False)
        sampled = MaterializationMatrix.build(contents,
                                              sample_fraction=0.1)
        sampled_oracle = _oracle_costs(contents, sample_index)
        assert np.array_equal(sampled.costs, sampled_oracle.costs)
        assert optimal_layout(sampled) == optimal_layout(sampled_oracle)

        head = max(contents)
        older = {v: a for v, a in contents.items() if v != head}
        for index, full in ((None, exact), (sample_index, sampled)):
            grown = extend_matrix(
                MaterializationMatrix.build(
                    older, sample_fraction=None if index is None else 0.1),
                older, head, contents[head],
                materialized_size=full.materialize_size(head),
                sample_index=index)
            assert np.array_equal(grown.costs, full.costs)


class TestRestrict:
    def test_submatrix(self, rng):
        matrix = MaterializationMatrix.build(_version_family(rng, count=5))
        sub = matrix.restrict([2, 4, 5])
        assert sub.versions == (2, 4, 5)
        assert sub.delta_size(2, 4) == matrix.delta_size(2, 4)
        assert sub.materialize_size(5) == matrix.materialize_size(5)

    def test_restrict_unknown_version(self, rng):
        matrix = MaterializationMatrix.build(_version_family(rng, count=3))
        with pytest.raises(ReproError):
            matrix.restrict([1, 99])


class TestFromManager:
    def test_matches_in_memory_build(self, tmp_path, rng):
        from repro.core.schema import ArraySchema
        from repro.storage import VersionedStorageManager

        contents = _version_family(rng, count=3, shape=(16, 16))
        manager = VersionedStorageManager(tmp_path, chunk_bytes=1 << 20)
        manager.create_array("A", ArraySchema.simple((16, 16),
                                                     dtype=np.int32))
        for v in sorted(contents):
            manager.insert("A", contents[v])
        from_manager = MaterializationMatrix.from_manager(manager, "A")
        direct = MaterializationMatrix.build(contents)
        np.testing.assert_allclose(from_manager.costs, direct.costs)
