"""Region geometry is built once per array: a grid's chunk refs once per
grid, a region's result schema once per (schema, region shape), and a
schema's shape once per schema."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.errors import DimensionError
from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager
from repro.storage.chunking import ChunkGrid, ChunkRef


def _expected_refs(shape, strides):
    """Every chunk of a grid, from the closed-form cell ranges."""
    counts = [-(-extent // stride) for extent, stride in zip(shape, strides)]
    refs = []
    for index in itertools.product(*(range(count) for count in counts)):
        lo = tuple(c * s for c, s in zip(index, strides))
        hi = tuple(min(l + s, extent) - 1
                   for l, s, extent in zip(lo, strides, shape))
        refs.append(ChunkRef(index=index, lo=lo, hi=hi))
    return refs


class TestChunkRefsBuiltOnce:
    @pytest.mark.parametrize("shape, chunk_shape", [
        ((10,), (3,)),
        ((7, 9), (4, 2)),
        ((5, 6, 7), (2, 3, 7)),
        ((8, 8), (8, 8)),
    ])
    def test_refs_match_the_closed_form(self, shape, chunk_shape):
        grid = ChunkGrid(shape, 8, chunk_shape=chunk_shape)
        expected = _expected_refs(shape, chunk_shape)
        assert grid.chunks() == expected
        for ref in expected:
            assert grid.chunk_at(ref.index) == ref

    def test_every_lookup_returns_the_stored_ref(self):
        grid = ChunkGrid((20, 20), 8, chunk_shape=(6, 6))
        stored = grid.chunks()
        for ref in stored:
            assert grid.chunk_at(ref.index) is ref
            assert grid.chunk_for_cell(ref.hi) is ref
        overlapping = grid.chunks_overlapping((5, 5), (13, 6))
        assert [ref.index for ref in overlapping] == \
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        assert all(ref is grid.chunk_at(ref.index) for ref in overlapping)

    def test_chunks_hands_out_a_list_of_its_own(self):
        grid = ChunkGrid((4, 4), 8, chunk_shape=(2, 2))
        grid.chunks().clear()
        assert len(grid.chunks()) == 4

    def test_lookups_still_validate(self):
        grid = ChunkGrid((4, 4), 8, chunk_shape=(2, 2))
        with pytest.raises(DimensionError):
            grid.chunk_at((2, 0))
        with pytest.raises(DimensionError):
            grid.chunk_at((0, -1))
        with pytest.raises(DimensionError):
            grid.chunks_overlapping((1, 0), (0, 3))
        with pytest.raises(DimensionError):
            grid.chunks_overlapping((0, 0), (0, 4))


class TestSlicedSchemaMemo:
    def test_one_schema_per_region_shape(self):
        schema = ArraySchema.simple((16, 16), dtype=np.int64)
        first = schema.sliced((3, 5))
        assert schema.sliced((3, 5)) is first
        assert schema.sliced((5, 3)) is not first
        assert first.shape == (3, 5)
        assert first.origin == (0, 0)
        assert [d.name for d in first.dimensions] == \
            [d.name for d in schema.dimensions]
        assert first.attributes == schema.attributes

    def test_derived_geometry_is_cached_outside_equality(self):
        schema = ArraySchema.simple((16, 16), dtype=np.int64)
        twin = ArraySchema.simple((16, 16), dtype=np.int64)
        assert schema.shape is schema.shape
        assert (schema.ndim, schema.shape) == (2, (16, 16))
        schema.sliced((3, 5))
        assert schema == twin and hash(schema) == hash(twin)
        assert repr(schema) == repr(twin)

    def test_region_reads_share_the_schema(self, tmp_path):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=512,
                                          backend="memory")
        manager.create_array("A", ArraySchema.simple((16, 16),
                                                     dtype=np.int64))
        data = np.arange(256, dtype=np.int64).reshape(16, 16)
        manager.insert("A", data)
        one = manager.select_region("A", 1, (0, 0), (2, 9))
        other = manager.select_region("A", 1, (5, 3), (7, 12))
        assert one.schema is other.schema
        np.testing.assert_array_equal(other.single(), data[5:8, 3:13])
        manager.close()
