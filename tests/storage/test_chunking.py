"""Tests for fixed-stride chunk geometry (Section III-B.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DimensionError, StorageError
from repro.storage.chunking import ChunkGrid, stride_for


class TestStrideFor:
    def test_paper_example_binary_kcells(self):
        # 1 MB chunks of 8-byte cells: floor(sqrt(131072)) = 362.
        assert stride_for(2 ** 20, 8, 2) == 362

    def test_chunk_fits_budget(self):
        for ndim in (1, 2, 3):
            stride = stride_for(2 ** 20, 8, ndim)
            assert stride ** ndim * 8 <= 2 ** 20

    def test_one_dimensional(self):
        assert stride_for(1024, 4, 1) == 256

    def test_budget_smaller_than_cell_rejected(self):
        with pytest.raises(StorageError):
            stride_for(4, 8, 2)

    def test_minimum_stride_is_one(self):
        assert stride_for(8, 8, 3) == 1

    @settings(max_examples=50, deadline=None)
    @given(chunk_bytes=st.integers(64, 10 ** 7),
           cell_size=st.sampled_from([1, 2, 4, 8, 16]),
           ndim=st.integers(1, 4))
    def test_stride_is_maximal_within_budget(self, chunk_bytes, cell_size,
                                             ndim):
        stride = stride_for(chunk_bytes, cell_size, ndim)
        cells = chunk_bytes // cell_size
        assert stride ** ndim <= cells
        assert (stride + 1) ** ndim > cells


class TestChunkGrid:
    @pytest.fixture
    def grid(self) -> ChunkGrid:
        # 100x60 array of 8-byte cells in 3200-byte chunks: 400 cells
        # per chunk -> stride 20 -> 5x3 grid.
        return ChunkGrid((100, 60), cell_size=8, chunk_bytes=3200)

    def test_geometry(self, grid):
        assert grid.stride == 20
        assert grid.counts == (5, 3)
        assert len(grid.chunks()) == 15

    def test_chunk_names_match_paper_scheme(self, grid):
        first = grid.chunk_at((0, 0))
        assert first.name == "chunk-0-0-19-19.dat"
        second = grid.chunk_at((0, 1))
        assert second.name == "chunk-0-20-19-39.dat"

    def test_names_identify_chunks(self, grid):
        chunks = grid.chunks()
        assert len({chunk.name for chunk in chunks}) == len(chunks)
        for chunk in chunks:
            assert grid.chunk_for_cell(chunk.lo) == chunk
            assert grid.chunk_for_cell(chunk.hi) == chunk

    def test_chunk_for_cell_closed_form(self, grid):
        assert grid.chunk_for_cell((0, 0)).index == (0, 0)
        assert grid.chunk_for_cell((19, 19)).index == (0, 0)
        assert grid.chunk_for_cell((20, 19)).index == (1, 0)
        assert grid.chunk_for_cell((99, 59)).index == (4, 2)

    def test_cell_out_of_bounds(self, grid):
        with pytest.raises(DimensionError):
            grid.chunk_for_cell((100, 0))
        with pytest.raises(DimensionError):
            grid.chunk_for_cell((0,))

    def test_ragged_edge_chunks(self):
        # 25 cells with stride 10: last chunk covers only 5 cells.
        grid = ChunkGrid((25,), cell_size=8, chunk_bytes=80)
        chunks = grid.chunks()
        assert [c.shape for c in chunks] == [(10,), (10,), (5,)]
        assert chunks[-1].lo == (20,)
        assert chunks[-1].hi == (24,)

    def test_chunks_cover_array_exactly_once(self, grid):
        canvas = np.zeros(grid.shape, dtype=np.int32)
        for chunk in grid.chunks():
            canvas[chunk.slices()] += 1
        assert (canvas == 1).all()

    def test_chunks_overlapping_single(self, grid):
        hits = grid.chunks_overlapping((5, 5), (5, 5))
        assert len(hits) == 1
        assert hits[0].index == (0, 0)

    def test_chunks_overlapping_straddles_boundary(self, grid):
        hits = grid.chunks_overlapping((15, 15), (25, 25))
        assert {c.index for c in hits} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_chunks_overlapping_whole_array(self, grid):
        hits = grid.chunks_overlapping((0, 0), (99, 59))
        assert len(hits) == len(grid.chunks())

    def test_chunks_overlapping_validation(self, grid):
        with pytest.raises(DimensionError):
            grid.chunks_overlapping((5, 5), (4, 4))
        with pytest.raises(DimensionError):
            grid.chunks_overlapping((0, 0), (100, 0))

    def test_identical_chunking_across_versions(self):
        # "Every version of a given array is chunked identically" — the
        # grid is a pure function of (shape, cell size, budget).
        a = ChunkGrid((64, 64), 4, 1024)
        b = ChunkGrid((64, 64), 4, 1024)
        assert [c.name for c in a.chunks()] == [c.name for c in b.chunks()]
