"""Edge cases of region assembly: ``overlap_slices`` and
``read_region`` on single cells, chunk boundaries, and the full array.

These are the geometric seams of the select path — the places where an
off-by-one between chunk coordinates and region coordinates would
silently corrupt a canvas corner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager
from repro.storage.chunking import ChunkRef
from repro.storage.pipeline import overlap_slices


class TestOverlapSlices:
    CHUNK = ChunkRef(index=(1, 1), lo=(8, 8), hi=(15, 15))

    def test_single_cell_inside_chunk(self):
        src, dst = overlap_slices(self.CHUNK, (10, 12), (10, 12))
        assert src == (np.s_[2:3], np.s_[4:5])
        assert dst == (np.s_[0:1], np.s_[0:1])

    def test_region_equals_chunk_exactly(self):
        src, dst = overlap_slices(self.CHUNK, (8, 8), (15, 15))
        assert src == (np.s_[0:8], np.s_[0:8])
        assert dst == (np.s_[0:8], np.s_[0:8])

    def test_region_straddles_chunk_boundary(self):
        # Region [4..11]^2 covers the chunk's first half only.
        src, dst = overlap_slices(self.CHUNK, (4, 4), (11, 11))
        assert src == (np.s_[0:4], np.s_[0:4])
        assert dst == (np.s_[4:8], np.s_[4:8])

    def test_corner_cell_of_chunk(self):
        src, dst = overlap_slices(self.CHUNK, (15, 15), (20, 20))
        assert src == (np.s_[7:8], np.s_[7:8])
        assert dst == (np.s_[0:1], np.s_[0:1])


@pytest.fixture
def stored(tmp_path):
    """16x16 array on an 8x8 chunk grid with three versions."""
    manager = VersionedStorageManager(tmp_path, chunk_bytes=512,
                                      compressor="none",
                                      delta_policy="chain")
    manager.create_array("A", ArraySchema.simple((16, 16),
                                                 dtype=np.int64))
    rng = np.random.default_rng(99)
    data = rng.integers(0, 1000, (16, 16)).astype(np.int64)
    contents = []
    for _ in range(3):
        manager.insert("A", data)
        contents.append(data)
        data = data + rng.integers(0, 2, (16, 16)).astype(np.int64)
    yield manager, contents
    manager.close()


class TestReadRegionEdges:
    def test_single_cell_regions(self, stored):
        manager, contents = stored
        # Interior, chunk corners, and array corners.
        for cell in [(0, 0), (7, 7), (8, 8), (7, 8), (15, 15), (3, 12)]:
            out = manager.select_region("A", 3, cell, cell).single()
            assert out.shape == (1, 1)
            assert out[0, 0] == contents[2][cell]

    def test_region_exactly_on_chunk_boundaries(self, stored):
        manager, contents = stored
        # Each quadrant is exactly one chunk.
        for lo, hi in [((0, 0), (7, 7)), ((0, 8), (7, 15)),
                       ((8, 0), (15, 7)), ((8, 8), (15, 15))]:
            out = manager.select_region("A", 2, lo, hi).single()
            expected = contents[1][lo[0]:hi[0] + 1, lo[1]:hi[1] + 1]
            np.testing.assert_array_equal(out, expected)

    def test_region_spanning_all_chunk_seams(self, stored):
        manager, contents = stored
        out = manager.select_region("A", 3, (4, 4), (11, 11)).single()
        np.testing.assert_array_equal(out, contents[2][4:12, 4:12])

    def test_full_region_equals_read_version(self, stored):
        manager, contents = stored
        snap = manager.catalog.snapshot("A")
        for version, expected in enumerate(contents, 1):
            full = manager.select_region("A", version,
                                         (0, 0), (15, 15)).single()
            whole = manager.decoder.read_region(snap, version, (0, 0),
                                                (15, 15)).single()
            np.testing.assert_array_equal(full, whole)
            np.testing.assert_array_equal(full, expected)

    def test_one_row_and_one_column_strips(self, stored):
        manager, contents = stored
        row = manager.select_region("A", 1, (7, 0), (7, 15)).single()
        np.testing.assert_array_equal(row, contents[0][7:8, :])
        col = manager.select_region("A", 1, (0, 8), (15, 8)).single()
        np.testing.assert_array_equal(col, contents[0][:, 8:9])

    def test_parallel_region_edges_identical(self, stored, fan_width):
        manager, contents = stored
        for lo, hi in [((7, 7), (7, 7)), ((0, 0), (7, 7)),
                       ((4, 4), (11, 11)), ((0, 0), (15, 15))]:
            np.testing.assert_array_equal(
                manager.select_region("A", 3, lo, hi).single(),
                contents[2][lo[0]:hi[0] + 1, lo[1]:hi[1] + 1])
