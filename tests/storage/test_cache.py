"""Tests for the optional chunk cache (off by default per the paper)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager


@pytest.fixture
def cached_manager(tmp_path):
    return VersionedStorageManager(tmp_path, chunk_bytes=2048,
                                   cache_chunks=32)


@pytest.fixture
def filled(cached_manager, rng):
    manager = cached_manager
    manager.create_array("A", ArraySchema.simple((16, 16),
                                                 dtype=np.int32))
    versions = []
    data = rng.integers(0, 100, (16, 16)).astype(np.int32)
    for _ in range(4):
        versions.append(data)
        manager.insert("A", data)
        data = data + 1
    return manager, versions


class TestChunkCache:
    def test_disabled_by_default(self, tmp_path, rng):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=2048)
        manager.create_array("A", ArraySchema.simple((8, 8),
                                                     dtype=np.int32))
        manager.insert("A", rng.integers(0, 9, (8, 8)).astype(np.int32))
        manager.select("A", 1)
        manager.select("A", 1)
        info = manager.cache_info()
        assert info["capacity"] == 0
        assert info["hits"] == 0

    def test_repeat_reads_hit(self, filled):
        manager, versions = filled
        manager.select("A", 4)
        before = manager.stats.chunks_read
        out = manager.select("A", 4)
        assert manager.stats.chunks_read == before  # no disk I/O
        assert manager.cache_info()["hits"] > 0
        np.testing.assert_array_equal(out.single(), versions[3])

    def test_capacity_evicts_lru(self, tmp_path, rng):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=2048,
                                          cache_chunks=2)
        manager.create_array("A", ArraySchema.simple((8, 8),
                                                     dtype=np.int32))
        for index in range(5):
            manager.insert(
                "A", np.full((8, 8), index, dtype=np.int32))
        for version in (1, 2, 3, 4, 5):
            manager.select("A", version)
        assert manager.cache_info()["entries"] <= 2

    def test_write_invalidates(self, filled, rng):
        manager, versions = filled
        manager.select("A", 4)  # warm the cache
        manager.apply_layout("A", {4: None, 3: 4, 2: 3, 1: 2})
        # Contents must come from the re-encoded layout, not the cache.
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                manager.select("A", number).single(), expected)

    def test_delete_version_invalidates(self, filled):
        manager, versions = filled
        manager.select("A", 2)
        manager.delete_version("A", 2)
        np.testing.assert_array_equal(
            manager.select("A", 3).single(), versions[2])

    def test_deleted_head_number_reuse_reads_new_contents(self, filled,
                                                          rng):
        manager, versions = filled
        manager.select("A", 4)  # head (and its chain) cached
        manager.delete_version("A", 4)
        fresh = rng.integers(500, 600, (16, 16)).astype(np.int32)
        assert manager.insert("A", fresh) == 4
        np.testing.assert_array_equal(manager.select("A", 4).single(),
                                      fresh)
        np.testing.assert_array_equal(manager.select("A", 3).single(),
                                      versions[2])

    def test_deleted_head_with_dependents_is_not_recached(self, filled,
                                                          rng):
        # v2 deltas against the head, so deleting the head re-encodes
        # v2 — and that select walks *through* the head, warm-filling
        # it.  The invalidation must come after.
        manager, versions = filled
        manager.apply_layout("A", {3: None, 4: 3, 2: 4, 1: 2})
        manager.delete_version("A", 4)
        fresh = rng.integers(500, 600, (16, 16)).astype(np.int32)
        assert manager.insert("A", fresh) == 4
        np.testing.assert_array_equal(manager.select("A", 4).single(),
                                      fresh)
        for number in (1, 2, 3):
            np.testing.assert_array_equal(
                manager.select("A", number).single(),
                versions[number - 1])

    def test_delete_array_invalidates(self, filled, rng):
        manager, _ = filled
        manager.select("A", 1)
        manager.delete_array("A")
        manager.create_array("A", ArraySchema.simple((16, 16),
                                                     dtype=np.int32))
        fresh = rng.integers(500, 600, (16, 16)).astype(np.int32)
        manager.insert("A", fresh)
        np.testing.assert_array_equal(manager.select("A", 1).single(),
                                      fresh)

    def test_cached_contents_identical(self, filled):
        manager, versions = filled
        first = manager.select("A", 2).single()
        second = manager.select("A", 2).single()
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, versions[1])
