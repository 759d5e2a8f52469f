"""Tests for the explicit encode/decode pipeline layer.

Covers the bytes-bounded :class:`ChunkCache` (eviction, invalidation,
stats flow) and the batched chain read — the decode pipeline must open
one object per co-located chunk chain, not one per payload.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import native
from repro.core.errors import StorageError
from repro.core.schema import ArraySchema
from repro.storage import (
    COLOCATED,
    PER_VERSION,
    ChunkCache,
    IOStats,
    VersionedStorageManager,
)


class TestChunkCacheBounds:
    def test_disabled_without_budget(self):
        cache = ChunkCache()
        assert not cache.enabled

    def test_entry_budget_evicts_lru(self):
        cache = ChunkCache(max_entries=2)
        a, b, c = (np.full(4, i) for i in range(3))
        cache.put(("arr", 1), a)
        cache.put(("arr", 2), b)
        cache.get(("arr", 1))  # freshen 1; 2 becomes LRU
        cache.put(("arr", 3), c)
        assert cache.get(("arr", 2)) is None
        assert cache.get(("arr", 1)) is a
        assert cache.get(("arr", 3)) is c

    def test_byte_budget_evicts_lru(self):
        cache = ChunkCache(max_bytes=100)
        small = np.zeros(5, dtype=np.int64)   # 40 bytes
        cache.put(("arr", 1), small)
        cache.put(("arr", 2), small)
        assert cache.info()["bytes"] == 80
        cache.put(("arr", 3), small)          # 120 > 100: evict v1
        assert cache.get(("arr", 1)) is None
        assert cache.info()["bytes"] == 80
        assert cache.info()["entries"] == 2

    def test_oversized_entry_not_retained(self):
        cache = ChunkCache(max_bytes=16)
        cache.put(("arr", 1), np.zeros(100, dtype=np.int64))
        assert cache.info()["entries"] == 0
        assert cache.info()["bytes"] == 0

    def test_oversized_entry_does_not_evict_others(self):
        """Admission control: an entry above max_bytes is rejected
        outright instead of first flushing the whole cache."""
        cache = ChunkCache(max_bytes=100)
        small = np.zeros(5, dtype=np.int64)   # 40 bytes
        cache.put(("arr", 1), small)
        cache.put(("arr", 2), small)
        cache.put(("arr", 3), np.zeros(100, dtype=np.int64))  # 800 B
        assert cache.info()["entries"] == 2
        assert cache.get(("arr", 1)) is small
        assert cache.get(("arr", 2)) is small
        assert cache.get(("arr", 3)) is None
        assert cache.info()["oversized"] == 1

    def test_oversized_reput_drops_stale_entry(self):
        """Re-putting a key with now-oversized data must not leave the
        stale (outdated) value behind."""
        cache = ChunkCache(max_bytes=100)
        cache.put(("arr", 1), np.zeros(5, dtype=np.int64))
        cache.put(("arr", 1), np.zeros(100, dtype=np.int64))
        assert cache.get(("arr", 1)) is None
        assert cache.info()["bytes"] == 0
        assert cache.info()["oversized"] == 1

    def test_entry_budget_alone_admits_any_size(self):
        # Only the byte budget defines "oversized".
        cache = ChunkCache(max_entries=2)
        big = np.zeros(1000, dtype=np.int64)
        cache.put(("arr", 1), big)
        assert cache.get(("arr", 1)) is big
        assert cache.info()["oversized"] == 0

    def test_reput_updates_byte_accounting(self):
        cache = ChunkCache(max_bytes=1000)
        cache.put(("arr", 1), np.zeros(10, dtype=np.int64))
        cache.put(("arr", 1), np.zeros(2, dtype=np.int64))
        assert cache.info()["entries"] == 1
        assert cache.info()["bytes"] == 16

    def test_invalidate_array_scopes_by_id(self):
        cache = ChunkCache(max_entries=8)
        data = np.zeros(4)
        cache.put((1, 1, "v", "c"), data)
        cache.put((1, 2, "v", "c"), data)
        cache.put((2, 1, "v", "c"), data)
        cache.invalidate_array(1)
        assert cache.info()["entries"] == 1
        assert cache.get((2, 1, "v", "c")) is data
        assert cache.info()["bytes"] == data.nbytes

    def test_hits_and_misses_flow_into_iostats(self):
        stats = IOStats()
        cache = ChunkCache(max_entries=4, stats=stats)
        data = np.zeros(4)
        cache.get(("arr", 1))
        cache.put(("arr", 1), data)
        cache.get(("arr", 1))
        assert (cache.hits, cache.misses) == (1, 1)
        assert (stats.cache_hits, stats.cache_misses) == (1, 1)

    def test_clear(self):
        cache = ChunkCache(max_entries=4)
        cache.put(("arr", 1), np.zeros(4))
        cache.clear()
        assert cache.info()["entries"] == 0
        assert cache.info()["bytes"] == 0


class TestEagerValidation:
    def test_bad_policy_fails_before_side_effects(self, tmp_path):
        with pytest.raises(StorageError):
            VersionedStorageManager(tmp_path / "bad",
                                    delta_policy="psychic")
        # Nothing durable was created by the failed constructor.
        assert not (tmp_path / "bad").exists()


class TestManagerByteBudget:
    def test_cache_bytes_knob(self, tmp_path, rng):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=2048,
                                          cache_bytes=1 << 20)
        manager.create_array("A", ArraySchema.simple((16, 16),
                                                     dtype=np.int32))
        data = rng.integers(0, 100, (16, 16)).astype(np.int32)
        manager.insert("A", data)
        manager.select("A", 1)
        before = manager.stats.chunks_read
        out = manager.select("A", 1)
        assert manager.stats.chunks_read == before  # served by cache
        assert manager.cache_info()["hits"] > 0
        assert 0 < manager.cache_info()["bytes"] <= 1 << 20
        np.testing.assert_array_equal(out.single(), data)
        manager.close()

    def test_byte_budget_bounds_occupancy(self, tmp_path, rng):
        # Each 8x8 int64 chunk is 512 bytes; a 1 KB budget keeps at
        # most two decoded chunks resident.
        manager = VersionedStorageManager(tmp_path, chunk_bytes=512,
                                          cache_bytes=1024)
        manager.create_array("A", ArraySchema.simple((16, 16),
                                                     dtype=np.int64))
        manager.insert("A", rng.integers(0, 9, (16, 16)).astype(np.int64))
        manager.select("A", 1)  # touches four chunks
        info = manager.cache_info()
        assert info["bytes"] <= 1024
        assert info["entries"] <= 2
        manager.close()


def _chained(tmp_path, placement, depth=4):
    manager = VersionedStorageManager(tmp_path / placement,
                                      chunk_bytes=800,
                                      compressor="none",
                                      delta_policy="chain",
                                      placement=placement)
    manager.create_array("A", ArraySchema.simple((20, 20),
                                                 dtype=np.int64))
    rng = np.random.default_rng(2012)
    data = rng.integers(0, 1000, (20, 20)).astype(np.int64)
    for _ in range(depth):
        manager.insert("A", data)
        data = np.where(rng.random((20, 20)) > 0.9, data + 1, data)
    return manager


class TestBatchedChainReads:
    def test_colocated_opens_one_file_per_chunk(self, tmp_path):
        manager = _chained(tmp_path, COLOCATED)
        with manager.stats.measure() as window:
            manager.select_region("A", 4, (0, 0), (9, 19))
        # Two chunks overlap the region; each chain is 4 payloads deep
        # but lives in one co-located object.
        assert window.chunks_read == 8
        assert window.file_opens == 2
        manager.close()

    def test_per_version_opens_one_file_per_payload(self, tmp_path):
        manager = _chained(tmp_path, PER_VERSION)
        with manager.stats.measure() as window:
            manager.select_region("A", 4, (0, 0), (9, 19))
        assert window.chunks_read == 8
        assert window.file_opens == 8
        manager.close()

    def test_batched_read_results_identical(self, tmp_path):
        colocated = _chained(tmp_path, COLOCATED)
        per_version = _chained(tmp_path, PER_VERSION)
        for version in (1, 2, 3, 4):
            np.testing.assert_array_equal(
                colocated.select("A", version).single(),
                per_version.select("A", version).single())
        colocated.close()
        per_version.close()


def _history(rng, dtype, shape=(150, 170), versions=5):
    """A version chain of sparse bumps plus one dense patch per step."""
    data = rng.integers(0, 1000, shape).astype(dtype)
    out = [data]
    for step in range(1, versions):
        data = data.copy()
        hits = rng.integers(0, data.size, data.size // 100)
        data.reshape(-1)[hits] += np.asarray(step, dtype=dtype)
        data[10 * step:10 * step + 9, 20:60] += np.asarray(7, dtype=dtype)
        out.append(data)
    return out


class TestEncodeScratch:
    """The encode stage reads chunk views in place and lends every plan
    one per-thread code buffer; neither may show in the stored bytes or
    in the allocator."""

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32])
    @pytest.mark.parametrize("delta_policy", ["chain", "auto"])
    def test_one_fingerprint_across_workers_and_kernels(
            self, tmp_path, rng, dtype, delta_policy):
        # 150 x 170 in ~4 KiB chunks: edge chunks of three other sizes
        # follow full ones through the same (larger) scratch buffer.
        history = _history(rng, dtype)
        prints = {}
        for label, workers, numpy_only in (("serial", 0, False),
                                           ("pool", 4, False),
                                           ("numpy", 4, True)):
            manager = VersionedStorageManager(
                tmp_path / label, chunk_bytes=4096, backend="local",
                delta_policy=delta_policy, workers=workers)
            manager.create_array("a", ArraySchema.simple(
                history[0].shape, dtype=dtype))
            scope = native.disabled() if numpy_only else nullcontext()
            with scope:
                for data in history[:-1]:
                    manager.insert("a", data)
                # A write elsewhere takes the hot slot, so the last
                # insert deltas against a ``select`` of its parent.
                manager.branch("a", 2, "b")
                manager.insert("a", history[-1])
            prints[label] = manager.fingerprint()
            for version, data in enumerate(history, start=1):
                assert np.array_equal(
                    manager.select("a", version).single(), data)
            manager.close()
        assert len(set(prints.values())) == 1

    @pytest.mark.skipif(not native.available(),
                        reason="native kernels did not compile")
    @pytest.mark.parametrize("delta_policy", ["chain", "auto"])
    def test_delta_encode_allocates_no_chunk_sized_temporary(
            self, tmp_path, rng, delta_policy):
        import tracemalloc

        from repro.compression.registry import get_codec

        # One 1 MiB int32 chunk, read as a view of a 2 MiB-per-row-band
        # canvas, 1 % of its cells changed.
        canvas = rng.integers(0, 1000, (512, 1024)).astype(np.int32)
        changed = canvas.copy()
        hits = rng.integers(0, canvas.size, canvas.size // 100)
        changed.reshape(-1)[hits] += 5
        target, base = changed[:, 256:768], canvas[:, 256:768]
        assert target.nbytes == 1 << 20 and not target.flags.c_contiguous
        manager = VersionedStorageManager(
            tmp_path / "s", backend="memory", delta_policy=delta_policy)
        encoder, compressor = manager.encoder, get_codec("none")
        first = encoder.encode_chunk(target, base, compressor)
        tracemalloc.start()
        try:
            again = encoder.encode_chunk(target, base, compressor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again.is_delta and again.payload == first.payload
        # Second call: the scratch exists, so all that is allocated is
        # the encoded sections (~11 KiB, twice while being cut to size)
        # and histogram-sized bookkeeping — nowhere near the 1 MiB
        # chunk, let alone its 2 MiB code array.
        assert peak < 96 * 1024, peak
        manager.close()
