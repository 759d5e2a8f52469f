"""Concurrent decode, chain warm fill, and transactional write batching.

The parallel select path must be invisible except in wall-clock: the
same bytes, the same exact I/O counters, the same cache occupancy as
the serial pass.  The write path must be atomic at version granularity:
a failure anywhere mid-write leaves zero chunk rows in the catalog.
Concurrency itself is held to a census — three kinds of pool under
one manager, none of them nested, none alive after ``close()`` — and
an operation that raises leaves none of its tasks running.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.errors import CodecError, NoOverwriteError, StorageError
from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.storage import (
    COLOCATED,
    PER_VERSION,
    ChunkLocation,
    ChunkRecord,
    FaultInjectingBackend,
    InMemoryBackend,
    MetadataCatalog,
    VersionedStorageManager,
)


def _two_attr_schema(shape=(24, 24)) -> ArraySchema:
    dims = tuple(Dimension(name, 0, extent - 1)
                 for name, extent in zip("IJ", shape))
    return ArraySchema(dimensions=dims,
                       attributes=(Attribute("a", np.dtype(np.int64)),
                                   Attribute("b", np.dtype(np.float32))))


def _loaded(root, *, versions=4, workers=0, **kwargs):
    manager = VersionedStorageManager(root, chunk_bytes=800,
                                      compressor="none",
                                      delta_policy="chain",
                                      workers=workers, **kwargs)
    schema = _two_attr_schema()
    manager.create_array("A", schema)
    rng = np.random.default_rng(42)
    a = rng.integers(0, 1000, (24, 24)).astype(np.int64)
    b = rng.random((24, 24)).astype(np.float32)
    from repro.core.array import ArrayData
    for _ in range(versions):
        manager.insert("A", ArrayData(schema, {"a": a, "b": b}))
        a = a + rng.integers(0, 3, (24, 24)).astype(np.int64)
        b = b + 0.5
    return manager


class TestParallelDecodeDeterminism:
    def test_read_version_byte_identical(self, tmp_path):
        serial = _loaded(tmp_path / "serial", workers=0)
        parallel = _loaded(tmp_path / "parallel", workers=4)
        for version in serial.get_versions("A"):
            left = serial.select("A", version)
            right = parallel.select("A", version)
            for attr in ("a", "b"):
                np.testing.assert_array_equal(left.attribute(attr),
                                              right.attribute(attr))
        serial.close()
        parallel.close()

    def test_read_region_byte_identical(self, tmp_path):
        serial = _loaded(tmp_path / "serial", workers=0)
        parallel = _loaded(tmp_path / "parallel", workers=4)
        for lo, hi in [((0, 0), (23, 23)), ((3, 5), (20, 18)),
                       ((7, 7), (7, 7))]:
            left = serial.select_region("A", 4, lo, hi)
            right = parallel.select_region("A", 4, lo, hi)
            for attr in ("a", "b"):
                np.testing.assert_array_equal(left.attribute(attr),
                                              right.attribute(attr))
        serial.close()
        parallel.close()

    def test_constructor_workers_sizes_the_decode_pool(self, tmp_path):
        """The constructor's degree is the only one: a parallel manager
        reopened over a serially written store fans its reads across a
        pool of exactly that many threads, same bytes."""
        _loaded(tmp_path, workers=0).close()
        serial = VersionedStorageManager(tmp_path, workers=1)
        parallel = VersionedStorageManager(tmp_path, workers=4)
        left = serial.select("A", 4)
        right = parallel.select("A", 4)
        for attr in ("a", "b"):
            np.testing.assert_array_equal(left.attribute(attr),
                                          right.attribute(attr))
        assert serial.decoder._executor is None  # never fanned out
        assert parallel.decoder._executor._max_workers == 4
        serial.close()
        parallel.close()

    def test_io_counters_exact_under_parallelism(self, tmp_path):
        """Lock-protected IOStats: not one lost increment at workers=4."""
        serial = _loaded(tmp_path / "serial", workers=0)
        parallel = _loaded(tmp_path / "parallel", workers=4)
        with serial.stats.measure() as expected:
            serial.select("A", 4)
        with parallel.stats.measure() as observed:
            parallel.select("A", 4)
        assert observed.chunks_read == expected.chunks_read
        assert observed.bytes_read == expected.bytes_read
        assert observed.file_opens == expected.file_opens
        serial.close()
        parallel.close()

    def test_concurrent_selects_share_one_cache_exactly(self, tmp_path):
        """Many threads select through one locked cache; byte
        accounting must match a single-threaded replay."""
        manager = _loaded(tmp_path, workers=2, cache_bytes=1 << 20)
        versions = manager.get_versions("A")
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(manager.select, "A", version)
                       for version in versions for _ in range(3)]
            results = [future.result() for future in futures]
        expected = {v: manager.select("A", v) for v in versions}
        for (version, _), result in zip(
                [(v, i) for v in versions for i in range(3)], results):
            np.testing.assert_array_equal(
                result.attribute("a"), expected[version].attribute("a"))
        info = manager.cache_info()
        # Bytes accounting stayed consistent under contention.
        assert info["bytes"] == sum(
            entry.nbytes
            for entry in manager.cache._entries.values())
        manager.close()


class TestWorkersConfiguration:
    def test_malformed_env_rejected_loudly(self, tmp_path, monkeypatch):
        """A misconfigured REPRO_WORKERS must fail, not silently run
        serial (the CI parallel matrix cell would test nothing)."""
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.raises(StorageError):
            VersionedStorageManager(tmp_path / "bad")
        assert not (tmp_path / "bad").exists()  # no durable state

    def test_env_default_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        manager = VersionedStorageManager(tmp_path, backend="memory")
        assert manager.workers == 3
        manager.close()

    def test_negative_workers_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            VersionedStorageManager(tmp_path / "bad", workers=-1)
        assert not (tmp_path / "bad").exists()


def _repro_threads(before: set) -> list[threading.Thread]:
    """Live library threads started since ``before`` was taken."""
    return [thread for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("repro-")]


class TestThreadCensus:
    """One fan per direction plus the barrier's own: whatever the
    backend spec and placement, a manager at ``workers=4`` runs encode
    workers, decode workers and — only where a leg of the backend has
    a real barrier — ``SYNC_FAN`` barrier workers, and nothing else."""

    SPECS = ("local", "durable", "memory", "object", "object:durable",
             "striped:2", "striped:2:durable", "striped:2:object",
             "faulty:0:durable")

    @pytest.mark.parametrize("placement", (COLOCATED, PER_VERSION))
    @pytest.mark.parametrize("spec", SPECS)
    def test_pool_kinds_and_lifetime(self, tmp_path, spec, placement):
        before = set(threading.enumerate())
        manager = _loaded(tmp_path, versions=5, workers=4, backend=spec,
                          placement=placement)
        manager.select("A", 5)
        manager.select_region("A", 4, (3, 5), (20, 18))
        manager.delete_version("A", 3)

        kinds = {thread.name.rsplit("_", 1)[0]
                 for thread in _repro_threads(before)}
        assert {"repro-encode", "repro-decode"} <= kinds
        assert kinds <= {"repro-encode", "repro-decode", "repro-sync"}
        # A barrier pool exists exactly where a barrier does.
        assert ("repro-sync" in kinds) == ("durable" in spec)

        backend = manager.backend
        manager.close()
        assert _repro_threads(before) == []
        # Closed is not dead: the backend serves, and raises its
        # barrier (rebuilding the pool it needs), again.
        backend.write("probe/a.dat", b"xy")
        backend.append("probe/b.dat", b"z")
        backend.sync(["probe/a.dat", "probe/b.dat"])
        assert backend.read_many("probe/a.dat", [(1, 1), (0, 1)]) == \
            [b"y", b"x"]
        backend.close()
        assert _repro_threads(before) == []


class _InFlight:
    """Wraps a pipeline's per-chunk function: how many calls have
    started, and how many are running right now."""

    def __init__(self, function):
        self.function = function
        self.started = 0
        self.running = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.started += 1
            self.running += 1
        try:
            return self.function(*args, **kwargs)
        finally:
            with self._lock:
                self.running -= 1


class TestFailedOperationsLeaveNothingRunning:
    """An insert or select that raises has cancelled or waited out
    every task it started by the time the caller sees the error: the
    counters stop with it and a retry's window is its own."""

    SHAPE = (512, 512)

    def _manager(self, tmp_path, backend):
        manager = VersionedStorageManager(
            tmp_path, chunk_bytes=16 * 1024, delta_policy="chain",
            backend=backend, workers=4)
        manager.create_array(
            "A", ArraySchema.simple(self.SHAPE, dtype=np.int32))
        return manager

    def test_failed_insert_stops_its_encode_tasks(self, tmp_path):
        rng = np.random.default_rng(20)
        data = rng.integers(0, 1000, self.SHAPE).astype(np.int32)
        clean = self._manager(tmp_path / "clean", InMemoryBackend())
        with clean.stats.measure() as expected:
            clean.insert("A", data)
        clean.close()
        assert expected.encode_tasks == 64

        backend = FaultInjectingBackend(
            InMemoryBackend(), schedule={"append": frozenset({3})})
        manager = self._manager(tmp_path / "faulty", backend)
        encodes = manager.encoder.encode_chunk = _InFlight(
            manager.encoder.encode_chunk)
        with pytest.raises(StorageError, match="append #3"):
            manager.insert("A", data)
        at_raise = manager.stats.snapshot(), encodes.started
        assert encodes.running == 0
        time.sleep(0.3)
        assert (manager.stats.snapshot(), encodes.started) == at_raise
        # The window that was in flight, not the rest of the version.
        assert 3 <= encodes.started < 64

        # The schedule is spent; the retry's window is a clean insert's.
        with manager.stats.measure() as retried:
            assert manager.insert("A", data) == 1
        assert retried == expected
        np.testing.assert_array_equal(manager.select("A", 1).single(),
                                      data)
        manager.close()

    def test_failed_select_stops_its_decode_tasks(self, tmp_path):
        rng = np.random.default_rng(21)
        data = rng.integers(0, 1000, self.SHAPE).astype(np.int32)
        manager = self._manager(tmp_path, "memory")
        manager.insert("A", data)
        manager.insert("A", data + 1)
        record = manager.catalog.get_array("A")
        # Smash the second chunk's delta level: its frame no longer
        # parses, the 62 chunks queued behind it still would.
        victim = manager.catalog.chunks_for_version(record.array_id, 2)[1]
        location = victim.location
        blob = bytearray(manager.backend.read(
            location.path, 0, manager.backend.total_bytes(location.path)))
        blob[location.offset:location.offset + location.length] = \
            b"\xff" * location.length
        manager.backend.write(location.path, bytes(blob))

        decodes = manager.decoder.reconstruct = _InFlight(
            manager.decoder.reconstruct)
        with pytest.raises(CodecError):
            manager.select("A", 2)
        at_raise = manager.stats.snapshot(), decodes.started
        assert decodes.running == 0
        time.sleep(0.3)
        assert (manager.stats.snapshot(), decodes.started) == at_raise
        assert 2 <= decodes.started < 64
        # Version 1 shares the objects but not the smashed bytes.
        np.testing.assert_array_equal(manager.select("A", 1).single(),
                                      data)
        manager.close()


def _chained(root, depth=5, **kwargs):
    """A 2x2-chunk array whose five versions form full delta chains
    (the same construction test_pipeline's chain-read tests rely on)."""
    manager = VersionedStorageManager(root, chunk_bytes=800,
                                      compressor="none",
                                      delta_policy="chain", **kwargs)
    manager.create_array("C", ArraySchema.simple((20, 20),
                                                 dtype=np.int64))
    rng = np.random.default_rng(2012)
    data = rng.integers(0, 1000, (20, 20)).astype(np.int64)
    for _ in range(depth):
        manager.insert("C", data)
        data = np.where(rng.random((20, 20)) > 0.9, data + 1, data)
    return manager


#: The tight-cache tests assert exact counters, which need the serial
#: chunk order whatever the CI matrix cell says.
SERIAL = dict(workers=0)


class TestChainPrefetch:
    """A cache miss does one of two jobs: warm-fill the whole chain
    when it fits the cache's free space, or read just the requested
    version (fused) when it does not."""

    def test_roomy_cache_warm_fills_whole_chain(self, tmp_path):
        manager = _chained(tmp_path, cache_bytes=1 << 20)
        with manager.stats.measure() as first:
            manager.select("C", 5)  # decodes every chain root→5 once
        assert first.chunks_read == 4 * 5  # 4 chunks, 5-deep chains
        assert first.chains_fused == 0
        info = manager.cache_info()
        assert info["prefetched"] == 4 * 4  # every level below v5
        assert info["prefetch_declined"] == 0
        with manager.stats.measure() as window:
            for version in (1, 2, 3, 4):
                manager.select("C", version)
        assert window.chunks_read == 0  # all served by the warm fill
        assert window.cache_misses == 0
        manager.close()

    def test_cached_ancestor_terminates_later_chain_walks(self, tmp_path):
        manager = _chained(tmp_path, cache_bytes=1 << 20)
        manager.select("C", 3)
        with manager.stats.measure() as window:
            manager.select("C", 5)  # chain walk stops at cached v3
        # Only the v4+v5 suffix of each of the four chains is read.
        assert window.chunks_read == 4 * 2
        manager.close()

    def test_tight_cache_fuses_and_admits_requested_only(self, tmp_path):
        # Budget: one whole version (4 chunks of 800 B) plus one chunk
        # — a 5-deep chain of any chunk can never fit the free space.
        budget = 5 * 800
        manager = _chained(tmp_path, cache_bytes=budget, **SERIAL)
        manager.select("C", 1)  # demanded: v1's four chunks
        demanded = manager.cache_info()["entries"]
        assert demanded == 4
        with manager.stats.measure() as window:
            manager.select("C", 5)  # deep cold read
        assert window.chains_fused == 4
        info = manager.cache_info()
        assert info["prefetch_declined"] == 4
        assert info["prefetched"] == 0
        assert info["bytes"] <= budget
        # Only the requested version went in; versions 2-4 did not.
        with manager.stats.measure() as window:
            manager.select("C", 5)
        assert window.chunks_read == 0
        for version in (2, 3, 4):
            with manager.stats.measure() as window:
                manager.select("C", version)
                assert manager.cache_info()["bytes"] <= budget
            assert window.cache_misses == 4
        manager.close()

    def test_deep_cold_read_keeps_demanded_entries(self, tmp_path):
        # Budget: array D's four demanded chunks plus the four chunks
        # of the version about to be requested.  The free space is
        # under one 5-deep chain, so every fill declines, the requested
        # chunks fit exactly, and nothing demanded is evicted.
        budget = 8 * 800
        manager = _chained(tmp_path, cache_bytes=budget, **SERIAL)
        manager.create_array("D", ArraySchema.simple((20, 20),
                                                     dtype=np.int64))
        manager.insert("D", np.arange(400, dtype=np.int64)
                       .reshape(20, 20))
        manager.select("D", 1)
        with manager.stats.measure() as window:
            manager.select("C", 5)
        assert window.chains_fused == 4
        info = manager.cache_info()
        assert info["prefetch_declined"] == 4
        assert info["entries"] == 8 and info["bytes"] <= budget
        with manager.stats.measure() as window:
            manager.select("D", 1)
        assert window.chunks_read == 0  # still cached
        manager.close()

    def test_fused_read_leaves_cached_base_untouched(self, tmp_path):
        """A fused walk that stops at a cached ancestor applies onto a
        fresh accumulator, never through the cached array."""
        manager = _chained(tmp_path, cache_bytes=8 * 800, **SERIAL)
        manager.select("C", 2)  # warm fill: v1 + v2 use every byte
        before = manager.select("C", 2).single().copy()
        with manager.stats.measure() as window:
            manager.select("C", 5)  # walk stops at cached v2, fuses 3
        assert window.chains_fused == 4
        assert window.fused_levels == 4 * 3
        assert window.chunks_read == 4 * 3
        np.testing.assert_array_equal(manager.select("C", 2).single(),
                                      before)
        manager.close()

    @pytest.mark.parametrize("cache_bytes", (5 * 800, 1 << 20))
    def test_identical_results_either_job(self, tmp_path, cache_bytes):
        plain = _chained(tmp_path / "plain")  # cache off entirely
        cached = _chained(tmp_path / "cached", cache_bytes=cache_bytes)
        for version in (5, 1, 3, 2, 4, 5):
            np.testing.assert_array_equal(
                cached.select("C", version).single(),
                plain.select("C", version).single())
        plain.close()
        cached.close()


class TestTransactionalWriteBatching:
    def test_mid_write_failure_leaves_zero_chunk_rows(self, tmp_path):
        manager = _loaded(tmp_path, versions=2)
        record = manager.catalog.get_array("A")
        original = manager.store.write_chunk
        calls = {"n": 0}

        def failing_write(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:  # fail mid-version, after some payloads
                raise StorageError("disk full")
            return original(*args, **kwargs)

        manager.store.write_chunk = failing_write
        data = manager.select("A", 2)
        with pytest.raises(StorageError):
            manager.insert("A", data)
        manager.store.write_chunk = original

        # Zero chunk rows and no version row for the failed insert.
        assert manager.catalog.chunks_for_version(record.array_id, 3) \
            == []
        assert manager.get_versions("A") == [1, 2]
        # The store recovers: the next insert lands cleanly as v3.
        assert manager.insert("A", data) == 3
        np.testing.assert_array_equal(
            manager.select("A", 3).attribute("a"), data.attribute("a"))
        manager.close()

    def test_put_chunks_rolls_back_whole_batch(self):
        catalog = MetadataCatalog()
        schema = ArraySchema.simple((4, 4), dtype=np.int32)
        record = catalog.create_array("A", schema, chunk_bytes=64,
                                      compressor="none", created_at=0.0)

        def chunk_row(name, offset):
            return ChunkRecord(
                array_id=record.array_id, version=1, attribute="value",
                chunk_name=name, delta_codec=None, base_version=None,
                compressor="none",
                location=ChunkLocation("A/chunks/value/" + name,
                                       offset, 16))

        poisoned = chunk_row("chunk-1", 16)
        # A location sqlite cannot bind: executemany fails after BEGIN.
        object.__setattr__(poisoned, "location",
                           ChunkLocation("A", object(), 16))
        with pytest.raises(Exception):
            catalog.put_chunks([chunk_row("chunk-0", 0), poisoned])
        assert catalog.chunks_for_version(record.array_id, 1) == []

        catalog.put_chunks([chunk_row("chunk-0", 0),
                            chunk_row("chunk-1", 16)])
        assert len(catalog.chunks_for_version(record.array_id, 1)) == 2
        catalog.close()

    def test_failed_branch_leaves_no_partial_array(self, tmp_path):
        manager = _loaded(tmp_path, versions=2)
        original = manager.store.write_chunk
        calls = {"n": 0}

        def failing_write(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise StorageError("disk full")
            return original(*args, **kwargs)

        manager.store.write_chunk = failing_write
        with pytest.raises(StorageError):
            manager.branch("A", 2, "B")
        manager.store.write_chunk = original
        assert manager.list_arrays() == ["A"]
        # The branch works once the fault clears.
        manager.branch("A", 2, "B")
        assert manager.get_versions("B") == [1]
        manager.close()

    def test_failed_merge_leaves_no_partial_array(self, tmp_path):
        manager = _loaded(tmp_path, versions=3)
        original = manager.store.write_chunk
        calls = {"n": 0}

        def failing_write(*args, **kwargs):
            calls["n"] += 1
            # Let the first parent replay fully, fail during the second.
            if calls["n"] > 20:
                raise StorageError("disk full")
            return original(*args, **kwargs)

        manager.store.write_chunk = failing_write
        with pytest.raises(StorageError):
            manager.merge([("A", 1), ("A", 3)], "M")
        manager.store.write_chunk = original
        assert manager.list_arrays() == ["A"]
        manager.merge([("A", 1), ("A", 3)], "M")
        assert manager.get_versions("M") == [1, 2]
        manager.close()

    def test_rejected_overwrite_keeps_cache_warm(self, tmp_path):
        """Regression: NoOverwriteError must not invalidate the cache."""
        manager = _loaded(tmp_path, versions=2, cache_bytes=1 << 20)
        contents = manager.select("A", 2)  # warms the cache
        warm = manager.cache_info()["entries"]
        assert warm > 0
        record = manager.catalog.get_array("A")
        with pytest.raises(NoOverwriteError):
            manager.encoder.write_version(
                record, manager.grid_for(record), 2, contents,
                base_data=None, base_version=None)
        assert manager.cache_info()["entries"] == warm
        with manager.stats.measure() as window:
            manager.select("A", 2)
        assert window.chunks_read == 0  # still served from cache
        manager.close()
