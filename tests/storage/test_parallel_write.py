"""The staged write pipeline: plan → encode → commit.

The encode stage's thread-pool fan-out must be invisible except in
wall-clock: byte-identical payloads at byte-identical locations with
identical catalog rows at any fan width, on any backend.  The
commit stage must stay atomic at version granularity — a mid-encode
failure leaves zero chunk rows, no observable version, and a warm
cache — and concurrent readers must never see a version that is not
yet fully committed.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.array import ArrayData
from repro.core.errors import StorageError
from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.storage import (
    FaultInjectingBackend,
    InMemoryBackend,
    VersionedStorageManager,
    VersionRecord,
)

BACKENDS = ("local", "durable", "memory", "striped:2:memory",
            "object", "striped:2:object")
#: Fan widths a test sweeps within one run: inline, and two pools.
WIDTHS = (1, 2, 4)


def _schema(shape=(20, 20)) -> ArraySchema:
    dims = tuple(Dimension(name, 0, extent - 1)
                 for name, extent in zip("IJ", shape))
    return ArraySchema(dimensions=dims,
                       attributes=(Attribute("a", np.dtype(np.int64)),
                                   Attribute("b", np.dtype(np.float32))))


def _fill(manager: VersionedStorageManager, versions: int = 3) -> None:
    """Inserts, a branch, and a merge — every write path in one store."""
    schema = _schema()
    manager.create_array("A", schema)
    rng = np.random.default_rng(7)
    a = rng.integers(0, 1000, (20, 20)).astype(np.int64)
    b = rng.random((20, 20)).astype(np.float32)
    for _ in range(versions):
        manager.insert("A", ArrayData(schema, {"a": a, "b": b}))
        a = a + rng.integers(0, 3, (20, 20)).astype(np.int64)
        b = b + 0.25
    manager.branch("A", 2, "B")
    manager.merge([("A", 1), ("A", versions)], "M")


class TestParallelWriteConformance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stores_byte_identical_across_widths(self, tmp_path,
                                                 pin_fan, backend):
        fingerprints = set()
        for width in WIDTHS:
            with pin_fan(width):
                manager = VersionedStorageManager(
                    tmp_path / f"{backend.replace(':', '_')}-w{width}",
                    chunk_bytes=800, compressor="none",
                    delta_policy="chain", backend=backend)
                _fill(manager)
                fingerprints.add(manager.fingerprint())
                manager.close()
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("fan_width", [4], indirect=True)
    def test_fingerprint_identical_across_backends(self, tmp_path,
                                                   fan_width):
        """Placement is backend-agnostic: the same logical store means
        the same paths, offsets, and bytes on every substrate."""
        fingerprints = set()
        for backend in BACKENDS:
            manager = VersionedStorageManager(
                tmp_path / backend.replace(":", "_"),
                chunk_bytes=800, compressor="none",
                delta_policy="chain", backend=backend)
            _fill(manager)
            fingerprints.add(manager.fingerprint())
            manager.close()
        assert len(fingerprints) == 1

    def test_one_encode_task_per_chunk(self, tmp_path, fan_width):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          backend="memory",
                                          delta_policy="chain")
        schema = _schema()
        manager.create_array("A", schema)
        rng = np.random.default_rng(3)
        grid = manager.grid_for(manager.catalog.get_array("A"))
        chunks = sum(1 for _ in grid.chunks()) * len(schema.attributes)
        with manager.stats.measure() as window:
            manager.insert("A", ArrayData(schema, {
                "a": rng.integers(0, 9, (20, 20)).astype(np.int64),
                "b": rng.random((20, 20)).astype(np.float32)}))
        assert window.encode_tasks == chunks
        assert window.chunks_written == chunks
        manager.close()


class _RecordingBackend(InMemoryBackend):
    """Logs every write-side operation in arrival order."""

    def __init__(self):
        super().__init__()
        self.log: list[tuple[str, str]] = []

    def write(self, path, payload):
        self.log.append(("write", path))
        super().write(path, payload)

    def append(self, path, payload):
        self.log.append(("append", path))
        return super().append(path, payload)


class TestPlacementOrder:
    """Placements reach the backend one at a time in canonical task
    order — attributes in schema order, chunks in grid order — at every
    fan width.  That is what lets a backend whose behaviour
    depends on operation order (the fault injector's seeded schedule)
    sit under a parallel manager without a flag."""

    @pytest.mark.parametrize("placement", ("colocated", "per-version"))
    def test_backend_sees_task_order_at_every_width(self, tmp_path,
                                                    pin_fan,
                                                    placement):
        logs = []
        for width in WIDTHS:
            with pin_fan(width):
                backend = _RecordingBackend()
                manager = VersionedStorageManager(
                    tmp_path / f"w{width}", chunk_bytes=800,
                    delta_policy="chain", placement=placement,
                    backend=backend)
                _fill(manager)
                record = manager.catalog.get_array("A")
                tasks = manager.encoder.plan_version(
                    record, manager.grid_for(record))
                # The first insert's placements, in plan order.
                assert [path for _, path in backend.log[:len(tasks)]] == [
                    manager.store._chunk_path("A", 1, task.attribute,
                                              task.chunk.name)
                    for task in tasks]
                logs.append(backend.log)
                manager.close()
        assert logs[0] == logs[1] == logs[2]

    @pytest.mark.parametrize("seed", (7, 23))
    def test_fault_schedule_replays_at_every_width(self, tmp_path,
                                                   pin_fan, seed):
        """The Nth append is the same append at widths 1, 2 and 4, so
        a seeded schedule tears the same payload at the same byte and
        the retried history leaves the same store."""
        outcomes = []
        for width in WIDTHS:
            with pin_fan(width):
                backend = FaultInjectingBackend(InMemoryBackend(), seed=seed)
                assert backend.schedule["append"]
                manager = VersionedStorageManager(
                    tmp_path / f"w{width}", chunk_bytes=800,
                    delta_policy="chain", backend=backend)
                schema = _schema()
                manager.create_array("A", schema)
                rng = np.random.default_rng(seed)
                failed = []
                for version in range(1, 7):
                    data = ArrayData(schema, {
                        "a": rng.integers(0, 9, (20, 20)).astype(np.int64),
                        "b": rng.random((20, 20)).astype(np.float32)})
                    while True:
                        try:
                            assert manager.insert("A", data) == version
                            break
                        except StorageError as exc:
                            failed.append((version, str(exc)))
                assert failed, "the schedule never fired: nothing was tested"
                outcomes.append((failed, backend.injected,
                                 backend.total_bytes(),
                                 manager.fingerprint()))
                manager.close()
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestMidEncodeFailure:
    def test_zero_rows_no_version_warm_cache(self, tmp_path, fan_width,
                                             cold):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          delta_policy="chain",
                                          cache_bytes=1 << 20)
        schema = _schema()
        manager.create_array("A", schema)
        rng = np.random.default_rng(5)
        data = ArrayData(schema, {
            "a": rng.integers(0, 9, (20, 20)).astype(np.int64),
            "b": rng.random((20, 20)).astype(np.float32)})
        manager.insert("A", data)
        cold(manager, "A").select("A", 1)  # warms the cache
        warm = manager.cache_info()["entries"]
        assert warm > 0

        original = manager.encoder.encode_chunk
        calls = {"n": 0}

        def failing_encode(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:  # fail mid-version, after some chunks
                raise StorageError("codec blew up")
            return original(*args, **kwargs)

        manager.encoder.encode_chunk = failing_encode
        with pytest.raises(StorageError):
            manager.insert("A", data)
        manager.encoder.encode_chunk = original

        record = manager.catalog.get_array("A")
        # Zero chunk rows, no observable version, warm cache.
        assert manager.catalog.chunks_for_version(record.array_id, 2) \
            == []
        assert manager.get_versions("A") == [1]
        assert manager.cache_info()["entries"] == warm
        with manager.stats.measure() as window:
            manager.select("A", 1)
        assert window.chunks_read == 0  # still served from cache
        # The store recovers once the fault clears, and the faulted
        # version left no stale entry: the insert that takes its
        # number is what a reader sees.
        retry = ArrayData(schema, {
            "a": rng.integers(0, 9, (20, 20)).astype(np.int64),
            "b": rng.random((20, 20)).astype(np.float32)})
        assert manager.insert("A", retry) == 2
        got = manager.select("A", 2)
        for name in ("a", "b"):
            np.testing.assert_array_equal(got.attribute(name),
                                          retry.attribute(name))
        manager.close()

    def test_version_row_and_chunk_rows_commit_atomically(self,
                                                          tmp_path):
        """The version row rides the same transaction as its chunk
        rows: if either cannot land (here, a racing writer already
        claimed the number), neither does."""
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          delta_policy="chain")
        schema = _schema()
        manager.create_array("A", schema)
        rng = np.random.default_rng(5)
        data = ArrayData(schema, {
            "a": rng.integers(0, 9, (20, 20)).astype(np.int64),
            "b": rng.random((20, 20)).astype(np.float32)})
        manager.insert("A", data)

        # A conflicting version row appears after this insert computed
        # its number (the lost-race shape): the commit must fail whole.
        record = manager.catalog.get_array("A")
        original = manager.store.write_chunk

        def racing_write(*args, **kwargs):
            if manager.catalog.latest_version(record.array_id) == 1:
                manager.catalog.put_chunks([], [(VersionRecord(
                    record.array_id, 2, 1, kind="insert",
                    timestamp=999.0), ())])
            return original(*args, **kwargs)

        manager.store.write_chunk = racing_write
        with pytest.raises(Exception):
            manager.insert("A", data)
        manager.store.write_chunk = original

        # The failed insert's transaction rolled back whole: the rival
        # version row stands alone with zero chunk rows from the loser.
        assert manager.catalog.chunks_for_version(record.array_id, 2) \
            == []
        manager.close()

    def test_successful_insert_leaves_cache_in_place(self, tmp_path, cold):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          delta_policy="chain",
                                          cache_bytes=1 << 20)
        schema = _schema()
        manager.create_array("A", schema)
        rng = np.random.default_rng(5)
        data = ArrayData(schema, {
            "a": rng.integers(0, 9, (20, 20)).astype(np.int64),
            "b": rng.random((20, 20)).astype(np.float32)})
        manager.insert("A", data)
        cold(manager, "A").select("A", 1)
        warm = manager.cache_info()["entries"]
        assert warm > 0
        manager.insert("A", data)
        # Version 1's contents did not change, so its entries stay and
        # a re-read is served without touching the store.
        assert manager.cache_info()["entries"] == warm
        with manager.stats.measure() as window:
            manager.select("A", 1)
        assert window.chunks_read == 0
        manager.close()


class TestConcurrentReadersDuringParallelInsert:
    @pytest.mark.parametrize("fan_width", [4], indirect=True)
    def test_readers_never_see_partial_version(self, tmp_path, fan_width):
        """Chunk rows land before the version row, and both commit
        atomically — so any version a reader can *name* is fully
        readable, even while a parallel insert is in flight."""
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          delta_policy="chain")
        schema = _schema()
        manager.create_array("A", schema)
        rng = np.random.default_rng(13)
        contents = {}

        def version_data(v):
            base = np.full((20, 20), v, dtype=np.int64)
            return ArrayData(schema, {
                "a": base,
                "b": np.full((20, 20), float(v), dtype=np.float32)})

        manager.insert("A", version_data(1))
        contents[1] = version_data(1)

        # Slow the placement stage so readers overlap the write window.
        original = manager.store.write_chunk

        def slow_write(*args, **kwargs):
            threading.Event().wait(0.002)
            return original(*args, **kwargs)

        failures = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                versions = manager.get_versions("A")
                if not versions:
                    failures.append("no versions visible")
                    return
                v = versions[-1]
                try:
                    got = manager.select("A", v)
                except Exception as exc:  # partial version observed
                    failures.append(f"v{v}: {exc!r}")
                    return
                expected = version_data(v)
                if not np.array_equal(got.attribute("a"),
                                      expected.attribute("a")):
                    failures.append(f"v{v}: wrong contents")
                    return

        manager.store.write_chunk = slow_write
        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for v in range(2, 5):
                manager.insert("A", version_data(v))
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            manager.store.write_chunk = original
        assert failures == []
        assert manager.get_versions("A") == [1, 2, 3, 4]
        manager.close()


class TestRepackTransactionality:
    def test_repack_rewrites_catalog_in_one_transaction(self, tmp_path):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          delta_policy="chain")
        _fill(manager)
        calls = []
        original_put_chunks = manager.catalog.put_chunks

        def spy_put_chunks(records, **kwargs):
            calls.append(len(records))
            return original_put_chunks(records, **kwargs)

        record = manager.catalog.get_array("A")
        rows = len(manager.catalog.all_chunks(record.array_id))
        dropped = len(manager.catalog.chunks_for_version(record.array_id, 2))
        manager.catalog.put_chunks = spy_put_chunks
        manager.delete_version("A", 2)
        manager.catalog.put_chunks = original_put_chunks

        # The re-encoded dependent and every compacted row swap in one
        # transaction; never row-at-a-time, never version-at-a-time.
        assert calls == [rows - dropped]
        # The store still reads cleanly through the new locations.
        for version in manager.get_versions("A"):
            manager.select("A", version)
        manager.close()

    @pytest.mark.parametrize("operation", [
        lambda manager: manager.delete_version("A", 2),
        lambda manager: manager.delete_version("A", 3),
        lambda manager: manager.apply_layout("A", {3: None, 2: 3, 1: 2}),
        lambda manager: manager.reorganize("A", mode="head"),
    ], ids=["delete-middle", "delete-head", "apply-layout", "reorganize"])
    def test_rewrite_commits_exactly_one_transaction(self, tmp_path,
                                                     operation):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          delta_policy="chain")
        _fill(manager)
        statements = []
        manager.catalog._conn.set_trace_callback(statements.append)
        operation(manager)
        manager.catalog._conn.set_trace_callback(None)
        assert statements.count("COMMIT") == 1
        manager.close()

    def test_failed_catalog_rewrite_leaves_no_mixed_state(self, tmp_path):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          delta_policy="chain")
        _fill(manager)
        record = manager.catalog.get_array("A")
        before = {(c.version, c.attribute, c.chunk_name): c.location
                  for c in manager.catalog.all_chunks(record.array_id)}
        contents = {version: manager.select("A", version).attribute("a")
                    for version in manager.get_versions("A")}

        original = manager.catalog.put_chunks

        def failing_put_chunks(records, **kwargs):
            raise StorageError("catalog unavailable")

        manager.catalog.put_chunks = failing_put_chunks
        with pytest.raises(StorageError):
            manager.delete_version("A", 2)
        manager.catalog.put_chunks = original

        after = {(c.version, c.attribute, c.chunk_name): c.location
                 for c in manager.catalog.all_chunks(record.array_id)}
        # All-or-nothing: the rewrite failed, so every row still holds
        # its pre-rewrite location — never a mix of old and new — and
        # the version it was deleting still reads.
        assert after == before
        assert manager.get_versions("A") == sorted(contents)
        for version, expected in contents.items():
            np.testing.assert_array_equal(
                manager.select("A", version).attribute("a"), expected)
        manager.close()


class TestDurabilityBarrier:
    def test_commit_raises_barrier_before_catalog(self, tmp_path):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          backend="durable",
                                          delta_policy="chain")
        schema = _schema()
        manager.create_array("A", schema)
        events = []
        original_sync = manager.store.backend.sync
        original_put = manager.catalog.put_chunks

        def spy_sync(paths, **kwargs):
            events.append(("sync", tuple(sorted(paths))))
            return original_sync(paths, **kwargs)

        def spy_put(records, **kwargs):
            events.append(("commit", len(records)))
            return original_put(records, **kwargs)

        manager.store.backend.sync = spy_sync
        manager.catalog.put_chunks = spy_put
        rng = np.random.default_rng(5)
        manager.insert("A", ArrayData(schema, {
            "a": rng.integers(0, 9, (20, 20)).astype(np.int64),
            "b": rng.random((20, 20)).astype(np.float32)}))
        manager.store.backend.sync = original_sync
        manager.catalog.put_chunks = original_put

        kinds = [kind for kind, _ in events]
        assert kinds == ["sync", "commit"]
        synced_paths = events[0][1]
        assert len(synced_paths) == events[1][1]  # one object per chunk
        manager.close()

    @pytest.mark.parametrize("fan_width", [4], indirect=True)
    def test_durable_store_reads_back(self, tmp_path, fan_width):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          backend="durable",
                                          delta_policy="chain")
        _fill(manager)
        reread = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                         backend="durable",
                                         delta_policy="chain")
        for version in (1, 2, 3):
            np.testing.assert_array_equal(
                manager.select("A", version).attribute("a"),
                reread.select("A", version).attribute("a"))
        manager.close()
        reread.close()


class TestObjectFinalizeBarrier:
    """On the object backend the per-version sync is the multipart
    finalize barrier: staged parts become committed object bytes
    before the catalog transaction names them."""

    def test_commit_finalizes_before_catalog(self, tmp_path):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          backend="object",
                                          delta_policy="chain")
        schema = _schema()
        manager.create_array("A", schema)
        backend = manager.backend
        pending_at_commit = []
        original_put = manager.catalog.put_chunks

        def spy_put(records, **kwargs):
            pending_at_commit.append(backend.pending_parts())
            return original_put(records, **kwargs)

        manager.catalog.put_chunks = spy_put
        rng = np.random.default_rng(5)
        manager.insert("A", ArrayData(schema, {
            "a": rng.integers(0, 9, (20, 20)).astype(np.int64),
            "b": rng.random((20, 20)).astype(np.float32)}))
        manager.catalog.put_chunks = original_put

        # Placement staged parts, but by the time the catalog
        # transaction ran, the barrier had finalized every upload.
        assert pending_at_commit == [0]
        assert backend.pending_parts() == 0
        manager.close()

    @pytest.mark.parametrize("fan_width", [4], indirect=True)
    def test_object_store_reads_back_across_reopen(self, tmp_path, fan_width):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          backend="object",
                                          delta_policy="chain")
        _fill(manager)
        expected = {version: manager.select("A", version).attribute("a")
                    for version in (1, 2, 3)}
        fingerprint = manager.fingerprint()
        manager.close()
        reread = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                         backend="object",
                                         delta_policy="chain")
        for version, contents in expected.items():
            np.testing.assert_array_equal(
                reread.select("A", version).attribute("a"), contents)
        assert reread.fingerprint() == fingerprint
        manager.close()
        reread.close()
