"""The catalog's parsed array records: one parse per array per catalog,
never a record of a dropped array.

``MetadataCatalog.get_array`` answers from the records it has parsed,
each carrying its chunk grid; only its own ``delete_array`` drops one.
These tests pin both halves: a read runs no SQL once its array's
snapshot is built and parses no schema, and every way an
array can go away — drop, drop and re-create under the same id, a
branch whose root write fails, close and reopen, a concurrent drop —
leaves no stale record, grid or cached chunk behind.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.errors import ArrayNotFoundError, StorageError
from repro.core.schema import ArraySchema
from repro.query import Database
from repro.storage import FaultInjectingBackend, InMemoryBackend
from repro.storage.manager import VersionedStorageManager

CACHE_BYTES = 1 << 20


def _data(shape, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 1000, shape).astype(np.int32)


def _subsample(name: str, version: int, r0, r1, c0, c1) -> str:
    return f"SELECT * FROM SUBSAMPLE({name}@{version}, {r0}, {r1}, " \
           f"{c0}, {c1});"


def _assert_reads(db: Database, name: str, contents: list[np.ndarray]):
    """Every read form returns ``contents`` (versions 1..n)."""
    manager = db.manager
    for version, expected in enumerate(contents, 1):
        rows, cols = expected.shape
        window = (1, rows - 2, 2, cols - 1)
        r0, r1, c0, c1 = window
        np.testing.assert_array_equal(
            manager.select(name, version).single(), expected)
        np.testing.assert_array_equal(
            manager.select_region(name, version, (r0, c0),
                                  (r1, c1)).single(),
            expected[r0:r1 + 1, c0:c1 + 1])
        np.testing.assert_array_equal(
            db.execute(_subsample(name, version, *window)).value,
            expected[r0:r1 + 1, c0:c1 + 1])


class TestDroppedArrays:
    @pytest.mark.parametrize("cache_bytes", [0, CACHE_BYTES],
                             ids=["cache-off", "cache-on"])
    @pytest.mark.parametrize("reuse_id", [True, False],
                             ids=["same-id", "new-id"])
    def test_recreated_array_reads_its_own_schema_and_contents(
            self, tmp_path, cache_bytes, reuse_id):
        db = Database(tmp_path, chunk_bytes=1024, cache_bytes=cache_bytes)
        manager = db.manager
        old = [_data((16, 16), seed) for seed in (1, 2)]
        db.create_array("A", ArraySchema.simple((16, 16), dtype=np.int32))
        if not reuse_id:
            # A later array keeps the max id, so A's is not reused.
            db.create_array("Z", ArraySchema.simple((4, 4),
                                                    dtype=np.int32))
        for contents in old:
            db.insert("A", contents)
        db.execute("LABEL(A@2 old);")
        _assert_reads(db, "A", old)  # warm records, grids and cache
        old_record = manager.catalog.get_array("A")
        assert manager.grid_for(old_record).shape == (16, 16)

        db.execute("DROP ARRAY A;")
        with pytest.raises(ArrayNotFoundError):
            manager.catalog.get_array("A")
        new = [_data((12, 20), seed) for seed in (3, 4, 5)]
        manager.create_array("A", ArraySchema.simple((12, 20),
                                                     dtype=np.int32),
                             chunk_shape=(5, 7))
        for contents in new:
            db.insert("A", contents)

        record = manager.catalog.get_array("A")
        assert (record.array_id == old_record.array_id) == reuse_id
        assert record.schema.shape == (12, 20)
        grid = manager.grid_for(record)
        assert (grid.shape, grid.strides, grid.counts) == \
            ((12, 20), (5, 7), (3, 3))
        assert manager.labels("A") == []
        _assert_reads(db, "A", new)
        db.close()

    def test_failed_branch_root_leaves_no_record(self, tmp_path):
        # The insert's barrier is sync #1; the branch root's is #2.
        manager = VersionedStorageManager(
            tmp_path, chunk_bytes=1024,
            backend=FaultInjectingBackend(
                InMemoryBackend(), schedule={"sync": frozenset({2})}))
        manager.create_array("A", ArraySchema.simple((8, 8),
                                                     dtype=np.int32))
        manager.insert("A", _data((8, 8), 1))
        with pytest.raises(StorageError, match="sync #2"):
            manager.branch("A", 1, "B")
        with pytest.raises(ArrayNotFoundError):
            manager.catalog.get_array("B")
        assert manager.list_arrays() == ["A"]
        # The name is free again, for a different shape.
        manager.create_array("B", ArraySchema.simple((3, 5),
                                                     dtype=np.int32))
        manager.insert("B", _data((3, 5), 2))
        np.testing.assert_array_equal(manager.select("B", 1).single(),
                                      _data((3, 5), 2))
        manager.close()

    def test_reopened_store_reads_the_same(self, tmp_path):
        first = Database(tmp_path, chunk_bytes=1024,
                         cache_bytes=CACHE_BYTES, backend="local")
        first.create_array("A", ArraySchema.simple((16, 16),
                                                   dtype=np.int32))
        first.insert("A", _data((16, 16), 1))
        first.execute("DROP ARRAY A;")
        first.manager.create_array(
            "A", ArraySchema.simple((10, 14), dtype=np.int32),
            chunk_shape=(4, 4))
        contents = [_data((10, 14), seed) for seed in (2, 3)]
        for array in contents:
            first.insert("A", array)
        _assert_reads(first, "A", contents)
        before = (first.manager.catalog.get_array("A"),
                  first.manager.fingerprint())
        first.close()

        second = Database(tmp_path, chunk_bytes=1024,
                          cache_bytes=CACHE_BYTES, backend="local")
        record = second.manager.catalog.get_array("A")
        assert (record, second.manager.fingerprint()) == before
        assert second.manager.grid_for(record).strides == (4, 4)
        _assert_reads(second, "A", contents)
        second.close()

    def test_concurrent_drops_never_disturb_region_reads(self, tmp_path):
        db = Database(tmp_path, chunk_bytes=256, cache_bytes=CACHE_BYTES,
                      backend="memory")
        manager = db.manager
        truth = [_data((16, 16), seed) for seed in (1, 2, 3)]
        db.create_array("A", ArraySchema.simple((16, 16), dtype=np.int32))
        for contents in truth:
            db.insert("A", contents)
        stop = threading.Event()
        wrong: list[str] = []
        reads = [0] * 4

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                version = int(rng.integers(1, 4))
                lo = [int(low) for low in rng.integers(0, 16, 2)]
                hi = [int(rng.integers(low, 16)) for low in lo]
                try:
                    got = manager.select_region("A", version, tuple(lo),
                                                tuple(hi)).single()
                except Exception as error:  # reported, not swallowed
                    wrong.append(f"A@{version}: {error!r}")
                    return
                expected = truth[version - 1][lo[0]:hi[0] + 1,
                                              lo[1]:hi[1] + 1]
                if not np.array_equal(got, expected):
                    wrong.append(f"A@{version} {lo}..{hi}")
                reads[seed] += 1

        def churner() -> None:
            try:
                for step in range(40):
                    side = 4 + step % 5
                    manager.create_array("B", ArraySchema.simple(
                        (side, side), dtype=np.int32))
                    contents = _data((side, side), step)
                    manager.insert("B", contents)
                    if not np.array_equal(
                            manager.select("B", 1).single(), contents):
                        wrong.append(f"B step {step}")
                    manager.delete_array("B")
            except Exception as error:  # reported, not swallowed
                wrong.append(f"B: {error!r}")
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(4)]
        threads.append(threading.Thread(target=churner))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert all(reads)
        assert manager.list_arrays() == ["A"]
        db.close()


@contextmanager
def _statements(manager):
    """Every SQL statement the manager's catalog runs inside the block."""
    executed: list[str] = []
    connection = manager.catalog._conn
    connection.set_trace_callback(executed.append)
    try:
        yield executed
    finally:
        connection.set_trace_callback(None)


class TestOneParsePerArray:
    """Machine-independent gates on what reads and writes cost the
    catalog: a read runs no SQL once its array is touched, a write only
    its own transaction."""

    @pytest.fixture
    def warm(self, tmp_path) -> Database:
        db = Database(tmp_path, chunk_bytes=256, cache_bytes=CACHE_BYTES,
                      backend="memory")
        db.create_array("A", ArraySchema.simple((16, 16), dtype=np.int32))
        db.insert("A", _data((16, 16), 1))
        db.insert("A", _data((16, 16), 2))
        yield db
        db.close()

    def test_warm_subsample_runs_no_sql(self, warm):
        statement = _subsample("A", 2, 3, 12, 1, 9)  # spans 4 chunks
        expected = warm.execute(statement).value  # fills the cache
        with _statements(warm.manager) as executed:
            np.testing.assert_array_equal(
                warm.execute(statement).value, expected)
        assert executed == []

    def test_cold_deep_select_runs_no_sql(self):
        manager = VersionedStorageManager("in-memory", chunk_bytes=256,
                                          backend="memory")
        manager.create_array("A", ArraySchema.simple((16, 16),
                                                     dtype=np.int32))
        data = _data((16, 16), 1)
        for step in range(32):
            manager.insert("A", data + step)
        with _statements(manager) as executed:
            np.testing.assert_array_equal(
                manager.select("A", 32).single(), data + 31)
        assert executed == []
        manager.close()

    def test_insert_runs_only_its_write_transaction(self, warm):
        with _statements(warm.manager) as executed:
            warm.insert("A", _data((16, 16), 3))
        assert executed[0] == "BEGIN" and executed[-1] == "COMMIT"
        assert executed.count("BEGIN") == executed.count("COMMIT") == 1
        assert all(sql.startswith("INSERT ") for sql in executed[1:-1])

    def test_first_touch_after_a_reopen_runs_four_statements(self,
                                                            tmp_path):
        first = Database(tmp_path, chunk_bytes=256, backend="local")
        first.create_array("A", ArraySchema.simple((16, 16),
                                                   dtype=np.int32))
        for seed in (1, 2):
            first.insert("A", _data((16, 16), seed))
        first.execute("LABEL(A@2 latest);")
        first.close()
        second = Database(tmp_path, chunk_bytes=256, backend="local")
        with _statements(second.manager) as executed:
            np.testing.assert_array_equal(
                second.execute(_subsample("A", 2, 3, 12, 1, 9)).value,
                _data((16, 16), 2)[3:13, 1:10])
        assert len(executed) <= 4, executed
        assert all(sql.startswith("SELECT ") for sql in executed)
        second.close()

    def test_schema_parsed_at_most_once_per_array(self, tmp_path,
                                                  monkeypatch):
        parsed: list[dict] = []
        original = ArraySchema.from_dict

        def counting(cls, data):
            parsed.append(data)
            return original(data)

        monkeypatch.setattr(ArraySchema, "from_dict",
                            classmethod(counting))
        db = Database(tmp_path, chunk_bytes=256, cache_bytes=CACHE_BYTES,
                      backend="memory")
        for name in ("A", "B"):
            db.create_array(name, ArraySchema.simple((16, 16),
                                                     dtype=np.int32))
            db.insert(name, _data((16, 16), 1))
        for step in range(100):
            name = "AB"[step % 2]
            db.manager.select(name, 1)
            db.manager.select_region(name, 1, (0, 0), (3, 5))
            db.execute(_subsample(name, 1, 2, 9, 4, 11))
        assert len(parsed) <= 2
        db.close()
