"""Whole-version reads of the hot slot's version.

A chain-policy manager holds the version it wrote last, decoded, in its
hot slot.  A whole-version read of that version — ``select``, or a
``select_region`` whose box is the whole array, as every band read of a
cluster ``select`` is — is one copy of the slot's canvases: no chain
walk, no backend read, no fold, no cache.  It is counted in
``IOStats.hot_reads`` and nowhere else.  Window reads decode as before.

Two things make the copy safe.  The slot's canvases are lent to the
next insert, whose encode overwrites them on the CPU fan's lanes, so
the copy and every change of what the slot names share one lock: a
reader copies the whole named version or finds nothing and decodes.
And the slot answers only the catalog row its commit published — the
row object, not an equal one — so a reader pinned before a
``delete_version`` of the head (or a ``delete_array``) is never served
what a later write put under the same number.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.core.array import ArrayData
from repro.core.errors import StorageError
from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.storage import (
    FaultInjectingBackend,
    InMemoryBackend,
    VersionedStorageManager,
)

SHAPE = (32, 48)
#: The longest any test here waits for another thread's event; a
#: working store signals within milliseconds.
WAIT = 10


def _versions(count: int, shape=SHAPE) -> list[np.ndarray]:
    """Versions that differ from each other in every cell, so a read
    mixing two of them matches neither."""
    rng = np.random.default_rng(42)
    data = rng.integers(0, 1 << 20, shape).astype(np.int32)
    return [data + 1000 * k for k in range(count)]


def _store(root, versions, **kwargs) -> VersionedStorageManager:
    manager = VersionedStorageManager(root, backend="memory",
                                      chunk_bytes=1024, **kwargs)
    manager.create_array("A", ArraySchema.simple(versions[0].shape,
                                                 dtype=np.int32))
    for data in versions:
        manager.insert("A", data)
    return manager


class TestTheSlotAnswersWholeReads:
    def test_a_whole_read_of_the_head_is_a_copy_of_the_slot(self, tmp_path,
                                                            cold):
        versions = _versions(4)
        manager = _store(tmp_path, versions)
        with manager.stats.measure() as held:
            hot = manager.select("A", 4)
        assert held.chunks_read == held.file_opens == 0
        assert held.chains_fused == held.cache_misses == 0
        assert held.hot_reads == 1
        with manager.stats.measure() as decoded:
            stored = cold(manager, "A").select("A", 4)
        assert decoded.hot_reads == 0 and decoded.chunks_read > 0
        assert hot.schema == stored.schema
        assert hot.single().tobytes() == stored.single().tobytes() \
            == versions[3].tobytes()
        manager.close()

    def test_a_whole_box_region_is_a_whole_read(self, tmp_path, cold):
        # One-based dimensions: the box is the whole array in user
        # coordinates, and the answer carries the region's zero-based
        # schema either way.
        schema = ArraySchema(
            dimensions=(Dimension("I", 1, SHAPE[0]),
                        Dimension("J", 1, SHAPE[1])),
            attributes=(Attribute("a", np.dtype(np.int32)),
                        Attribute("b", np.dtype(np.float64))))
        manager = VersionedStorageManager(tmp_path, backend="memory",
                                          chunk_bytes=1024)
        manager.create_array("A", schema)
        rng = np.random.default_rng(3)
        for _ in range(3):
            manager.insert("A", ArrayData(schema, {
                "a": rng.integers(0, 99, SHAPE).astype(np.int32),
                "b": rng.random(SHAPE)}))
        box = (1, 1), SHAPE
        with manager.stats.measure() as held:
            hot = manager.select_region("A", 3, *box)
        assert held.hot_reads == 1 and held.chunks_read == 0
        stored = cold(manager, "A").select_region("A", 3, *box)
        assert hot.schema == stored.schema
        for name in ("a", "b"):
            assert hot.attribute(name).tobytes() == \
                stored.attribute(name).tobytes()
        manager.close()

    def test_a_window_read_of_the_head_decodes(self, tmp_path):
        versions = _versions(3)
        manager = _store(tmp_path, versions)
        with manager.stats.measure() as window:
            got = manager.select_region("A", 3, (0, 0), (15, SHAPE[1] - 1))
        assert window.hot_reads == 0
        assert window.chunks_read > 0 and window.chains_fused > 0
        assert got.single().tobytes() == versions[2][:16].tobytes()
        manager.close()

    def test_an_older_version_decodes(self, tmp_path):
        versions = _versions(3)
        manager = _store(tmp_path, versions)
        with manager.stats.measure() as window:
            got = manager.select("A", 2)
        assert window.hot_reads == 0 and window.chunks_read > 0
        assert got.single().tobytes() == versions[1].tobytes()
        manager.close()

    def test_the_copy_outlives_the_next_insert(self, tmp_path):
        # The slot's canvases become the next version in place; what a
        # read handed out before must not change with them.
        versions = _versions(3)
        manager = _store(tmp_path, versions[:2])
        got = manager.select("A", 2).single()
        assert not any(np.shares_memory(got, canvas)
                       for canvas in manager._hot._canvases.values())
        manager.insert("A", versions[2])
        assert got.tobytes() == versions[1].tobytes()
        manager.close()

    def test_the_materialize_policy_holds_no_slot(self, tmp_path):
        versions = _versions(2)
        manager = _store(tmp_path, versions, delta_policy="materialize")
        with manager.stats.measure() as window:
            got = manager.select("A", 2)
        assert window.hot_reads == 0 and window.chunks_read > 0
        assert got.single().tobytes() == versions[1].tobytes()
        manager.close()

    def test_a_dead_backend_still_serves_the_held_head(self, tmp_path,
                                                       cold):
        # The head the manager holds is memory, not backend bytes; a
        # read that needs the bytes fails loudly.
        backend = FaultInjectingBackend(InMemoryBackend(), seed=0)
        versions = _versions(2)
        manager = VersionedStorageManager(tmp_path, chunk_bytes=1024,
                                          backend=backend)
        manager.create_array("A", ArraySchema.simple(SHAPE,
                                                     dtype=np.int32))
        for data in versions:
            manager.insert("A", data)
        backend.mark_dead()
        assert manager.select("A", 2).single().tobytes() == \
            versions[1].tobytes()
        with pytest.raises(StorageError, match="dead"):
            manager.select("A", 1)
        with pytest.raises(StorageError, match="dead"):
            cold(manager, "A").select("A", 2)
        manager.close()

    def test_a_cluster_select_of_the_head_reads_no_chunk(self, tmp_path):
        versions = _versions(3, shape=(12, 8))
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     backend="memory", chunk_bytes=64)
        cluster.create_array("A", ArraySchema.simple((12, 8),
                                                     dtype=np.int32))
        for data in versions:
            cluster.insert("A", data)
        for stats in cluster.node_stats():
            stats.reset()
        got = cluster.select("A", 3)
        assert got.single().tobytes() == versions[2].tobytes()
        reads = [(stats.hot_reads, stats.chunks_read)
                 for stats in cluster.node_stats()]
        assert reads == [(1, 0)] * 3
        # The band reads of an older version decode, as before.
        got = cluster.select("A", 2)
        assert got.single().tobytes() == versions[1].tobytes()
        assert all(stats.chunks_read > 0 for stats in cluster.node_stats())
        cluster.close()


class _Paused:
    """A reader paused inside the slot's copy while an encode writes
    over the canvases it copies.

    ``np.copyto`` on the reader thread, once armed, waits (up to
    ``PAUSE`` seconds) for an encode to have overwritten a chunk
    window, then copies and lets that encode go on.  The encode spy
    waits for the copy the same way.  Without the slot's lock the copy
    lands mid-write; with it the insert's ``lend`` waits for the copy,
    and each side's wait times out instead."""

    PAUSE = 0.25

    def __init__(self, manager, monkeypatch):
        self.armed = threading.Event()
        self.copying = threading.Event()
        self.written = threading.Event()
        self.copied = threading.Event()
        self.reader: threading.Thread | None = None
        copy = np.copyto

        def paused_copy(*args, **kwargs):
            if threading.current_thread() is self.reader \
                    and self.armed.is_set():
                self.armed.clear()
                self.copying.set()
                self.written.wait(timeout=self.PAUSE)
                try:
                    return copy(*args, **kwargs)
                finally:
                    self.copied.set()
            return copy(*args, **kwargs)

        encode_chunk = manager.encoder.encode_chunk

        def paused_encode(*args, **kwargs):
            decision = encode_chunk(*args, **kwargs)
            if self.copying.is_set() and not self.written.is_set():
                self.written.set()
                self.copied.wait(timeout=self.PAUSE)
            return decision

        monkeypatch.setattr(np, "copyto", paused_copy)
        manager.encoder.encode_chunk = paused_encode

    def arm(self) -> None:
        for event in (self.copying, self.written, self.copied):
            event.clear()
        self.armed.set()


@pytest.mark.parametrize("fan_width", [4], indirect=True)
def test_a_reader_never_copies_a_torn_head(tmp_path, fan_width,
                                           monkeypatch):
    versions = _versions(4, shape=(64, 64))
    manager = _store(tmp_path, versions[:1])
    assert len(manager.catalog.get_array("A").grid.chunks()) >= 8
    paused = _Paused(manager, monkeypatch)
    stop = threading.Event()
    wrong: list[int] = []

    def reader():
        while not stop.is_set():
            head = manager.get_versions("A")[-1]
            got = manager.select("A", head).single()
            if got.tobytes() != versions[head - 1].tobytes():
                wrong.append(head)

    paused.reader = threading.Thread(target=reader)
    paused.reader.start()
    try:
        for data in versions[1:]:
            paused.arm()
            # The reader is inside a copy of the head when the insert
            # that lends the slot starts.
            assert paused.copying.wait(timeout=WAIT)
            manager.insert("A", data)
            assert paused.copied.wait(timeout=WAIT)
    finally:
        stop.set()
        paused.reader.join(timeout=WAIT)
    assert not paused.reader.is_alive()
    assert wrong == []
    assert manager.stats.hot_reads > 0
    assert manager.select("A", 4).single().tobytes() == \
        versions[3].tobytes()
    manager.close()


@pytest.mark.parametrize("fan_width", [4], indirect=True)
def test_readers_racing_inserts_see_whole_versions(tmp_path, fan_width):
    # No pauses: more threads than cores, switching as often as the
    # interpreter allows, every read of the head checked.
    import sys

    versions = _versions(8, shape=(64, 64))
    manager = _store(tmp_path, versions[:1])
    stop = threading.Event()
    wrong: list[int] = []

    def reader():
        while not stop.is_set():
            head = manager.get_versions("A")[-1]
            got = manager.select("A", head).single()
            if got.tobytes() != versions[head - 1].tobytes():
                wrong.append(head)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers:
            thread.start()
        for data in versions[1:]:
            manager.insert("A", data)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=WAIT)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert wrong == []
    assert manager.stats.hot_reads > 0
    manager.close()


def test_inserts_into_two_arrays_keep_their_own_bases(tmp_path):
    # One slot serves every array of a manager: a commit on one array
    # must not copy its version over canvases another array's insert
    # is still encoding against.
    shape = (128, 128)
    manager = VersionedStorageManager(tmp_path, backend="memory",
                                      chunk_bytes=4096)
    written: dict[str, list[np.ndarray]] = {}

    def writer(name: str, step: int):
        rng = np.random.default_rng(step)
        data = rng.integers(0, 1 << 20, shape).astype(np.int32)
        written[name] = []
        for _ in range(20):
            data = data + step
            manager.insert(name, data)
            written[name].append(data)

    for name in "AB":
        manager.create_array(name, ArraySchema.simple(shape,
                                                      dtype=np.int32))
    writers = [threading.Thread(target=writer, args=(name, step))
               for step, name in enumerate("AB", start=1)]
    for thread in writers:
        thread.start()
    for thread in writers:
        thread.join(timeout=WAIT)
    assert not any(thread.is_alive() for thread in writers)
    for name in "AB":
        manager._hot.forget(name)
        for version, data in enumerate(written[name], start=1):
            assert manager.select(name, version).single().tobytes() == \
                data.tobytes(), f"{name}@{version}"
    manager.close()


def _select_paused_at_the_slot(manager, name: str, version: int):
    """Start ``select(name, version)`` on a thread that has pinned its
    snapshot and stalls right before asking the hot slot, until
    ``release`` is set (later slot lookups pass straight through).
    Returns (release, thread, result); ``result`` receives the array or
    the error."""
    stalled, release = threading.Event(), threading.Event()
    read = manager._hot.read

    def spy(row, *out):
        if not stalled.is_set():
            stalled.set()
            release.wait(timeout=WAIT)
        return read(row, *out)

    manager._hot.read = spy
    result: list = []

    def reader():
        try:
            result.append(manager.select(name, version).single())
        except StorageError as error:
            result.append(error)

    thread = threading.Thread(target=reader)
    thread.start()
    assert stalled.wait(timeout=WAIT)
    return release, thread, result


class TestTheSlotAnswersOnlyItsOwnRow:
    def test_a_read_pinned_before_a_delete_of_the_head(self, tmp_path):
        # The re-inserted version 3 has the deleted one's parent, kind
        # and timestamp: its row equals the pinned one, but is not it.
        versions = _versions(4)
        manager = VersionedStorageManager(tmp_path, backend="memory",
                                          chunk_bytes=1024)
        manager.create_array("A", ArraySchema.simple(SHAPE,
                                                     dtype=np.int32))
        for number, data in enumerate(versions[:3], start=1):
            manager.insert("A", data, timestamp=float(number))
        pinned = manager.catalog.snapshot("A").get_version(3)
        release, thread, result = _select_paused_at_the_slot(manager,
                                                            "A", 3)
        # Hold the reclaim back, so the pinned read's bytes stay.
        reclaim = manager.store.reclaim
        manager.store.reclaim = lambda paths: None
        manager.delete_version("A", 3)
        manager.store.reclaim = reclaim
        assert manager.insert("A", versions[3], timestamp=3.0) == 3
        republished = manager.catalog.snapshot("A").get_version(3)
        assert republished == pinned and republished is not pinned
        release.set()
        thread.join(timeout=WAIT)
        assert not thread.is_alive()
        assert result[0].tobytes() == versions[2].tobytes()
        del manager._hot.read
        assert manager.select("A", 3).single().tobytes() == \
            versions[3].tobytes()
        manager.close()

    def test_a_read_pinned_before_a_drop_and_recreate(self, tmp_path):
        # SQLite hands the re-created array the dropped one's id, and
        # the re-insert its version's timestamp: an equal row again.
        versions = _versions(2)
        schema = ArraySchema.simple(SHAPE, dtype=np.int32)
        manager = VersionedStorageManager(tmp_path, backend="memory",
                                          chunk_bytes=1024)
        array_id = manager.create_array("A", schema).array_id
        manager.insert("A", versions[0], timestamp=1.0)
        pinned = manager.catalog.snapshot("A").get_version(1)
        release, thread, result = _select_paused_at_the_slot(manager,
                                                            "A", 1)
        # Hold the byte deletion back, so the pinned read's bytes stay.
        delete_array = manager.store.delete_array
        manager.store.delete_array = lambda name: None
        manager.delete_array("A")
        manager.store.delete_array = delete_array
        assert manager.create_array("A", schema).array_id == array_id
        assert manager.insert("A", versions[1], timestamp=1.0) == 1
        republished = manager.catalog.snapshot("A").get_version(1)
        assert republished == pinned and republished is not pinned
        release.set()
        thread.join(timeout=WAIT)
        assert not thread.is_alive()
        assert result[0].tobytes() == versions[0].tobytes()
        del manager._hot.read
        with manager.stats.measure() as window:
            got = manager.select("A", 1).single()
        assert window.hot_reads == 1
        assert got.tobytes() == versions[1].tobytes()
        manager.close()
