"""Fault-injection tests: corrupt files, missing files, crash debris.

The storage layer must fail loudly — never return wrong array contents —
when the chunk files on disk are damaged (Zen: "errors should never
pass silently").

The second half exercises :class:`FaultInjectingBackend`, the *seeded*
half of the story: instead of hand-corrupting files, a deterministic
schedule makes the substrate itself misbehave — Nth-write failures,
torn appends, barrier errors, dead nodes — and the storage stack must
keep its transactional promises (no catalog trace of a failed version,
clean retry, loud reads on a dead node).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import CodecError, ReproError, StorageError
from repro.core.schema import ArraySchema
from repro.storage import (
    FAULT_KINDS,
    FaultInjectingBackend,
    InMemoryBackend,
    VersionedStorageManager,
    seeded_fault_schedule,
)


@pytest.fixture
def manager(tmp_path):
    return VersionedStorageManager(tmp_path, chunk_bytes=2048,
                                   compressor="lz")


@pytest.fixture
def filled(manager, rng):
    manager.create_array("A", ArraySchema.simple((16, 16),
                                                 dtype=np.int32))
    data = rng.integers(0, 1000, (16, 16)).astype(np.int32)
    for _ in range(3):
        manager.insert("A", data)
        data = data + 1
    return manager


def _chunk_files(root: Path) -> list[Path]:
    return sorted((root / "data").rglob("*.dat"))


class TestCorruptChunks:
    def test_deleted_chunk_file(self, filled, tmp_path):
        for path in _chunk_files(tmp_path):
            path.unlink()
        with pytest.raises(StorageError):
            filled.select("A", 1)

    def test_truncated_chunk_file(self, filled, tmp_path):
        for path in _chunk_files(tmp_path):
            payload = path.read_bytes()
            path.write_bytes(payload[:len(payload) // 2])
        with pytest.raises((StorageError, CodecError)):
            filled.select("A", 3)

    def test_flipped_payload_bytes(self, filled, tmp_path):
        # Corrupt the compressed payload: decoding must raise, not
        # return garbage silently.
        for path in _chunk_files(tmp_path):
            payload = bytearray(path.read_bytes())
            payload[len(payload) // 2] ^= 0xFF
            path.write_bytes(bytes(payload))
        with pytest.raises(ReproError):
            filled.select("A", 1)

    def test_zeroed_file(self, filled, tmp_path):
        for path in _chunk_files(tmp_path):
            path.write_bytes(b"\x00" * path.stat().st_size)
        with pytest.raises(ReproError):
            filled.select("A", 2)

    @pytest.mark.parametrize("extents", [
        (8, 32),                # same cells, another shape
        (16, 17),               # a count the root does not have
        (1 << 40, 1 << 20),     # 4 EiB if believed
    ])
    def test_reframed_delta_level(self, filled, tmp_path, extents):
        # Version 3 reads fused (two delta levels).  Rewrite the shape
        # in the head level's frame: the fold is sized from the decoded
        # root and every frame is held against it first, so the lie is
        # refused — by name — never allocated or reshaped.
        record = filled.catalog.get_array("A")
        (head,) = filled.catalog.chunks_for_version(record.array_id, 3)
        assert head.is_delta
        path = tmp_path / "data" / head.location.path
        stored = bytearray(path.read_bytes())
        at = head.location.offset + 1 + len("<i4") + 1  # past dtype, ndim
        stored[at:at + 16] = b"".join(
            extent.to_bytes(8, "little") for extent in extents)
        path.write_bytes(bytes(stored))
        with pytest.raises(CodecError, match="'A' version 3 chunk .*"
                           "does not match the array it decodes against"):
            filled.select("A", 3)
        assert filled.stats.chains_fused == 0


class TestCatalogRobustness:
    def test_missing_chunk_record(self, filled):
        # Simulate a partially-committed version: drop one chunk row.
        record = filled.catalog.get_array("A")
        chunk = filled.catalog.chunks_for_version(record.array_id, 2)[0]
        filled.catalog._conn.execute(
            "DELETE FROM chunks WHERE array_id = ? AND version_num = ?"
            " AND chunk_name = ? AND attribute = ?",
            (record.array_id, 2, chunk.chunk_name, chunk.attribute))
        filled.catalog._conn.commit()
        with pytest.raises(ReproError):
            filled.select("A", 2)

    def test_cyclic_base_references_detected(self, filled):
        # Force a delta cycle directly in the catalog; reads must detect
        # it rather than loop forever (Observation 2 enforced at read).
        record = filled.catalog.get_array("A")
        filled.catalog._conn.execute(
            "UPDATE chunks SET base_version = 2, delta_codec = 'hybrid'"
            " WHERE array_id = ? AND version_num = 1",
            (record.array_id,))
        filled.catalog._conn.execute(
            "UPDATE chunks SET base_version = 1"
            " WHERE array_id = ? AND version_num = 2",
            (record.array_id,))
        filled.catalog._conn.commit()
        with pytest.raises(StorageError, match="cycle"):
            filled.select("A", 1)

    def test_reopen_store_from_disk(self, tmp_path, rng):
        # Everything needed to read must survive a process restart.
        first = VersionedStorageManager(tmp_path, chunk_bytes=2048)
        first.create_array("A", ArraySchema.simple((8, 8),
                                                   dtype=np.int64))
        data = rng.integers(0, 99, (8, 8)).astype(np.int64)
        first.insert("A", data)
        first.insert("A", data + 7)
        first.catalog.close()

        reopened = VersionedStorageManager(tmp_path, chunk_bytes=2048)
        assert reopened.list_arrays() == ["A"]
        np.testing.assert_array_equal(
            reopened.select("A", 2).single(), data + 7)
        reopened.catalog.close()


class TestSeededSchedule:
    def test_seed_zero_is_fault_free(self):
        assert seeded_fault_schedule(0) == \
            {kind: frozenset() for kind in FAULT_KINDS}

    def test_same_seed_same_schedule(self):
        assert seeded_fault_schedule(7) == seeded_fault_schedule(7)
        assert seeded_fault_schedule(7) != seeded_fault_schedule(23)

    def test_schedule_covers_every_kind(self):
        schedule = seeded_fault_schedule(11)
        assert set(schedule) == set(FAULT_KINDS)
        for indices in schedule.values():
            assert indices and all(index >= 1 for index in indices)

    def test_negative_seed_rejected(self):
        with pytest.raises(StorageError):
            seeded_fault_schedule(-1)

    def test_unknown_kind_in_explicit_schedule_rejected(self):
        with pytest.raises(StorageError, match="unknown operation"):
            FaultInjectingBackend(InMemoryBackend(),
                                  schedule={"read": frozenset({1})})


class TestInjectedFaults:
    def test_nth_write_fails_without_landing(self):
        backend = FaultInjectingBackend(
            InMemoryBackend(), schedule={"write": frozenset({2})})
        backend.write("A/c.dat", b"first")
        with pytest.raises(StorageError, match="write #2"):
            backend.write("A/c.dat", b"second")
        # The failed write left the object untouched.
        assert backend.read("A/c.dat", 0, 5) == b"first"
        backend.write("A/c.dat", b"third")
        assert backend.read("A/c.dat", 0, 5) == b"third"
        assert backend.injected == [("write", 2)]
        assert backend.faults_injected == 1

    def test_torn_append_leaves_deterministic_prefix(self):
        def run():
            backend = FaultInjectingBackend(
                InMemoryBackend(), seed=9,
                schedule={"append": frozenset({2})})
            backend.append("A/c.dat", b"0123456789")
            with pytest.raises(StorageError, match="torn"):
                backend.append("A/c.dat", b"abcdefghij")
            return backend.total_bytes("A/c.dat")

        first, second = run(), run()
        # The tear point is derived from (seed, index): replayable.
        assert first == second
        assert 10 <= first < 20  # a strict prefix of the torn payload

    def test_sync_fault_raises_before_barrier(self, tmp_path):
        inner = InMemoryBackend()
        synced = []
        inner.sync = lambda paths: synced.append(paths)
        backend = FaultInjectingBackend(
            inner, schedule={"sync": frozenset({1})})
        with pytest.raises(StorageError, match="sync #1"):
            backend.sync(["A/c.dat"])
        assert synced == []  # the inner barrier never ran
        backend.sync(["A/c.dat"])
        assert synced == [["A/c.dat"]]

    def test_dead_node_blackholes_every_operation(self):
        backend = FaultInjectingBackend(InMemoryBackend(), seed=0)
        backend.write("A/c.dat", b"alive")
        backend.mark_dead()
        assert backend.dead
        for op in (lambda: backend.write("A/c.dat", b"x"),
                   lambda: backend.append("A/c.dat", b"x"),
                   lambda: backend.read("A/c.dat", 0, 5),
                   lambda: backend.read_many("A/c.dat", [(0, 5)]),
                   lambda: backend.sync(["A/c.dat"]),
                   lambda: backend.delete("A/c.dat"),
                   lambda: backend.total_bytes()):
            with pytest.raises(StorageError, match="dead"):
                op()
        backend.revive()
        assert backend.read("A/c.dat", 0, 5) == b"alive"

    def test_faults_replay_identically_across_instances(self):
        def drive(backend):
            fired = []
            for index in range(1, 25):
                try:
                    backend.append("A/c.dat", bytes(8))
                except StorageError:
                    fired.append(index)
            return fired

        first = drive(FaultInjectingBackend(InMemoryBackend(), seed=23))
        second = drive(FaultInjectingBackend(InMemoryBackend(), seed=23))
        assert first == second and first  # same schedule, faults fired


class TestManagerUnderInjectedFaults:
    """The transactional write path keeps its promises when the
    substrate itself fails mid-version."""

    def test_failed_insert_leaves_no_catalog_trace_and_retries(
            self, tmp_path, rng):
        manager = VersionedStorageManager(
            tmp_path, chunk_bytes=1024,
            backend=FaultInjectingBackend(
                InMemoryBackend(),
                schedule={"append": frozenset({2})}))
        manager.create_array("A", ArraySchema.simple((16, 16),
                                                     dtype=np.int32))
        data = rng.integers(0, 1000, (16, 16)).astype(np.int32)
        manager.insert("A", data)
        with pytest.raises(StorageError, match="torn"):
            manager.insert("A", data + 1)
        # No partial version: the catalog never saw the failed insert.
        assert manager.get_versions("A") == [1]
        # The torn debris is unreferenced; the retry lands cleanly.
        assert manager.insert("A", data + 1) == 2
        np.testing.assert_array_equal(manager.select("A", 2).single(),
                                      data + 1)
        np.testing.assert_array_equal(manager.select("A", 1).single(),
                                      data)
        manager.close()

    def test_sync_fault_blocks_the_catalog_commit(self, tmp_path, rng):
        manager = VersionedStorageManager(
            tmp_path, chunk_bytes=1024,
            backend=FaultInjectingBackend(
                InMemoryBackend(),
                schedule={"sync": frozenset({2})}))
        manager.create_array("A", ArraySchema.simple((8, 8),
                                                     dtype=np.int32))
        data = rng.integers(0, 100, (8, 8)).astype(np.int32)
        manager.insert("A", data)
        with pytest.raises(StorageError, match="sync #2"):
            manager.insert("A", data + 1)
        assert manager.get_versions("A") == [1]
        assert manager.insert("A", data + 1) == 2
        manager.close()

    def test_dead_node_reads_fail_loudly(self, tmp_path, rng):
        backend = FaultInjectingBackend(InMemoryBackend(), seed=0)
        manager = VersionedStorageManager(tmp_path, chunk_bytes=1024,
                                          backend=backend)
        manager.create_array("A", ArraySchema.simple((8, 8),
                                                     dtype=np.int32))
        data = rng.integers(0, 100, (8, 8)).astype(np.int32)
        manager.insert("A", data)
        backend.mark_dead()
        with pytest.raises(StorageError, match="dead"):
            manager.select("A", 1)
        backend.revive()
        np.testing.assert_array_equal(manager.select("A", 1).single(),
                                      data)
        manager.close()

    def test_spec_string_reaches_the_manager(self, tmp_path):
        manager = VersionedStorageManager(tmp_path, backend="faulty:0")
        assert isinstance(manager.backend, FaultInjectingBackend)
        assert manager.backend.seed == 0
        manager.close()
