"""One encode per band: a replicated write's siblings place its bytes.

The band's first live copy — its *encoder* — plans, deltas and packs a
write; every other copy of the band — a *sibling* — places the
encoder's rows and payloads through its own chunk store and barrier,
with no plan, no encode and no base read.  These tests pin that
contract with exact counters and stored digests, and the read side's
counterpart: a band read fills its window of the caller's canvas.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.core.errors import ReproError
from repro.core.schema import ArraySchema
from repro.storage import FaultInjectingBackend, InMemoryBackend

SHAPE = (12, 8)
#: 64-byte chunks: every 4 x 8 int32 band is two chunks.
CHUNK_BYTES = 64


def _cluster(tmp_path, backend="memory", replication=2):
    return ClusterCoordinator(tmp_path / "cluster", nodes=3,
                              replication=replication,
                              chunk_bytes=CHUNK_BYTES, backend=backend)


def _data(step: int = 0) -> np.ndarray:
    rng = np.random.default_rng(20120401)
    return rng.integers(0, 100, SHAPE).astype(np.int32) + step


def _write_every_kind(cluster) -> None:
    """Inserts, a branch, a branch insert and a merge."""
    cluster.create_array("A", ArraySchema.simple(SHAPE, dtype=np.int32))
    for step in range(3):
        cluster.insert("A", _data(step))
    cluster.branch("A", 2, "B")
    cluster.insert("B", _data() * 2)
    cluster.merge([("A", 3), ("B", 2)], "M")


def _assert_siblings_store_the_encoders_bytes(cluster) -> None:
    for row in cluster.replicas:
        encoder, *siblings = row
        for name in cluster.list_arrays():
            for sibling in siblings:
                assert sibling.stored_digests(name) == \
                    encoder.stored_digests(name)


def _version_rows(manager, name: str) -> list[tuple]:
    snap = manager.catalog.snapshot(name)
    return [(row.version, row.parent_version, row.kind, row.timestamp,
             tuple(snap.merge_parents_of(row.version)))
            for row in snap.get_versions()]


class TestWriteSide:
    def test_siblings_place_without_encoding_or_reading(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _write_every_kind(cluster)
            for encoder, sibling in cluster.replicas:
                written = sum(
                    len(encoder.catalog.snapshot(name).all_chunks())
                    for name in cluster.list_arrays())
                # 3 + 2 + 2 versions of a two-chunk band.
                assert written == 14
                assert encoder.stats.encode_tasks == written
                assert encoder.stats.chunks_written == written
                assert sibling.stats.encode_tasks == 0
                assert sibling.stats.encode_plans == 0
                assert sibling.stats.chunks_read == 0
                assert sibling.stats.chunks_written == written
                assert sibling.stats.bytes_written == \
                    encoder.stats.bytes_written
            _assert_siblings_store_the_encoders_bytes(cluster)
            # Every copy holds what it was given: one fingerprint.
            for encoder, sibling in cluster.replicas:
                assert sibling.fingerprint() == encoder.fingerprint()
        finally:
            cluster.close()

    def test_timestamps_agree_across_copies(self, tmp_path):
        """The copies of a band hold its encoder's version rows,
        timestamps included (each band's encoder stamps its own)."""
        cluster = _cluster(tmp_path)
        try:
            _write_every_kind(cluster)
            for name in cluster.list_arrays():
                for row in cluster.replicas:
                    rows = {tuple(_version_rows(manager, name))
                            for manager in row}
                    assert len(rows) == 1, name
        finally:
            cluster.close()

    def test_sibling_hot_slot_serves_a_degraded_head_read(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _write_every_kind(cluster)
            for node in range(cluster.nodes):
                cluster.mark_dead(node, 0)
            hot = [sibling.stats.hot_reads
                   for _, sibling in cluster.replicas]
            # The merge wrote last: every slot holds M@2, B@2's contents.
            np.testing.assert_array_equal(
                cluster.select("M", 2).single(), _data() * 2)
            assert [sibling.stats.hot_reads - before for
                    (_, sibling), before in zip(cluster.replicas, hot)] \
                == [1, 1, 1]
            assert all(sibling.stats.chunks_read == 0
                       for _, sibling in cluster.replicas)
        finally:
            cluster.close()

    @pytest.mark.parametrize("kind", ["insert", "branch"])
    def test_sibling_placement_fault_commits_nothing(self, tmp_path, kind):
        """The sibling of band 1 fails its first placement of the
        probed write: the write raises, every copy keeps exactly what
        it had (a failed branch leaves no byte under its name), and a
        retry lands stored-identical copies."""
        faulty = {}

        def backend(root):
            if root.parent.name == "node1-r1":
                faulty["backend"] = FaultInjectingBackend(
                    InMemoryBackend(), schedule={"append": frozenset()})
                return faulty["backend"]
            return InMemoryBackend()

        cluster = _cluster(tmp_path, backend=backend)
        try:
            cluster.create_array("A",
                                 ArraySchema.simple(SHAPE, dtype=np.int32))
            cluster.insert("A", _data())
            sibling = faulty["backend"]
            before = [(manager.get_versions("A"), manager.list_arrays(),
                       manager.fingerprint())
                      for row in cluster.replicas for manager in row]
            # The next append on the sibling fails.
            sibling.schedule["append"] = frozenset(
                {sibling._op_counts["append"] + 1})
            write = (lambda: cluster.insert("A", _data(1))) \
                if kind == "insert" else \
                (lambda: cluster.branch("A", 1, "B"))
            with pytest.raises(ReproError):
                write()
            assert sibling.faults_injected == 1
            assert [(manager.get_versions("A"), manager.list_arrays(),
                     manager.fingerprint())
                    for row in cluster.replicas for manager in row] \
                == before
            if kind == "branch":
                assert all(manager.store.total_bytes("B") == 0
                           for row in cluster.replicas for manager in row)
            write()
            _assert_siblings_store_the_encoders_bytes(cluster)
        finally:
            cluster.close()

    def test_first_insert_after_primary_repair(self, tmp_path):
        """A repaired encoder holds no hot slot: the next insert reads
        its base cold once there, and its sibling still places the
        encoder's bytes without reading anything."""
        cluster = _cluster(tmp_path)
        try:
            _write_every_kind(cluster)
            for node in range(cluster.nodes):
                cluster.replace_replica(node, 0)
                cluster.repair(node, 0)
                cluster.revive(node, 0)
            read = [[manager.stats.chunks_read for manager in row]
                    for row in cluster.replicas]
            cluster.insert("A", _data(3))
            for (encoder, sibling), (encoder_read, sibling_read) in zip(
                    cluster.replicas, read):
                # One cold read of v3: its two chunks, each a 3-level
                # chain on the shipped copy.
                assert encoder.stats.chunks_read - encoder_read == 6
                assert sibling.stats.chunks_read == sibling_read
            _assert_siblings_store_the_encoders_bytes(cluster)
        finally:
            cluster.close()

    @pytest.mark.parametrize("first", [0, 1], ids=["encoder", "sibling"])
    def test_reorganized_copies_take_the_encoders_bytes(self, tmp_path,
                                                        first):
        """Re-lay-out one copy of every band, insert, re-lay-out the
        other: the new version's stored bytes agree across copies, and
        every copy reads back every version."""
        cluster = _cluster(tmp_path)
        try:
            cluster.create_array("A",
                                 ArraySchema.simple(SHAPE, dtype=np.int32))
            for step in range(3):
                cluster.insert("A", _data(step))
            for row in cluster.replicas:
                row[first].reorganize("A", mode="head")
            cluster.insert("A", _data(3))
            for encoder, sibling in cluster.replicas:
                assert sibling.stored_digests("A")[-1] == \
                    encoder.stored_digests("A")[-1]
            for row in cluster.replicas:
                row[1 - first].reorganize("A", mode="head")
            for version in range(1, 5):
                np.testing.assert_array_equal(
                    cluster.select("A", version).single(),
                    _data(version - 1))
                for encoder, sibling in cluster.replicas:
                    np.testing.assert_array_equal(
                        sibling.select("A", version).single(),
                        encoder.select("A", version).single())
        finally:
            cluster.close()


class TestReadSide:
    def test_head_read_is_one_copy_per_band(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _write_every_kind(cluster)
            before = [(encoder.stats.hot_reads, encoder.stats.chunks_read)
                      for encoder, _ in cluster.replicas]
            np.testing.assert_array_equal(
                cluster.select("M", 2).single(), _data() * 2)
            assert [(encoder.stats.hot_reads - hot,
                     encoder.stats.chunks_read - read)
                    for (encoder, _), (hot, read)
                    in zip(cluster.replicas, before)] == [(1, 0)] * 3
        finally:
            cluster.close()

    def test_select_versions_fills_each_layer(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _write_every_kind(cluster)
            before = [encoder.stats.hot_reads
                      for encoder, _ in cluster.replicas]
            stack = cluster.select_versions("M", [2, 1, 2])
            np.testing.assert_array_equal(
                stack, np.stack([_data() * 2, _data(2), _data() * 2]))
            # The head layers come from every band's slot.
            assert [encoder.stats.hot_reads - hot for
                    (encoder, _), hot in zip(cluster.replicas, before)] \
                == [2, 2, 2]
        finally:
            cluster.close()

    def test_region_across_bands(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _write_every_kind(cluster)
            for version in (2, 3):
                got = cluster.select_region("A", version, (2, 1), (9, 6))
                np.testing.assert_array_equal(
                    got.single(), _data(version - 1)[2:10, 1:7])
        finally:
            cluster.close()
