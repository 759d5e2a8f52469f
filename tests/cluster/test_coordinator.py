"""Tests for the multi-node coordinator (Section II's distribution)."""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.cluster import rebalance as rebalance_flow
from repro.core.array import ArrayData
from repro.core.errors import ReproError, SchemaError, StorageError
from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.storage import InMemoryBackend, VersionedStorageManager, fan
from repro.storage.chunkstore import ChunkStore

#: Every (band, replica) position of the 3 x 2 grid the rollback tests
#: fail in turn.
GRID_3X2 = [(node, replica) for node in range(3) for replica in range(2)]


def _refuse_placements(manager, message: str) -> None:
    """Make every chunk placement on one copy raise: any write's fault
    then lands in its stage step.  ``del manager.store.write_chunk``
    restores the store's own method."""

    def refusing(*args, **kwargs):
        raise StorageError(message)

    manager.store.write_chunk = refusing


@pytest.fixture
def cluster(tmp_path) -> ClusterCoordinator:
    return ClusterCoordinator(tmp_path, nodes=3, chunk_bytes=1024)


@pytest.fixture
def loaded(cluster, rng):
    schema = ArraySchema.simple((12, 8), dtype=np.int32)
    cluster.create_array("A", schema)
    versions = []
    data = rng.integers(0, 100, (12, 8)).astype(np.int32)
    for _ in range(3):
        versions.append(data)
        cluster.insert("A", data)
        data = data + 1
    return cluster, versions


class TestLifecycle:
    def test_insert_select_roundtrip(self, loaded):
        cluster, versions = loaded
        for number, expected in enumerate(versions, 1):
            out = cluster.select("A", number)
            np.testing.assert_array_equal(out.single(), expected)

    def test_insert_snapshots_a_buffer_the_caller_keeps_mutating(
            self, tmp_path):
        # The coordinator hands each node a *view* of the caller's
        # array; a node must not delta the next insert against it.
        cluster = ClusterCoordinator(tmp_path, nodes=2, replication=2,
                                     chunk_bytes=1024)
        cluster.create_array("A", ArraySchema.simple((12, 8),
                                                     dtype=np.int32))
        buf = np.arange(96, dtype=np.int32).reshape(12, 8)
        cluster.insert("A", buf[:])
        first = buf.copy()
        buf[0, 0] += 5       # node 0's band
        buf[11, 2:6] = -7    # node 1's band
        cluster.insert("A", buf[:])
        np.testing.assert_array_equal(cluster.select("A", 1).single(),
                                      first)
        np.testing.assert_array_equal(cluster.select("A", 2).single(),
                                      buf)
        cluster.close()

    @pytest.mark.parametrize("shape, dtype", [
        ((64, 64), np.int64), ((32, 32), np.int32), ((128, 128), np.int32),
        # Larger along the partition axis only: every band slice has
        # the right shape, so the nodes would never notice.
        ((128, 64), np.int32),
    ], ids=["wrong-dtype", "smaller", "larger", "longer"])
    @pytest.mark.parametrize("situation", [
        "first-insert", "materialize", "chain-hot-base",
        "chain-cold-base"])
    def test_insert_rejects_a_foreign_schema_on_every_node(
            self, tmp_path, rng, situation, shape, dtype):
        cluster = ClusterCoordinator(
            tmp_path, nodes=2, replication=2, chunk_bytes=4096,
            delta_policy="materialize" if situation == "materialize"
            else "chain")
        schema = ArraySchema.simple((64, 64), dtype=np.int32)
        cluster.create_array("A", schema)
        good = rng.integers(0, 9, (64, 64)).astype(np.int32)
        if situation != "first-insert":
            cluster.insert("A", good)
        if situation == "chain-cold-base":
            # A write to another array takes every node's hot slot.
            cluster.create_array("B", schema)
            cluster.insert("B", good)
        versions = cluster.get_versions("A")
        stored = cluster.stored_bytes("A")
        fingerprint = cluster.fingerprint()
        foreign = ArrayData.from_single(
            ArraySchema.simple(shape, dtype=dtype),
            np.arange(shape[0] * shape[1], dtype=dtype).reshape(shape))
        with pytest.raises(SchemaError):
            cluster.insert("A", foreign)
        assert cluster.get_versions("A") == versions
        assert cluster.stored_bytes("A") == stored
        assert cluster.fingerprint() == fingerprint
        number = cluster.insert("A", good + 1)
        np.testing.assert_array_equal(cluster.select("A", number).single(),
                                      good + 1)
        cluster.close()

    def test_versions_consistent(self, loaded):
        cluster, _ = loaded
        assert cluster.get_versions("A") == [1, 2, 3]

    def test_list_and_delete(self, loaded):
        cluster, _ = loaded
        assert cluster.list_arrays() == ["A"]
        cluster.delete_array("A")
        assert cluster.list_arrays() == []
        with pytest.raises(StorageError):
            cluster.select("A", 1)

    def test_unregistered_array(self, cluster):
        with pytest.raises(StorageError):
            cluster.get_versions("ghost")

    def test_each_node_stores_its_band_only(self, loaded):
        cluster, _ = loaded
        # 12 rows over 3 nodes: each node's partition is 4x8.
        for manager in cluster.managers:
            record = manager.catalog.get_array("A")
            assert record.schema.shape == (4, 8)

    def test_nodes_encode_independently(self, loaded):
        cluster, _ = loaded
        # Every node delta-encodes its own partition: version 2 chunks
        # are deltas on every node.
        for manager in cluster.managers:
            record = manager.catalog.get_array("A")
            chunks = manager.catalog.chunks_for_version(record.array_id, 2)
            assert chunks
            assert any(chunk.is_delta for chunk in chunks)


class TestRouting:
    def test_region_within_one_band_touches_one_node(self, loaded, cold):
        cluster, versions = loaded
        for copies in cluster.replicas:
            for manager in copies:
                cold(manager, "A")
        for stats in cluster.node_stats():
            stats.reset()
        out = cluster.select_region("A", 3, (0, 0), (3, 7))
        np.testing.assert_array_equal(out.single(), versions[2][0:4, :])
        reads = [stats.chunks_read for stats in cluster.node_stats()]
        assert reads[0] > 0
        assert reads[1] == 0
        assert reads[2] == 0

    def test_region_straddling_bands(self, loaded):
        cluster, versions = loaded
        out = cluster.select_region("A", 2, (2, 1), (9, 6))
        np.testing.assert_array_equal(out.single(),
                                      versions[1][2:10, 1:7])

    def test_single_cell(self, loaded):
        cluster, versions = loaded
        out = cluster.select_region("A", 1, (7, 3), (7, 3))
        assert out.single()[0, 0] == versions[0][7, 3]

    def test_stacked_select(self, loaded):
        cluster, versions = loaded
        stack = cluster.select_versions("A", [1, 3])
        assert stack.shape == (2, 12, 8)
        np.testing.assert_array_equal(stack[1], versions[2])

    def test_stacked_select_of_no_versions_is_an_empty_stack(self, loaded):
        """Same answer as ``VersionedStorageManager.select_versions``:
        an empty ``(0, *shape)`` stack of the attribute's dtype."""
        cluster, _ = loaded
        stack = cluster.select_versions("A", [])
        assert stack.shape == (0, 12, 8)
        assert stack.dtype == np.int32

    def test_stacked_select_validates_attribute_before_reading(
            self, loaded):
        cluster, _ = loaded
        for stats in cluster.node_stats():
            stats.reset()
        with pytest.raises(ReproError, match="no attribute 'ghost'"):
            cluster.select_versions("A", [1, 2], attribute="ghost")
        assert [stats.chunks_read for stats in cluster.node_stats()] \
            == [0, 0, 0]

    @staticmethod
    def _chain_of_eight(tmp_path, replication: int = 1):
        """Two bands of two chunks each, and eight versions of one
        delta chain on every copy."""
        cluster = ClusterCoordinator(tmp_path, nodes=2, backend="memory",
                                     replication=replication,
                                     delta_policy="chain")
        cluster.create_array("A", ArraySchema.simple((8, 6), np.int32),
                             chunk_shape=(2, 6))
        rng = np.random.default_rng(8)
        data = rng.integers(0, 1000, (8, 6)).astype(np.int32)
        versions = []
        for _ in range(8):
            data = data.copy()
            data[rng.integers(0, 8, 4), rng.integers(0, 6, 4)] += 1
            cluster.insert("A", data)
            versions.append(data)
        return cluster, versions

    def test_range_select_reads_each_band_once(self, tmp_path):
        """A stacked select is one stacked read per band, so a range
        over a chain reads each band's chunk rows once: 7 layers x 4
        chunks = 28 rows, where a read per layer would walk 1 + 2 + ...
        + 7 levels per chunk (112)."""
        cluster, versions = self._chain_of_eight(tmp_path)
        for stats in cluster.node_stats():
            stats.reset()
        layers = list(range(1, 8))
        stack = cluster.select_versions("A", layers)
        np.testing.assert_array_equal(stack, np.stack(versions[:7]))
        assert [stats.chunks_read for stats in cluster.node_stats()] \
            == [14, 14]
        cluster.close()

    def test_range_select_fails_over_per_band(self, tmp_path):
        cluster, versions = self._chain_of_eight(tmp_path, replication=2)
        cluster.mark_dead(1, 0)
        before = cluster.stats.failovers
        stack = cluster.select_versions("A", [8, 3, 5])
        np.testing.assert_array_equal(
            stack, np.stack([versions[7], versions[2], versions[4]]))
        assert cluster.stats.failovers == before + 1
        cluster.close()

    def test_range_select_above_the_head_reads_nothing(self, loaded):
        cluster, _ = loaded
        for stats in cluster.node_stats():
            stats.reset()
        with pytest.raises(StorageError, match="no published version 4"):
            cluster.select_versions("A", [1, 4, 2])
        assert [stats.chunks_read for stats in cluster.node_stats()] \
            == [0, 0, 0]


class TestMaintenance:
    def test_stored_bytes_sums_nodes(self, loaded):
        cluster, _ = loaded
        total = cluster.stored_bytes("A")
        assert total == sum(manager.stored_bytes("A")
                            for manager in cluster.managers)
        assert total > 0

    def test_reorganize_all_nodes(self, loaded):
        cluster, versions = loaded
        cluster.reorganize("A", mode="head")
        for manager in cluster.managers:
            record = manager.catalog.get_array("A")
            newest = manager.catalog.chunks_for_version(record.array_id, 3)
            assert all(not chunk.is_delta for chunk in newest)
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                cluster.select("A", number).single(), expected)


    @pytest.mark.parametrize("kwargs", [
        dict(mode="maximal"), dict(mode="workload"),
        dict(sample_fraction=0.0), dict(sample_fraction=1.5),
        dict(attribute="ghost")],
        ids=["mode", "workload", "fraction-0", "fraction-1.5",
             "attribute"])
    def test_reorganize_refuses_before_any_copy_reads(self, loaded,
                                                      kwargs):
        cluster, _ = loaded
        for stats in cluster.node_stats():
            stats.reset()
        with pytest.raises(ReproError):
            cluster.reorganize("A", **kwargs)
        assert [stats.chunks_read for stats in cluster.node_stats()] \
            == [0, 0, 0]


class TestMultiAttribute:
    def test_roundtrip(self, cluster, rng):
        schema = ArraySchema(
            dimensions=(Dimension("I", 0, 11), Dimension("J", 0, 7)),
            attributes=(Attribute("wind", np.float32),
                        Attribute("pressure", np.int32)),
        )
        cluster.create_array("W", schema)
        from repro.core.array import ArrayData

        wind = rng.normal(0, 10, (12, 8)).astype(np.float32)
        pressure = rng.integers(900, 1100, (12, 8)).astype(np.int32)
        cluster.insert("W", ArrayData(schema, {"wind": wind,
                                               "pressure": pressure}))
        out = cluster.select("W", 1)
        np.testing.assert_array_equal(out.attribute("wind"), wind)
        np.testing.assert_array_equal(out.attribute("pressure"), pressure)


class TestInMemoryCluster:
    """End-to-end cluster runs on per-node in-memory backends."""

    @pytest.fixture
    def mem_cluster(self, tmp_path) -> ClusterCoordinator:
        return ClusterCoordinator(tmp_path / "cluster", nodes=3,
                                  chunk_bytes=1024, backend="memory")

    def test_end_to_end_zero_disk(self, mem_cluster, tmp_path, rng):
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        mem_cluster.create_array("A", schema)
        versions = []
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        for _ in range(3):
            versions.append(data)
            mem_cluster.insert("A", data)
            data = data + 1
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                mem_cluster.select("A", number).single(), expected)
        out = mem_cluster.select_region("A", 2, (2, 1), (9, 6))
        np.testing.assert_array_equal(out.single(),
                                      versions[1][2:10, 1:7])
        mem_cluster.reorganize("A", mode="head")
        np.testing.assert_array_equal(
            mem_cluster.select("A", 3).single(), versions[2])
        assert mem_cluster.stored_bytes("A") > 0
        # No node ever touched the disk.
        assert not (tmp_path / "cluster").exists()
        mem_cluster.close()

    def test_nodes_get_independent_backends(self, mem_cluster):
        backends = {id(manager.backend)
                    for manager in mem_cluster.managers}
        assert len(backends) == mem_cluster.nodes

    def test_shared_backend_instance_rejected(self, tmp_path):
        from repro.storage import InMemoryBackend

        with pytest.raises(StorageError):
            ClusterCoordinator(tmp_path, nodes=2,
                               backend=InMemoryBackend())


class TestObjectStoreCluster:
    """Every node runs against its own S3-style object map — the
    deployment shape of a cluster whose nodes each own a bucket
    prefix."""

    def test_end_to_end_and_no_pending_uploads(self, tmp_path, rng):
        from repro.storage import ObjectStoreBackend

        cluster = ClusterCoordinator(tmp_path, nodes=3, chunk_bytes=512,
                                     backend="object")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        versions = []
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        for _ in range(3):
            versions.append(data)
            cluster.insert("A", data)
            data = data + 1
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                cluster.select("A", number).single(), expected)
        for manager in cluster.managers:
            assert isinstance(manager.backend, ObjectStoreBackend)
            # Every committed version finalized its uploads at the
            # barrier; no node is left holding staged parts.
            assert manager.backend.pending_parts() == 0
        assert cluster.stored_bytes("A") > 0
        cluster.close()


class TestClusterBranchMerge:
    @pytest.fixture
    def filled(self, tmp_path, rng, fan_width):
        cluster = ClusterCoordinator(tmp_path, nodes=3, chunk_bytes=512,
                                     backend="memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        versions = []
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        for _ in range(3):
            versions.append(data)
            cluster.insert("A", data)
            data = data + 1
        yield cluster, versions
        cluster.close()

    def test_branch_every_node(self, filled):
        cluster, versions = filled
        cluster.branch("A", 2, "B")
        assert cluster.list_arrays() == ["A", "B"]
        np.testing.assert_array_equal(cluster.select("B", 1).single(),
                                      versions[1])
        # The branch keeps evolving independently of the source.
        cluster.insert("B", versions[1] + 10)
        np.testing.assert_array_equal(cluster.select("B", 2).single(),
                                      versions[1] + 10)
        np.testing.assert_array_equal(cluster.select("A", 3).single(),
                                      versions[2])

    def test_merge_every_node(self, filled):
        cluster, versions = filled
        cluster.merge([("A", 1), ("A", 3)], "M")
        assert cluster.get_versions("M") == [1, 2]
        np.testing.assert_array_equal(cluster.select("M", 1).single(),
                                      versions[0])
        np.testing.assert_array_equal(cluster.select("M", 2).single(),
                                      versions[2])

    def test_merge_requires_two_parents(self, filled):
        cluster, _ = filled
        with pytest.raises(StorageError):
            cluster.merge([("A", 1)], "M")
        assert cluster.list_arrays() == ["A"]

    def test_branch_onto_existing_name_rejected_without_damage(
            self, filled):
        cluster, versions = filled
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("B", schema)
        cluster.insert("B", versions[0] * 2)
        with pytest.raises(StorageError):
            cluster.branch("A", 1, "B")
        # The pre-existing B survives untouched on every node.
        assert cluster.list_arrays() == ["A", "B"]
        np.testing.assert_array_equal(cluster.select("B", 1).single(),
                                      versions[0] * 2)

    def test_merge_onto_existing_name_rejected_without_damage(
            self, filled):
        cluster, versions = filled
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("B", schema)
        cluster.insert("B", versions[0] * 2)
        with pytest.raises(StorageError):
            cluster.merge([("A", 1), ("A", 2)], "B")
        np.testing.assert_array_equal(cluster.select("B", 1).single(),
                                      versions[0] * 2)

    def test_insert_rollback_waits_for_stragglers(self, tmp_path, rng):
        """A fast-failing node must not let a slow node's stage commit
        after the write gave up — the stage fan waits for every node."""
        import time

        cluster = ClusterCoordinator(tmp_path, nodes=3, chunk_bytes=512,
                                     backend="memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        cluster.insert("A", data)

        fast_fail = cluster.managers[0]
        slow = cluster.managers[2]
        original_slow = slow.store.write_chunk

        def slow_write(*args, **kwargs):
            time.sleep(0.05)
            return original_slow(*args, **kwargs)

        _refuse_placements(fast_fail, "node down")
        slow.store.write_chunk = slow_write
        with pytest.raises(StorageError):
            cluster.insert("A", data + 1)
        del fast_fail.store.write_chunk
        del slow.store.write_chunk

        for manager in cluster.managers:
            assert manager.get_versions("A") == [1]
        assert cluster.insert("A", data + 1) == 2
        cluster.close()

    @pytest.mark.parametrize("holders", [range(3), [2]],
                             ids=["every-node", "last-node"])
    def test_branch_onto_unregistered_node_array_rejected(self, filled,
                                                          holders):
        """Node catalogs may hold arrays the session-scoped registry
        has never seen — on any copy; branch/merge must not destroy
        them."""
        cluster, versions = filled
        schema = ArraySchema.simple((4, 8), dtype=np.int32)
        for node in holders:  # bypass the coordinator
            cluster.managers[node].create_array("B", schema)
            cluster.managers[node].insert(
                "B", np.ones((4, 8), dtype=np.int32))
        with pytest.raises(StorageError):
            cluster.branch("A", 1, "B")
        for node, manager in enumerate(cluster.managers):
            if node in holders:
                np.testing.assert_array_equal(
                    manager.select("B", 1).single(),
                    np.ones((4, 8), dtype=np.int32))
            else:
                assert manager.list_arrays() == ["A"]

    @pytest.mark.parametrize("node", range(3))
    def test_failed_node_insert_rolls_back_landed_nodes(self, filled,
                                                        node):
        cluster, versions = filled
        victim = cluster.managers[node]
        writes = cluster.stats.replica_writes
        _refuse_placements(victim, "node down")
        with pytest.raises(StorageError):
            cluster.insert("A", versions[-1] + 50)
        del victim.store.write_chunk
        # Every node is still at the old head, so the cluster stays in
        # step and the next insert lands cleanly everywhere.
        for manager in cluster.managers:
            assert manager.get_versions("A") == [1, 2, 3]
        assert cluster.stats.replica_writes == writes
        assert cluster.insert("A", versions[-1] + 50) == 4
        np.testing.assert_array_equal(cluster.select("A", 4).single(),
                                      versions[-1] + 50)

    @pytest.mark.parametrize("node", range(3))
    def test_failed_branch_leaves_no_node_partial(self, filled, node):
        cluster, versions = filled
        victim = cluster.managers[node]
        writes = cluster.stats.replica_writes
        _refuse_placements(victim, "node down")
        with pytest.raises(StorageError):
            cluster.branch("A", 2, "B")
        del victim.store.write_chunk
        # No node keeps a partial branch or its bytes, and the name is
        # reusable.
        for manager in cluster.managers:
            assert manager.list_arrays() == ["A"]
            assert manager.store.total_bytes("B") == 0
        assert cluster.list_arrays() == ["A"]
        assert cluster.stats.replica_writes == writes
        cluster.branch("A", 2, "B")
        np.testing.assert_array_equal(cluster.select("B", 1).single(),
                                      versions[1])


class TestStageThenCommit:
    def test_a_failed_undo_cannot_wedge_later_inserts(self, tmp_path, rng,
                                                      fan_width):
        """A 2 x 2 cluster whose insert fails on copy (1, 1) while copy
        (0, 0) cannot delete a version: the insert leaves no trace on
        any copy, fences none, and the next insert lands."""
        cluster = ClusterCoordinator(tmp_path, nodes=2, replication=2,
                                     chunk_bytes=512, backend="memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        cluster.insert("A", data)
        flaky = cluster.replicas[1][1].store
        failed = []

        def fails_once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise StorageError("injected placement fault")
            return ChunkStore.write_chunk(flaky, *args, **kwargs)

        def refusing_delete(*args, **kwargs):
            raise StorageError("injected delete fault")

        flaky.write_chunk = fails_once
        cluster.replicas[0][0].delete_version = refusing_delete
        with pytest.raises(StorageError, match="injected placement"):
            cluster.insert("A", data + 1)
        for row in cluster.replicas:
            for manager in row:
                assert manager.get_versions("A") == [1]
        assert cluster.dead_replicas() == []
        assert cluster.insert("A", data + 1) == 2
        np.testing.assert_array_equal(cluster.select("A", 2).single(),
                                      data + 1)
        cluster.close()


    def test_a_failed_stage_fan_leaves_no_stale_canvas(self, tmp_path, rng,
                                                       fan_width):
        """The copies staged before another copy's stage failed encoded
        the new version onto their hot-slot canvases; the retry with
        other data must delta against version 1 on every copy, exactly
        as a cluster that never saw the failed insert."""
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        retried = data.copy()
        retried[::3] += 7
        clusters = {}
        for label in ("failed", "replay"):
            cluster = clusters[label] = ClusterCoordinator(
                tmp_path / label, nodes=3, replication=2, chunk_bytes=128,
                backend="memory")
            cluster.create_array("A", schema)
            cluster.insert("A", data)
        failed = clusters["failed"]
        last = failed.replicas[-1][-1]
        _refuse_placements(last, "injected placement fault")
        with pytest.raises(StorageError, match="injected placement"):
            failed.insert("A", data + 1)
        del last.store.write_chunk
        for cluster in clusters.values():
            assert cluster.insert("A", retried) == 2
        np.testing.assert_array_equal(failed.select("A", 2).single(),
                                      retried)
        assert failed.fingerprint() == clusters["replay"].fingerprint()
        for row, replay_row in zip(failed.replicas,
                                   clusters["replay"].replicas):
            for manager, replay in zip(row, replay_row):
                assert manager.stored_digests("A") == \
                    replay.stored_digests("A")
        for cluster in clusters.values():
            cluster.close()


def _assert_no_orphan_rows(manager) -> None:
    """The node catalog holds no version or chunk rows for arrays (or
    versions) that no longer exist — a failed fan-out must compensate
    *transactionally*, not just hide the name."""
    conn = manager.catalog._conn
    orphan_chunks = conn.execute(
        "SELECT COUNT(*) FROM chunks WHERE array_id NOT IN"
        " (SELECT id FROM arrays)").fetchone()[0]
    orphan_versions = conn.execute(
        "SELECT COUNT(*) FROM versions WHERE array_id NOT IN"
        " (SELECT id FROM arrays)").fetchone()[0]
    dangling_chunks = conn.execute(
        "SELECT COUNT(*) FROM chunks c WHERE NOT EXISTS"
        " (SELECT 1 FROM versions v WHERE v.array_id = c.array_id"
        "  AND v.version_num = c.version_num)").fetchone()[0]
    assert orphan_chunks == orphan_versions == dangling_chunks == 0


@pytest.fixture
def replicated(tmp_path, rng, fan_width):
    """A 3-band, replication=2 in-memory cluster holding 3 versions,
    exercised at both fan widths (shared by the replication and
    mid-fan-out-death suites)."""
    cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                 chunk_bytes=512, backend="memory")
    schema = ArraySchema.simple((12, 8), dtype=np.int32)
    cluster.create_array("A", schema)
    versions = []
    data = rng.integers(0, 100, (12, 8)).astype(np.int32)
    for _ in range(3):
        versions.append(data)
        cluster.insert("A", data)
        data = data + 1
    yield cluster, versions
    cluster.close()


class TestReplication:
    def test_every_replica_holds_every_version(self, replicated):
        cluster, versions = replicated
        for row in cluster.replicas:
            assert len(row) == 2
            for manager in row:
                assert manager.get_versions("A") == [1, 2, 3]
        # Exact accounting: 3 versions x 3 bands x 1 extra copy.
        assert cluster.stats.replica_writes == 9

    def test_replica_pairs_hold_identical_bands(self, replicated):
        cluster, _ = replicated
        for row in cluster.replicas:
            for version in (1, 2, 3):
                np.testing.assert_array_equal(
                    row[0].select("A", version).single(),
                    row[1].select("A", version).single())

    def test_reads_fail_over_to_live_replica(self, replicated):
        cluster, versions = replicated
        cluster.mark_dead(0, 0)
        before = cluster.stats.failovers
        out = cluster.select_region("A", 3, (0, 0), (3, 7))
        np.testing.assert_array_equal(out.single(), versions[2][0:4, :])
        # Exactly one failover: band 0's dead primary was skipped once.
        assert cluster.stats.failovers == before + 1

    def test_every_failover_hop_is_logged(self, replicated, caplog):
        """One debug line per abandoned copy, naming the copy and why
        (a dead mark, or the class of the error it raised)."""
        cluster, _ = replicated
        cluster.mark_dead(0, 0)

        def down(*args, **kwargs):
            raise StorageError("disk gone")

        cluster.replicas[1][0].select_region = down
        with caplog.at_level(logging.DEBUG, logger="repro.cluster"):
            cluster.select("A", 3)
        hops = [r.message for r in caplog.records
                if r.levelno == logging.DEBUG]
        assert sorted(hops) == [
            "failover: abandoned replica 0 of node 0 (marked dead)",
            "failover: abandoned replica 0 of node 1 (StorageError)"]

    def test_kill_any_single_host_keeps_all_reads_serving(
            self, replicated):
        cluster, versions = replicated
        for host in range(cluster.nodes):
            cluster.mark_node_dead(host)
            for number, expected in enumerate(versions, 1):
                np.testing.assert_array_equal(
                    cluster.select("A", number).single(), expected)
            cluster.revive_node(host)

    def test_chained_declustering_host_map(self, tmp_path):
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     backend="memory")
        cluster.mark_node_dead(1)
        # Host 1 carries band 1's primary and band 0's second copy.
        assert cluster.dead_replicas() == [(0, 1), (1, 0)]
        cluster.revive_node(1)
        assert cluster.dead_replicas() == []
        cluster.close()

    def test_all_replicas_dead_raises(self, replicated):
        cluster, _ = replicated
        cluster.mark_dead(1, 0)
        cluster.mark_dead(1, 1)
        with pytest.raises(StorageError, match="no live replica"):
            cluster.select("A", 1)

    def test_write_with_dead_replica_is_all_or_nothing(self, replicated):
        cluster, versions = replicated
        cluster.mark_dead(2, 1)
        with pytest.raises(StorageError, match="marked dead"):
            cluster.insert("A", versions[-1] + 5)
        for row in cluster.replicas:
            for manager in row:
                assert manager.get_versions("A") == [1, 2, 3]
                _assert_no_orphan_rows(manager)
        cluster.revive(2, 1)
        assert cluster.insert("A", versions[-1] + 5) == 4

    def test_replication_cannot_exceed_nodes(self, tmp_path):
        with pytest.raises(StorageError, match="replication"):
            ClusterCoordinator(tmp_path, nodes=2, replication=3,
                               backend="memory")

    def test_fingerprint_invariant_under_replication(self, tmp_path,
                                                     rng):
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        fingerprints = set()
        for replication in (1, 2, 3):
            cluster = ClusterCoordinator(
                tmp_path / f"r{replication}", nodes=3,
                replication=replication, chunk_bytes=512,
                backend="memory")
            cluster.create_array(
                "A", ArraySchema.simple((12, 8), dtype=np.int32))
            cluster.insert("A", data)
            cluster.insert("A", data + 1)
            fingerprints.add(cluster.fingerprint())
            cluster.close()
        assert len(fingerprints) == 1


class TestMidFanOutDeath:
    """A node dying mid-fan-out, in its stage step: no copy commits,
    so every replica stays in the old state with no orphan catalog
    rows."""

    @pytest.mark.parametrize("node,replica", GRID_3X2)
    def test_branch_node_death_rolls_back_landed_nodes(
            self, replicated, node, replica):
        cluster, versions = replicated
        victim = cluster.replicas[node][replica]
        writes = cluster.stats.replica_writes
        _refuse_placements(victim, "node down mid-fan-out")
        with pytest.raises(StorageError):
            cluster.branch("A", 2, "B")
        del victim.store.write_chunk
        # Every replica is back at the old head with a clean catalog.
        for row in cluster.replicas:
            for manager in row:
                assert manager.list_arrays() == ["A"]
                assert manager.get_versions("A") == [1, 2, 3]
                assert manager.store.total_bytes("B") == 0
                _assert_no_orphan_rows(manager)
        assert cluster.stats.replica_writes == writes
        # The name stayed free, so the retried branch lands everywhere.
        cluster.branch("A", 2, "B")
        np.testing.assert_array_equal(cluster.select("B", 1).single(),
                                      versions[1])

    @pytest.mark.parametrize("node,replica", GRID_3X2)
    def test_merge_node_death_rolls_back_landed_nodes(
            self, replicated, node, replica):
        cluster, versions = replicated
        victim = cluster.replicas[node][replica]
        writes = cluster.stats.replica_writes
        _refuse_placements(victim, "node down mid-fan-out")
        with pytest.raises(StorageError):
            cluster.merge([("A", 1), ("A", 3)], "M")
        del victim.store.write_chunk
        for row in cluster.replicas:
            for manager in row:
                assert manager.list_arrays() == ["A"]
                assert manager.store.total_bytes("M") == 0
                _assert_no_orphan_rows(manager)
        assert cluster.stats.replica_writes == writes
        cluster.merge([("A", 1), ("A", 3)], "M")
        np.testing.assert_array_equal(cluster.select("M", 2).single(),
                                      versions[2])

    def test_insert_node_death_leaves_no_orphan_rows(self, replicated):
        cluster, versions = replicated
        victim = cluster.replicas[0][1]
        _refuse_placements(victim, "node down mid-fan-out")
        with pytest.raises(StorageError):
            cluster.insert("A", versions[-1] + 9)
        del victim.store.write_chunk
        for row in cluster.replicas:
            for manager in row:
                assert manager.get_versions("A") == [1, 2, 3]
                _assert_no_orphan_rows(manager)
        assert cluster.insert("A", versions[-1] + 9) == 4


class TestArrayLifecycleAtomicity:
    """create/delete are all-or-nothing across the replica grid, like
    the version writes."""

    def test_create_array_with_dead_copy_fails_before_any_copy(
            self, tmp_path):
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     backend="memory")
        cluster.mark_dead(1, 0)
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        with pytest.raises(StorageError, match="marked dead"):
            cluster.create_array("A", schema)
        for row in cluster.replicas:
            for manager in row:
                assert manager.list_arrays() == []
        assert cluster.list_arrays() == []
        cluster.revive(1, 0)
        cluster.create_array("A", schema)
        assert cluster.list_arrays() == ["A"]
        cluster.close()

    @pytest.mark.parametrize("node,replica", GRID_3X2)
    def test_create_array_mid_grid_failure_fences_the_copy(
            self, tmp_path, caplog, node, replica, fan_width):
        """A copy whose create is refused is fenced and the array is
        created on the rest; writes refuse until the copy is revived
        with a repair, which creates it there too."""
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     backend="memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        victim = cluster.replicas[node][replica]

        def refusing_create(*args, **kwargs):
            raise StorageError("catalog refused")

        victim.catalog.put_chunks = refusing_create
        with caplog.at_level(logging.WARNING, logger="repro.cluster"):
            cluster.create_array("A", schema)
        del victim.catalog.put_chunks
        assert cluster.list_arrays() == ["A"]
        assert cluster.dead_replicas() == [(node, replica)]
        assert [r.message for r in caplog.records
                if r.levelno == logging.WARNING] == [
            f"fenced replica {replica} of node {node}: its commit of "
            f"array 'A' failed (catalog refused)"]
        for pair in GRID_3X2:
            held = cluster.replicas[pair[0]][pair[1]].list_arrays()
            assert held == ([] if pair == (node, replica) else ["A"])
        # A create lands no version, so it counts no replica write.
        assert cluster.stats.replica_writes == 0
        data = np.arange(96, dtype=np.int32).reshape(12, 8)
        with pytest.raises(StorageError, match="marked dead"):
            cluster.insert("A", data)
        cluster.revive(node, replica, repair=True)
        assert victim.list_arrays() == ["A"]
        assert cluster.insert("A", data) == 1
        np.testing.assert_array_equal(cluster.select("A", 1).single(),
                                      data)
        cluster.close()

    def test_create_array_converges_over_retries(self, tmp_path, fan_width):
        """A band whose every copy refuses the create fails it and
        leaves the partitions the other bands created; once the band
        is back, a retry counts those as created.  A copy holding the
        name any other way refuses it before any copy changes."""
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     backend="memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)

        def refusing_create(*args, **kwargs):
            raise StorageError("catalog refused")

        for manager in cluster.replicas[1]:
            manager.catalog.put_chunks = refusing_create
        with pytest.raises(StorageError, match=r"band\(s\) \[1\]"):
            cluster.create_array("A", schema)
        for manager in cluster.replicas[1]:
            del manager.catalog.put_chunks
        assert cluster.list_arrays() == []
        assert cluster.dead_replicas() == [(1, 0), (1, 1)]
        assert [manager.list_arrays() for row in cluster.replicas
                for manager in row] == [["A"], ["A"], [], [], ["A"], ["A"]]
        cluster.revive(1, 0)
        cluster.revive(1, 1)
        # Band 2's shape, another cell type: not this create's partition.
        cluster.replicas[2][1].create_array(
            "C", ArraySchema.simple((4, 8), dtype=np.int64))
        with pytest.raises(StorageError, match="already exists"):
            cluster.create_array("C", schema)
        assert [manager.list_arrays() for row in cluster.replicas
                for manager in row] == [["A"], ["A"], [], [], ["A"],
                                        ["A", "C"]]
        cluster.create_array("A", schema)
        assert cluster.list_arrays() == ["A"]
        assert cluster.dead_replicas() == []
        data = np.arange(96, dtype=np.int32).reshape(12, 8)
        assert cluster.insert("A", data) == 1
        np.testing.assert_array_equal(cluster.select("A", 1).single(),
                                      data)
        cluster.close()

    def test_delete_array_converges_over_retries(self, tmp_path, rng):
        """A copy whose *catalog* refuses the delete leaves a
        retryable state: every other copy is still attempted, the name
        stays registered, already-deleted copies count as done, and
        the retry finishes the job."""
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     chunk_bytes=512, backend="memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        cluster.insert("A",
                       rng.integers(0, 9, (12, 8)).astype(np.int32))
        victim = cluster.replicas[1][1]
        original = victim.delete_array

        def refusing_delete(name):
            raise StorageError("catalog refused the delete")

        victim.delete_array = refusing_delete
        with pytest.raises(StorageError, match="refused"):
            cluster.delete_array("A")
        victim.delete_array = original
        # Every healthy copy already dropped it; the sick one did not,
        # and the name is still registered so the delete can converge.
        assert cluster.list_arrays() == ["A"]
        assert victim.list_arrays() == ["A"]
        cluster.delete_array("A")
        assert cluster.list_arrays() == []
        for row in cluster.replicas:
            for manager in row:
                assert manager.list_arrays() == []
        cluster.close()

    def test_delete_array_with_dead_copy_fails_untouched(self, tmp_path,
                                                         rng):
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     chunk_bytes=512, backend="memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        data = rng.integers(0, 9, (12, 8)).astype(np.int32)
        cluster.insert("A", data)
        cluster.mark_dead(0, 1)
        with pytest.raises(StorageError, match="marked dead"):
            cluster.delete_array("A")
        # Nothing was deleted anywhere; the array still serves.
        np.testing.assert_array_equal(cluster.select("A", 1).single(),
                                      data)
        cluster.revive(0, 1)
        cluster.delete_array("A")
        assert cluster.list_arrays() == []
        cluster.close()


class _RecordingBackend(InMemoryBackend):
    """An in-memory backend that remembers whether it was closed."""

    def __init__(self):
        super().__init__()
        self.closed = False

    def close(self):
        self.closed = True
        super().close()


def _recording_factory(built, fail_at=None):
    """A backend factory appending each build to ``built`` and raising
    once ``fail_at`` backends exist."""

    def factory(root):
        if fail_at is not None and len(built) == fail_at:
            raise StorageError(f"node {fail_at} refused to boot")
        backend = _RecordingBackend()
        built.append(backend)
        return backend

    return factory


class TestManagerLifecycleCleanup:
    """The coordinator releases every per-node manager it built —
    including when construction itself fails partway."""

    def test_construction_failure_closes_built_managers(self, tmp_path):
        built = []
        with pytest.raises(StorageError, match="refused to boot"):
            ClusterCoordinator(tmp_path, nodes=2, replication=2,
                               backend=_recording_factory(built,
                                                          fail_at=3))
        # Three managers came up before the fourth failed; all three
        # were closed again (no leaked executors or SQLite handles).
        assert len(built) == 3
        assert all(backend.closed for backend in built)

    def test_close_reaches_every_replica(self, tmp_path):
        built = []
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     backend=_recording_factory(built))
        assert len(built) == 6
        cluster.close()
        assert all(backend.closed for backend in built)

    def test_construction_error_not_masked_by_close_failure(
            self, tmp_path):
        """The caller must see why construction sank, even when
        cleaning up a built manager fails too."""
        calls = []

        class ExplodingClose(InMemoryBackend):
            def close(self):
                raise RuntimeError("close exploded")

        def factory(root):
            if len(calls) == 2:
                raise StorageError("node 2 refused to boot")
            calls.append(root)
            return ExplodingClose()

        with pytest.raises(StorageError, match="refused to boot"):
            ClusterCoordinator(tmp_path, nodes=3, backend=factory)


class TestRebalance:
    @pytest.fixture
    def grown(self, tmp_path, rng):
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     chunk_bytes=512, backend="memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        versions = []
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        for _ in range(3):
            versions.append(data)
            cluster.insert("A", data)
            data = data + 1
        cluster.branch("A", 2, "B")
        yield cluster, versions
        cluster.close()

    def test_fingerprint_identical_across_reshard(self, grown):
        cluster, versions = grown
        fingerprint = cluster.fingerprint()
        migrated = cluster.rebalance(4)
        assert cluster.nodes == 4
        assert migrated > 0
        assert cluster.stats.migrated_chunks == migrated
        assert cluster.fingerprint() == fingerprint
        # Shrinking back is a reshard too, and still byte-identical.
        cluster.rebalance(2)
        assert cluster.nodes == 2
        assert cluster.fingerprint() == fingerprint
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                cluster.select("A", number).single(), expected)
        np.testing.assert_array_equal(cluster.select("B", 1).single(),
                                      versions[1])

    def test_cluster_keeps_growing_after_reshard(self, grown):
        cluster, versions = grown
        cluster.rebalance(4)
        assert cluster.insert("A", versions[-1] + 7) == 4
        np.testing.assert_array_equal(cluster.select("A", 4).single(),
                                      versions[-1] + 7)
        # New bands partition 12 rows over 4 nodes.
        for manager in cluster.managers:
            assert manager.catalog.get_array("A").schema.shape == (3, 8)

    def test_rebalance_replays_identically_onto_disk(self, tmp_path,
                                                     rng):
        """On a disk-backed cluster the old generation's node roots are
        released and removed once the new generation is adopted."""
        cluster = ClusterCoordinator(tmp_path / "cl", nodes=3,
                                     chunk_bytes=512)
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        cluster.insert("A", data)
        fingerprint = cluster.fingerprint()
        cluster.rebalance(2)
        assert sorted(p.name for p in (tmp_path / "cl").iterdir()) == \
            ["gen1"]
        assert cluster.fingerprint() == fingerprint
        cluster.rebalance(4)
        assert sorted(p.name for p in (tmp_path / "cl").iterdir()) == \
            ["gen2"]
        assert cluster.fingerprint() == fingerprint
        np.testing.assert_array_equal(cluster.select("A", 1).single(),
                                      data)
        cluster.close()

    def test_rebalance_reads_around_dead_copies(self, grown):
        """Evacuating a cluster with a dead host works while every
        band keeps a live copy (quorum reads feed the migration)."""
        cluster, versions = grown
        fingerprint = cluster.fingerprint()
        cluster.mark_node_dead(0)
        cluster.rebalance(4)
        assert cluster.fingerprint() == fingerprint
        # The new generation is a fresh, fully live fleet.
        assert cluster.dead_replicas() == []

    def test_failed_rebalance_leaves_old_generation_untouched(
            self, grown, monkeypatch):
        cluster, versions = grown
        fingerprint = cluster.fingerprint()
        original = rebalance_flow._migrate_version
        calls = []

        def dying_migrate(self, name, version, plan, fresh):
            calls.append(version)
            if len(calls) == 2:
                raise StorageError("migration interrupted")
            return original(self, name, version, plan, fresh)

        monkeypatch.setattr(rebalance_flow, "_migrate_version",
                            dying_migrate)
        with pytest.raises(StorageError, match="interrupted"):
            cluster.rebalance(4)
        monkeypatch.undo()
        # Old generation intact and serving; no half-built gen1 left.
        assert cluster.nodes == 3
        assert cluster.stats.migrated_chunks == 0
        assert cluster.fingerprint() == fingerprint
        assert not (cluster.root / "gen1").exists()
        # And the reshard still lands once the interruption clears.
        cluster.rebalance(4)
        assert cluster.fingerprint() == fingerprint

    @pytest.mark.parametrize("node,replica",
                             [(n, r) for n in range(4) for r in range(2)])
    def test_fault_in_replay_fan_leaves_no_partial_version(
            self, tmp_path, rng, monkeypatch, node, replica, fan_width):
        """A copy of the *fresh* generation failing mid-replay sinks
        the rebalance, and the fleet no reader could reach yet goes
        whole: the old generation serves unchanged, no ``gen1``
        directory is left, nothing is counted, and a retry lands."""
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     chunk_bytes=512, backend="local")
        cluster.create_array("A",
                             ArraySchema.simple((12, 8), dtype=np.int32))
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        for step in range(3):
            cluster.insert("A", data + step)
        fingerprint = cluster.fingerprint()
        replica_writes = cluster.stats.replica_writes
        leaf = f"node{node}" if replica == 0 else f"node{node}-r{replica}"
        original_replay = VersionedStorageManager.replay_version

        def failing_replay(manager, name, payload, **row):
            if row["version"] == 2 and manager.root.name == leaf \
                    and manager.root.parent.name == "gen1":
                raise StorageError("fresh copy down mid-replay")
            return original_replay(manager, name, payload, **row)

        monkeypatch.setattr(VersionedStorageManager, "replay_version",
                            failing_replay)
        with pytest.raises(StorageError, match="mid-replay"):
            cluster.rebalance(4)
        monkeypatch.undo()
        assert cluster.nodes == 3
        assert cluster.fingerprint() == fingerprint
        assert not (tmp_path / "gen1").exists()
        assert cluster.stats.migrated_chunks == 0
        assert cluster.stats.replica_writes == replica_writes
        cluster.rebalance(4)
        assert cluster.nodes == 4
        assert cluster.fingerprint() == fingerprint
        cluster.close()

    def test_generation_swap_is_logged(self, grown, caplog):
        cluster, _ = grown
        with caplog.at_level(logging.INFO, logger="repro.cluster"):
            migrated = cluster.rebalance(4)
        (record,) = [r for r in caplog.records
                     if r.message.startswith("generation swap")]
        assert record.levelno == logging.INFO
        assert "0 -> 1" in record.message
        assert "1 catch-up passes" in record.message
        assert f"{migrated} migrated chunks" in record.message

    def test_bad_target_counts_rejected(self, grown):
        cluster, _ = grown
        with pytest.raises(StorageError):
            cluster.rebalance(0)
        with pytest.raises(StorageError, match="replication"):
            cluster.rebalance(1)  # replication=2 needs >= 2 nodes

    def test_rebalance_preserves_explicit_chunk_shape(self, tmp_path,
                                                      rng):
        cluster = ClusterCoordinator(tmp_path, nodes=3,
                                     chunk_bytes=512, backend="memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema, chunk_shape=(2, 8))
        cluster.insert("A",
                       rng.integers(0, 9, (12, 8)).astype(np.int32))
        cluster.rebalance(4)
        for manager in cluster.managers:
            assert manager.catalog.get_array("A").chunk_shape == (2, 8)
        cluster.close()

    def test_failed_generation_construction_leaves_no_debris(
            self, tmp_path, rng):
        """A backend factory that refuses to build the new generation
        aborts the reshard with the old cluster intact and no gen<k>
        directories on disk for a later rebalance to adopt."""
        from repro.storage import LocalFileBackend

        state = {"built": 0, "refuse": False}

        def factory(root):
            # Refuse only after two replacement nodes came up, so the
            # half-built generation really leaves directories behind
            # for the cleanup to remove.
            if state["refuse"] and state["built"] >= 5:
                raise StorageError("replacement node refused to boot")
            state["built"] += 1
            return LocalFileBackend(root)

        cluster = ClusterCoordinator(tmp_path / "cl", nodes=3,
                                     chunk_bytes=512, backend=factory)
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        data = rng.integers(0, 9, (12, 8)).astype(np.int32)
        cluster.insert("A", data)
        fingerprint = cluster.fingerprint()
        state["refuse"] = True
        with pytest.raises(StorageError, match="refused to boot"):
            cluster.rebalance(4)
        state["refuse"] = False
        assert not (tmp_path / "cl" / "gen1").exists()
        assert cluster.nodes == 3
        assert cluster.fingerprint() == fingerprint
        cluster.rebalance(4)
        assert cluster.fingerprint() == fingerprint
        cluster.close()


class TestValidation:
    def test_zero_nodes_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            ClusterCoordinator(tmp_path, nodes=0)

    def test_single_node_degenerates_cleanly(self, tmp_path, rng):
        cluster = ClusterCoordinator(tmp_path, nodes=1, chunk_bytes=1024)
        schema = ArraySchema.simple((6, 6), dtype=np.int32)
        cluster.create_array("A", schema)
        data = rng.integers(0, 9, (6, 6)).astype(np.int32)
        cluster.insert("A", data)
        np.testing.assert_array_equal(cluster.select("A", 1).single(),
                                      data)
        cluster.close()


def _cluster_history(root, rng) -> tuple:
    """Three inserts into a 3-node cluster, and everything it answers."""
    cluster = ClusterCoordinator(root, nodes=3, chunk_bytes=512,
                                 backend="memory")
    cluster.create_array("A", ArraySchema.simple((24, 10), dtype=np.int32))
    data = rng.integers(0, 100, (24, 10)).astype(np.int32)
    inserted = []
    for _ in range(3):
        inserted.append(cluster.insert("A", data))
        data = data + 1
    answers = (inserted,
               [cluster.select("A", version).single()
                for version in (1, 2, 3)],
               cluster.select_region("A", 3, (2, 1), (21, 8)).single(),
               cluster.select_versions("A", [1, 3]),
               [manager.stored_bytes("A") for manager in cluster.managers],
               cluster.fingerprint())
    cluster.close()
    return answers


class _CountingPool(ThreadPoolExecutor):
    """A fan pool that counts the tasks it has started and those
    running now, with every thread it may have started up front — a
    fresh pool starts one thread per task while none is idle — so any
    thread a store starts beyond them is a pool of its own."""

    def __init__(self, size: int, prefix: str):
        super().__init__(size, thread_name_prefix=prefix)
        self.started = self.running = 0
        self._count = threading.Lock()
        gate = threading.Barrier(size + 1, timeout=30)
        for _ in range(size):
            super().submit(gate.wait)
        gate.wait()

    def submit(self, function, /, *args, **kwargs):
        def counted():
            with self._count:
                self.started += 1
                self.running += 1
            try:
                return function(*args, **kwargs)
            finally:
                with self._count:
                    self.running -= 1

        return super().submit(counted)


class TestClusterWorkers:
    def test_parallel_cluster_matches_serial(self, tmp_path, pin_fan):
        """Every node's manager fans its own chunks; the cluster answers
        and stores the same at every fan width."""
        runs = []
        for width in (1, 4):
            with pin_fan(width):
                runs.append(_cluster_history(tmp_path / f"w{width}",
                                             np.random.default_rng(3)))
        inline, pooled = runs
        assert inline[0] == pooled[0] == [1, 2, 3]
        for left, right in zip(inline[1], pooled[1]):
            np.testing.assert_array_equal(left, right)
        np.testing.assert_array_equal(inline[2], pooled[2])
        np.testing.assert_array_equal(inline[3], pooled[3])
        assert inline[4:] == pooled[4:]

    def test_workers_is_not_an_option(self, tmp_path):
        with pytest.raises(TypeError):
            ClusterCoordinator(tmp_path, nodes=2, workers=3,
                               backend="memory")

    @pytest.mark.parametrize("fan_width", [4], indirect=True)
    def test_one_cpu_fan_and_one_sync_fan_per_process(
            self, tmp_path, fan_width):
        """A 3 x 2 cluster, a durable manager and an ``object:durable``
        one share the process's two fans: writes, reads, regions,
        deletions and a rebalance start no thread beyond their
        ``FAN_WIDTH - 1 + SYNC_FAN``, a manager opened after the others
        closed starts none, and closing everything leaves no task
        running.  The coordinator runs no pool of its own."""
        before = set(threading.enumerate())
        cpu = _CountingPool(fan.FAN_WIDTH - 1, "repro-cpu")
        sync = _CountingPool(fan.SYNC_FAN, "repro-sync")
        saved = fan._cpu, fan._sync
        fan._cpu, fan._sync = cpu, sync
        schema = ArraySchema.simple((48, 40), dtype=np.int32)
        data = np.arange(48 * 40, dtype=np.int32).reshape(48, 40)

        def exercise(store) -> None:
            store.create_array("A", schema)
            for step in range(3):
                store.insert("A", data + step)
            np.testing.assert_array_equal(store.select("A", 3).single(),
                                          data + 2)
            np.testing.assert_array_equal(
                store.select_region("A", 2, (3, 5), (40, 30)).single(),
                data[3:41, 5:31] + 1)

        try:
            stores = [
                ClusterCoordinator(tmp_path / "cluster", nodes=3,
                                   replication=2, chunk_bytes=512,
                                   backend="memory"),
                VersionedStorageManager(tmp_path / "durable",
                                        chunk_bytes=512, backend="durable"),
                VersionedStorageManager(tmp_path / "object",
                                        chunk_bytes=512,
                                        backend="object:durable"),
            ]
            for store in stores:
                exercise(store)
            for manager in stores[1:]:
                manager.delete_version("A", 2)
            assert stores[0].rebalance(4) > 0
            started = [thread for thread in threading.enumerate()
                       if thread not in before]
            assert sorted(thread.name for thread in started) == sorted(
                [f"repro-cpu_{n}" for n in range(fan.FAN_WIDTH - 1)]
                + [f"repro-sync_{n}" for n in range(fan.SYNC_FAN)])
            assert cpu.started > 0 and sync.started > 0
            for store in stores:
                store.close()
            assert cpu.running == sync.running == 0

            opened = set(threading.enumerate())
            with VersionedStorageManager(tmp_path / "late",
                                         chunk_bytes=512,
                                         backend="durable") as late:
                exercise(late)
            assert [thread for thread in threading.enumerate()
                    if thread not in opened] == []
            assert cpu.running == sync.running == 0
        finally:
            fan._cpu, fan._sync = saved
            cpu.shutdown()
            sync.shutdown()

    def test_striped_nodes(self, tmp_path, rng):
        """Each node can itself stripe its payloads."""
        cluster = ClusterCoordinator(tmp_path, nodes=2, chunk_bytes=512,
                                     backend="striped:2:memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        cluster.insert("A", data)
        np.testing.assert_array_equal(cluster.select("A", 1).single(),
                                      data)
        assert not tmp_path.exists() or not any(tmp_path.iterdir())
        cluster.close()
