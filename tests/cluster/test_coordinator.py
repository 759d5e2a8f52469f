"""Tests for the multi-node coordinator (Section II's distribution)."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.cluster import rebalance as rebalance_flow
from repro.core.array import ArrayData
from repro.core.errors import ReproError, SchemaError, StorageError
from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.storage import InMemoryBackend, VersionedStorageManager

#: Every (band, replica) position of the 3 x 2 grid the rollback tests
#: fail in turn.
GRID_3X2 = [(node, replica) for node in range(3) for replica in range(2)]


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
    def test_region_within_one_band_touches_one_node(self, loaded):
        cluster, versions = loaded
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
                                     backend="object", workers=4)
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
    @pytest.fixture(params=[0, 4])
    def filled(self, tmp_path, rng, request):
        cluster = ClusterCoordinator(tmp_path, nodes=3, chunk_bytes=512,
                                     backend="memory",
                                     workers=request.param)
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
        """A fast-failing node must not let a slow node's insert land
        after compensation ran — rollback waits for every node."""
        import time

        cluster = ClusterCoordinator(tmp_path, nodes=3, chunk_bytes=512,
                                     backend="memory", workers=4)
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        cluster.insert("A", data)

        fast_fail = cluster.managers[0]
        slow = cluster.managers[2]
        original_fail = fast_fail.insert
        original_slow = slow.insert

        def failing_insert(*args, **kwargs):
            raise StorageError("node down")

        def slow_insert(*args, **kwargs):
            time.sleep(0.05)
            return original_slow(*args, **kwargs)

        fast_fail.insert = failing_insert
        slow.insert = slow_insert
        with pytest.raises(StorageError):
            cluster.insert("A", data + 1)
        fast_fail.insert = original_fail
        slow.insert = original_slow

        for manager in cluster.managers:
            assert manager.get_versions("A") == [1]
        assert cluster.insert("A", data + 1) == 2
        cluster.close()

    def test_branch_onto_unregistered_node_array_rejected(self, filled):
        """Node catalogs may hold arrays the session-scoped registry
        has never seen; branch/merge must not destroy them."""
        cluster, versions = filled
        schema = ArraySchema.simple((4, 8), dtype=np.int32)
        for manager in cluster.managers:  # bypass the coordinator
            manager.create_array("B", schema)
            manager.insert("B", np.ones((4, 8), dtype=np.int32))
        with pytest.raises(StorageError):
            cluster.branch("A", 1, "B")
        for manager in cluster.managers:
            np.testing.assert_array_equal(
                manager.select("B", 1).single(),
                np.ones((4, 8), dtype=np.int32))

    @pytest.mark.parametrize("node", range(3))
    def test_failed_node_insert_rolls_back_landed_nodes(self, filled,
                                                        node):
        cluster, versions = filled
        victim = cluster.managers[node]
        writes = cluster.stats.replica_writes
        original = victim.insert

        def failing_insert(*args, **kwargs):
            raise StorageError("node down")

        victim.insert = failing_insert
        with pytest.raises(StorageError):
            cluster.insert("A", versions[-1] + 50)
        victim.insert = original
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
        original = victim.branch

        def failing_branch(*args, **kwargs):
            raise StorageError("node down")

        victim.branch = failing_branch
        with pytest.raises(StorageError):
            cluster.branch("A", 2, "B")
        victim.branch = original
        # No node keeps a partial branch, and the name is reusable.
        for manager in cluster.managers:
            assert manager.list_arrays() == ["A"]
        assert cluster.list_arrays() == ["A"]
        assert cluster.stats.replica_writes == writes
        cluster.branch("A", 2, "B")
        np.testing.assert_array_equal(cluster.select("B", 1).single(),
                                      versions[1])


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


@pytest.fixture(params=[0, 4])
def replicated(tmp_path, rng, request):
    """A 3-band, replication=2 in-memory cluster holding 3 versions,
    exercised serial and with node fan-out (shared by the replication
    and mid-fan-out-death suites)."""
    cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                 chunk_bytes=512, backend="memory",
                                 workers=request.param)
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
    """A node dying mid-fan-out: compensation returns every landed
    replica to the old state and leaves no orphan catalog rows."""

    @pytest.mark.parametrize("node,replica", GRID_3X2)
    def test_branch_node_death_rolls_back_landed_nodes(
            self, replicated, node, replica):
        cluster, versions = replicated
        victim = cluster.replicas[node][replica]
        writes = cluster.stats.replica_writes
        original = victim.branch

        def dying_branch(*args, **kwargs):
            raise StorageError("node down mid-fan-out")

        victim.branch = dying_branch
        with pytest.raises(StorageError):
            cluster.branch("A", 2, "B")
        victim.branch = original
        # Every replica is back at the old head with a clean catalog.
        for row in cluster.replicas:
            for manager in row:
                assert manager.list_arrays() == ["A"]
                assert manager.get_versions("A") == [1, 2, 3]
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
        original = victim.merge

        def dying_merge(*args, **kwargs):
            raise StorageError("node down mid-fan-out")

        victim.merge = dying_merge
        with pytest.raises(StorageError):
            cluster.merge([("A", 1), ("A", 3)], "M")
        victim.merge = original
        for row in cluster.replicas:
            for manager in row:
                assert manager.list_arrays() == ["A"]
                _assert_no_orphan_rows(manager)
        assert cluster.stats.replica_writes == writes
        cluster.merge([("A", 1), ("A", 3)], "M")
        np.testing.assert_array_equal(cluster.select("M", 2).single(),
                                      versions[2])

    def test_insert_node_death_leaves_no_orphan_rows(self, replicated):
        cluster, versions = replicated
        victim = cluster.replicas[0][1]
        original = victim.insert

        def dying_insert(*args, **kwargs):
            raise StorageError("node down mid-fan-out")

        victim.insert = dying_insert
        with pytest.raises(StorageError):
            cluster.insert("A", versions[-1] + 9)
        victim.insert = original
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

    @pytest.mark.parametrize("workers", [0, 4])
    @pytest.mark.parametrize("node,replica", GRID_3X2)
    def test_create_array_mid_grid_failure_rolls_back(
            self, tmp_path, node, replica, workers):
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     backend="memory", workers=workers)
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        victim = cluster.replicas[node][replica]
        original = victim.create_array

        def refusing_create(*args, **kwargs):
            raise StorageError("catalog refused")

        victim.create_array = refusing_create
        with pytest.raises(StorageError, match="refused"):
            cluster.create_array("A", schema)
        victim.create_array = original
        # No copy keeps the partial array; the name stays usable.
        for row in cluster.replicas:
            for manager in row:
                assert manager.list_arrays() == []
        assert cluster.stats.replica_writes == 0
        cluster.create_array("A", schema)
        assert cluster.list_arrays() == ["A"]
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

    @pytest.mark.parametrize("workers", [0, 4])
    @pytest.mark.parametrize("node,replica",
                             [(n, r) for n in range(4) for r in range(2)])
    def test_fault_in_replay_fan_leaves_no_partial_version(
            self, tmp_path, rng, monkeypatch, node, replica, workers):
        """A copy of the *fresh* generation failing mid-replay: the
        version is compensated off every fresh copy that landed it (no
        partial version, nothing counted) before the rebalance aborts
        with the old generation untouched."""
        cluster = ClusterCoordinator(tmp_path, nodes=3, replication=2,
                                     chunk_bytes=512, backend="memory",
                                     workers=workers)
        cluster.create_array("A",
                             ArraySchema.simple((12, 8), dtype=np.int32))
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        for step in range(3):
            cluster.insert("A", data + step)
        fingerprint = cluster.fingerprint()
        leaf = f"node{node}" if replica == 0 else f"node{node}-r{replica}"
        original_replay = VersionedStorageManager.replay_version
        original_sync = rebalance_flow._sync_generation
        observed = []

        def failing_replay(manager, name, payload, **row):
            if row["version"] == 2 and manager.root.name == leaf \
                    and manager.root.parent.name == "gen1":
                raise StorageError("fresh copy down mid-replay")
            return original_replay(manager, name, payload, **row)

        def observing_sync(old, fresh, seed):
            try:
                return original_sync(old, fresh, seed)
            except StorageError:
                observed.append((
                    [manager.get_versions("A")
                     for row in fresh.replicas for manager in row],
                    fresh.stats.replica_writes))
                raise

        monkeypatch.setattr(VersionedStorageManager, "replay_version",
                            failing_replay)
        monkeypatch.setattr(rebalance_flow, "_sync_generation",
                            observing_sync)
        with pytest.raises(StorageError, match="mid-replay"):
            cluster.rebalance(4)
        monkeypatch.undo()
        # Version 1 landed everywhere (4 bands x 1 extra copy counted);
        # version 2 left no trace on any of the 8 fresh copies.
        assert observed == [([[1]] * 8, 4)]
        assert cluster.nodes == 3
        assert cluster.fingerprint() == fingerprint
        cluster.rebalance(4)
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


class TestClusterWorkers:
    def test_parallel_cluster_matches_serial(self, tmp_path, rng):
        schema = ArraySchema.simple((24, 10), dtype=np.int32)
        serial = ClusterCoordinator(tmp_path / "serial", nodes=3,
                                    chunk_bytes=512, backend="memory")
        parallel = ClusterCoordinator(tmp_path / "parallel", nodes=3,
                                      chunk_bytes=512, backend="memory",
                                      workers=4)
        for cluster in (serial, parallel):
            cluster.create_array("A", schema)
        data = rng.integers(0, 100, (24, 10)).astype(np.int32)
        for _ in range(3):
            serial.insert("A", data)
            parallel.insert("A", data)
            data = data + 1
        for version in (1, 2, 3):
            np.testing.assert_array_equal(
                parallel.select("A", version).single(),
                serial.select("A", version).single())
        np.testing.assert_array_equal(
            parallel.select_region("A", 3, (2, 1), (21, 8)).single(),
            serial.select_region("A", 3, (2, 1), (21, 8)).single())
        np.testing.assert_array_equal(
            parallel.select_versions("A", [1, 3]),
            serial.select_versions("A", [1, 3]))
        serial.close()
        parallel.close()

    def test_workers_reach_every_node(self, tmp_path):
        cluster = ClusterCoordinator(tmp_path, nodes=2, workers=3,
                                     backend="memory")
        assert cluster.workers == 3
        assert all(manager.workers == 3
                   for manager in cluster.managers)
        cluster.close()

    def test_parallel_insert_fans_nodes(self, tmp_path, rng):
        """Concurrent node inserts land the same versions and bytes as
        the serial node loop."""
        schema = ArraySchema.simple((24, 10), dtype=np.int32)
        serial = ClusterCoordinator(tmp_path / "serial", nodes=3,
                                    chunk_bytes=512, backend="memory")
        parallel = ClusterCoordinator(tmp_path / "parallel", nodes=3,
                                      chunk_bytes=512, backend="memory",
                                      workers=4)
        for cluster in (serial, parallel):
            cluster.create_array("A", schema)
        data = rng.integers(0, 100, (24, 10)).astype(np.int32)
        for _ in range(3):
            assert serial.insert("A", data) == parallel.insert("A", data)
            data = data + 1
        for version in (1, 2, 3):
            np.testing.assert_array_equal(
                parallel.select("A", version).single(),
                serial.select("A", version).single())
        for left, right in zip(serial.managers, parallel.managers):
            assert left.stored_bytes("A") == right.stored_bytes("A")
        serial.close()
        parallel.close()

    def test_striped_nodes(self, tmp_path, rng):
        """Each node can itself stripe its payloads."""
        cluster = ClusterCoordinator(tmp_path, nodes=2, workers=2,
                                     chunk_bytes=512,
                                     backend="striped:2:memory")
        schema = ArraySchema.simple((12, 8), dtype=np.int32)
        cluster.create_array("A", schema)
        data = rng.integers(0, 100, (12, 8)).astype(np.int32)
        cluster.insert("A", data)
        np.testing.assert_array_equal(cluster.select("A", 1).single(),
                                      data)
        assert not tmp_path.exists() or not any(tmp_path.iterdir())
        cluster.close()
