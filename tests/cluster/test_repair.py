"""Anti-entropy repair and verified revive (the 24/7-operations story).

A dead mark only ever meant "skip this copy"; the bytes behind it may
have rotted, been wiped, or diverged.  These tests pin the contract
that closes that gap:

* per-copy *logical* digests agree across replicas of a band (and stay
  invariant under per-copy physical reorganization — placement and
  timestamps are explicitly outside the digest);
* ``revive`` / ``revive_node`` verify the digest against live peers
  and either refuse loudly or auto-repair — a data-less replica never
  rejoins rotation silently;
* ``repair`` resyncs a stale or blank copy version-by-version through
  the transactional write path, replays *only* the missing tail of a
  strict-prefix copy, rebuilds a diverged copy from scratch, preserves
  lineage kinds exactly, and proves convergence before returning;
* the ``repairs`` / ``repaired_versions`` / ``repair_bytes`` counters
  account exactly for what was replayed.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.core.errors import StorageError
from repro.core.schema import ArraySchema

SHAPE = (12, 8)


def _cluster(tmp_path, nodes=3, replication=2) -> ClusterCoordinator:
    return ClusterCoordinator(tmp_path / "cluster", nodes=nodes,
                              replication=replication, chunk_bytes=512,
                              backend="memory")


def _workload(cluster: ClusterCoordinator) -> None:
    """Inserts, a branch, a branch insert, and a merge — every lineage
    kind the catalog knows, so repair has all three to preserve."""
    rng = np.random.default_rng(20120401)
    schema = ArraySchema.simple(SHAPE, dtype=np.int32)
    cluster.create_array("A", schema)
    data = rng.integers(0, 100, SHAPE).astype(np.int32)
    for step in range(3):
        cluster.insert("A", data + step)
    cluster.branch("A", 2, "B")
    cluster.insert("B", data * 2)
    cluster.merge([("A", 3), ("B", 2)], "M")


class _RecordingCatalog:
    """Counts the catalog calls made *through the wrapper* — i.e. by
    the cluster layer, not by the manager's own methods."""

    def __init__(self, catalog, calls: list[str]):
        self._catalog = catalog
        self._calls = calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._catalog, name)


class _RecordingManager:
    """A band copy that records the cluster layer's direct catalog
    reads (everything else passes straight through)."""

    def __init__(self, manager):
        self._manager = manager
        self.catalog_calls: list[str] = []
        self.catalog = _RecordingCatalog(manager.catalog,
                                         self.catalog_calls)

    def __getattr__(self, name):
        return getattr(self._manager, name)


class TestReplicaDigest:
    def test_digests_agree_across_copies(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            for node in range(cluster.nodes):
                digests = {cluster.replica_digest(node, replica)
                           for replica in range(cluster.replication)}
                assert len(digests) == 1
                for name in cluster.list_arrays():
                    per_array = {
                        cluster.replica_digest(node, replica, name)
                        for replica in range(cluster.replication)}
                    assert len(per_array) == 1
        finally:
            cluster.close()

    def test_digest_invariant_under_reorganization(self, tmp_path):
        """Replica copies legitimately diverge in physical layout (each
        reorganizes independently); the logical digest must not see
        that."""
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            before = cluster.replica_digest(0, 0)
            # Re-layout only one copy of band 0: the copies' physical
            # fingerprints now differ, their logical digests must not.
            cluster.replicas[0][0].reorganize("A", mode="head")
            assert cluster.replica_digest(0, 0) == before
            assert cluster.replica_digest(0, 0) == \
                cluster.replica_digest(0, 1)
        finally:
            cluster.close()

    def test_digest_differs_when_contents_differ(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            cluster.replicas[0][1].delete_version("B", 2)
            assert cluster.replica_digest(0, 1) != \
                cluster.replica_digest(0, 0)
        finally:
            cluster.close()


class TestVerifiedRevive:
    def test_revive_refuses_stale_replica(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            cluster.replace_replica(1, 0)
            with pytest.raises(StorageError, match="is stale"):
                cluster.revive(1, 0)
            # The refusal must not clear the mark.
            assert (1, 0) in set(cluster.dead_replicas())
        finally:
            cluster.close()

    def test_revive_with_repair_resyncs_and_rejoins(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            reference = cluster.fingerprint()
            cluster.replace_replica(1, 0)
            cluster.revive(1, 0, repair=True)
            assert cluster.dead_replicas() == []
            assert cluster.stats.repairs == 1
            # The revived copy alone can serve its band: kill its peer
            # and the fingerprint must still come out fault-free.
            cluster.mark_dead(1, 1)
            assert cluster.fingerprint() == reference
        finally:
            cluster.close()

    def test_revive_of_intact_copy_needs_no_repair(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            cluster.mark_dead(2, 1)
            cluster.revive(2, 1)
            assert cluster.dead_replicas() == []
            assert cluster.stats.repairs == 0
        finally:
            cluster.close()

    def test_revive_node_is_all_or_nothing(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            host = 1
            copies = [(node, replica)
                      for node in range(cluster.nodes)
                      for replica in range(cluster.replication)
                      if cluster.host_of(node, replica) == host]
            assert len(copies) > 1
            cluster.mark_node_dead(host)
            # Rot exactly one of the host's copies.
            node, replica = copies[0]
            cluster.replicas[node][replica].delete_version("M", 2)
            with pytest.raises(StorageError, match="stale copies"):
                cluster.revive_node(host)
            # No mark cleared — not even for the intact copies.
            assert set(copies) <= set(cluster.dead_replicas())
            cluster.revive_node(host, repair=True)
            assert cluster.dead_replicas() == []
            assert cluster.stats.repairs == 1
            assert cluster.stats.repaired_versions == 1
        finally:
            cluster.close()


class TestRepair:
    def test_repair_requires_a_live_peer(self, tmp_path):
        cluster = _cluster(tmp_path, nodes=2, replication=1)
        try:
            _workload(cluster)
            with pytest.raises(StorageError, match="no live peer"):
                cluster.repair(0, 0)
        finally:
            cluster.close()

    @pytest.mark.parametrize("replication,already_dead",
                             [(1, []), (2, [(0, 1)])])
    def test_replace_refuses_the_last_live_copy(self, tmp_path,
                                                replication,
                                                already_dead):
        """Replacing a copy with no live peer would wipe the only data
        of its band (and a later unverified revive would report the
        cluster healthy): refused before anything is closed or
        removed."""
        cluster = _cluster(tmp_path, nodes=2, replication=replication)
        try:
            _workload(cluster)
            for pair in already_dead:
                cluster.mark_dead(*pair)
            survivor = cluster.replicas[0][0]
            expected = survivor.select("A", 3).single()
            with pytest.raises(StorageError, match="last live copy"):
                cluster.replace_replica(0, 0)
            # Same manager, still open, still holding the band.
            assert cluster.replicas[0][0] is survivor
            np.testing.assert_array_equal(
                survivor.select("A", 3).single(), expected)
            assert cluster.dead_replicas() == already_dead
            np.testing.assert_array_equal(
                cluster.select("A", 3).single()[:expected.shape[0]],
                expected)
        finally:
            cluster.close()

    def test_blank_replacement_rebuilds_with_exact_counters(
            self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            reference = cluster.fingerprint()
            versions = sum(len(cluster.get_versions(name))
                           for name in cluster.list_arrays())
            band_rows = cluster._partitioners["A"].band_of(1).length
            band_bytes = band_rows * SHAPE[1] * np.dtype(np.int32).itemsize
            cluster.replace_replica(1, 0)
            report = cluster.repair(1, 0)
            assert report == {"versions": versions,
                              "bytes": versions * band_bytes}
            assert cluster.stats.repairs == 1
            assert cluster.stats.repaired_versions == versions
            assert cluster.stats.repair_bytes == versions * band_bytes
            cluster.revive(1, 0)
            cluster.mark_dead(1, 1)
            assert cluster.fingerprint() == reference
        finally:
            cluster.close()

    def test_replay_reads_lineage_rows_once_per_array(self, tmp_path):
        """Replaying *n* versions costs one lineage-row read per array
        from one peer — not a per-version row read plus a per-version
        merge-parents read, each free to land on a different peer."""
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            arrays = cluster.list_arrays()
            versions = sum(len(cluster.get_versions(name))
                           for name in arrays)
            cluster.replace_replica(1, 0)
            peer = _RecordingManager(cluster.replicas[1][1])
            cluster.replicas[1][1] = peer
            report = cluster.repair(1, 0)
            cluster.replicas[1][1] = peer._manager
            assert report["versions"] == versions > len(arrays)
            assert peer.catalog_calls.count("get_versions") == len(arrays)
            assert "get_version" not in peer.catalog_calls
            # One merge-parents lookup per row of that single read.
            assert peer.catalog_calls.count("merge_parents_of") == versions
        finally:
            cluster.close()

    def test_repair_is_logged(self, tmp_path, caplog):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            cluster.replicas[2][1].delete_version("A", 3)
            cluster.replace_replica(1, 0)
            with caplog.at_level(logging.INFO, logger="repro.cluster"):
                tail = cluster.repair(2, 1)
                rebuilt = cluster.repair(1, 0)
            messages = [r.message for r in caplog.records
                        if r.levelno == logging.INFO]
            assert messages == [
                f"repair node=2 replica=1: 1 versions, "
                f"{tail['bytes']} bytes (0 arrays rebuilt, the rest "
                f"tail-replayed)",
                f"repair node=1 replica=0: {rebuilt['versions']} "
                f"versions, {rebuilt['bytes']} bytes (3 arrays rebuilt, "
                f"the rest tail-replayed)"]
        finally:
            cluster.close()

    def test_stale_tail_replays_only_the_missing_versions(
            self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            copy = cluster.replicas[2][1]
            copy.delete_version("A", 3)
            copy.delete_version("B", 2)
            report = cluster.repair(2, 1)
            assert report["versions"] == 2
            assert cluster.stats.repaired_versions == 2
            assert cluster.replica_digest(2, 1) == \
                cluster.replica_digest(2, 0)
        finally:
            cluster.close()

    def test_converged_copy_replays_nothing(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            assert cluster.repair(0, 1) == {"versions": 0, "bytes": 0}
            assert cluster.stats.repairs == 0
        finally:
            cluster.close()

    def test_diverged_copy_is_rebuilt_from_scratch(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            copy = cluster.replicas[0][1]
            # Same version count, different bytes: a strict prefix no
            # longer matches, so the copy must be wiped and rebuilt.
            copy.delete_version("B", 2)
            band = copy.select("B", 1).single()
            copy.insert("B", band + 999)
            report = cluster.repair(0, 1)
            assert report["versions"] == len(cluster.get_versions("B"))
            assert cluster.replica_digest(0, 1) == \
                cluster.replica_digest(0, 0)
        finally:
            cluster.close()

    def test_repair_drops_arrays_deleted_cluster_wide(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            # The copy keeps "M" while the cluster drops it: simulate
            # by re-creating the extra array on the copy after the
            # cluster-wide delete.
            record = cluster.replicas[0][1].catalog.get_array("M")
            schema = record.schema
            data = cluster.replicas[0][1].select("M", 1)
            cluster.delete_array("M")
            cluster.replicas[0][1].create_array("M", schema)
            cluster.replicas[0][1].insert("M", data)
            report = cluster.repair(0, 1)
            assert report == {"versions": 0, "bytes": 0}
            assert "M" not in cluster.replicas[0][1].list_arrays()
            assert cluster.replica_digest(0, 1) == \
                cluster.replica_digest(0, 0)
        finally:
            cluster.close()

    def test_repair_preserves_lineage_kinds(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            cluster.replace_replica(0, 0)
            cluster.revive(0, 0, repair=True)
            repaired = cluster.replicas[0][0]
            peer = cluster.replicas[0][1]
            for name in cluster.list_arrays():
                r_id = repaired.catalog.get_array(name).array_id
                p_id = peer.catalog.get_array(name).array_id
                repaired_rows = [
                    (row.version, row.parent_version, row.kind,
                     repaired.catalog.merge_parents_of(r_id, row.version))
                    for row in repaired.catalog.get_versions(r_id)]
                peer_rows = [
                    (row.version, row.parent_version, row.kind,
                     peer.catalog.merge_parents_of(p_id, row.version))
                    for row in peer.catalog.get_versions(p_id)]
                assert repaired_rows == peer_rows
            kinds = {row[2] for name in cluster.list_arrays()
                     for row in cluster.lineage(name)}
            assert kinds == {"insert", "branch-root", "merge"}
        finally:
            cluster.close()
