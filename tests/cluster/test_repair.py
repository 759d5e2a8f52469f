"""Anti-entropy repair and verified revive (the 24/7-operations story).

A dead mark only ever meant "skip this copy"; the bytes behind it may
have rotted, been wiped, or diverged.  These tests pin the contract
that closes that gap:

* per-copy *logical* digests agree across replicas of a band (and stay
  invariant under per-copy physical reorganization — placement and
  timestamps are explicitly outside the digest);
* copies are compared by their *stored* digests first, which decode
  nothing, and by logical digests only when the two store their
  versions differently — and that fast path never calls differing
  contents "in sync";
* ``revive`` / ``revive_node`` verify the digest against live peers
  and either refuse loudly or auto-repair — a data-less replica never
  rejoins rotation silently;
* ``repair`` resyncs a stale or blank copy by shipping its peer's
  stored bytes — decoding and encoding nothing — ships *only* the
  missing tail of a strict-prefix copy, rebuilds anything else from
  scratch, leaves the copy stored-identical to the peer it shipped
  from, preserves lineage kinds exactly, commits each array's
  shipment in one swap (a fault before it commits nothing), and proves
  convergence before returning;
* the ``repairs`` / ``repaired_versions`` / ``repair_bytes`` counters
  account exactly for what was shipped.
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter

import numpy as np
import pytest

from catalog_oracle import assert_catalog_matches_sql
from repro.cluster import ClusterCoordinator
from repro.core.errors import StorageError
from repro.core.schema import ArraySchema
from repro.storage import FaultInjectingBackend, InMemoryBackend
from repro.storage.pipeline import DecodePipeline

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


def _flip_last_payload_byte(manager, name: str, version: int) -> None:
    """Corrupt one stored payload of ``name@version`` in place: the
    last byte of its first chunk's payload (cell data, past every
    header) is inverted and the object written back."""
    record = manager.catalog.get_array(name)
    location = manager.catalog.chunks_for_version(
        record.array_id, version)[0].location
    end = max(chunk.location.offset + chunk.location.length
              for chunk in manager.catalog.all_chunks(record.array_id)
              if chunk.location.path == location.path)
    stored = bytearray(manager.backend.read(location.path, 0, end))
    stored[location.offset + location.length - 1] ^= 0xFF
    manager.backend.write(location.path, bytes(stored))


@pytest.fixture
def decodes(monkeypatch) -> Counter:
    """Counts ``read_region`` calls — every decode's one entry — on
    every manager, keyed by (``id`` of its decode pipeline, method)."""
    calls: Counter = Counter()
    for method in ("read_region",):
        original = getattr(DecodePipeline, method)

        def counted(self, *args, _method=method, _original=original,
                    **kwargs):
            calls[id(self), _method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(DecodePipeline, method, counted)
    return calls


def _copy_digest(cluster, node: int, replica: int,
                 name: str | None = None) -> str:
    """One band copy's logical digest: the ``version_digests`` of each
    array in the cluster's registry (or of ``name`` alone), with a
    marker for an array the copy lacks or holds though the cluster
    does not."""
    manager = cluster.replicas[node][replica]
    held = set(manager.list_arrays())
    names = [name] if name is not None else cluster.list_arrays()
    parts = [manager.version_digests(array) if array in held
             else f"missing:{array}" for array in names]
    if name is None:
        parts += [f"extra:{array}" for array in sorted(held - set(names))]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _assert_stored_identical(cluster, copy: tuple[int, int],
                             source: tuple[int, int]) -> None:
    """Band copy ``copy`` stores exactly what ``source`` stores: every
    array in the cluster's registry has equal stored digests."""
    held = cluster.replicas[copy[0]][copy[1]]
    peer = cluster.replicas[source[0]][source[1]]
    for name in cluster.list_arrays():
        assert held.stored_digests(name) == peer.stored_digests(name)


class TestReplicaDigest:
    def test_digests_agree_across_copies(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            for node in range(cluster.nodes):
                digests = {_copy_digest(cluster, node, replica)
                           for replica in range(cluster.replication)}
                assert len(digests) == 1
                for name in cluster.list_arrays():
                    per_array = {
                        _copy_digest(cluster, node, replica, name)
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
            before = _copy_digest(cluster, 0, 0)
            # Re-layout only one copy of band 0: the copies' physical
            # fingerprints now differ, their logical digests must not.
            cluster.replicas[0][0].reorganize("A", mode="head")
            assert _copy_digest(cluster, 0, 0) == before
            assert _copy_digest(cluster, 0, 0) == \
                _copy_digest(cluster, 0, 1)
        finally:
            cluster.close()

    def test_digest_differs_when_contents_differ(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            cluster.replicas[0][1].delete_version("B", 2)
            assert _copy_digest(cluster, 0, 1) != \
                _copy_digest(cluster, 0, 0)
        finally:
            cluster.close()


    @pytest.mark.parametrize("dtype", [np.int32, np.bool_, np.float64])
    def test_digests_hash_what_tobytes_would(self, tmp_path, dtype):
        """The digests hash arrays and payloads in place; each must
        equal the same digest taken over ``tobytes()`` / ``bytes()``
        copies."""
        cluster = ClusterCoordinator(tmp_path / "cluster", nodes=2,
                                     replication=2, chunk_bytes=128,
                                     backend="memory")
        try:
            schema = ArraySchema.simple(SHAPE, dtype=dtype)
            cluster.create_array("A", schema)
            rng = np.random.default_rng(7)
            for _ in range(3):
                cluster.insert("A", rng.integers(0, 3, SHAPE).astype(dtype))
            attr = schema.attributes[0].name
            versions = cluster.get_versions("A")
            expected = hashlib.sha256(
                repr(("A", schema.to_dict(), versions)).encode())
            for version in versions:
                expected.update(repr(("A", version, attr)).encode())
                expected.update(
                    cluster.select("A", version).single().tobytes())
            assert cluster.fingerprint() == expected.hexdigest()

            manager = cluster.replicas[0][0]
            record = manager.catalog.get_array("A")
            identity = repr((
                "A", record.schema.to_dict(), record.chunk_bytes,
                record.chunk_shape, record.compressor,
                record.parent_array, record.parent_version)).encode()
            logical, stored = [], []
            for row in manager.catalog.get_versions(record.array_id):
                lineage = (row.version, row.parent_version, row.kind,
                           manager.catalog.merge_parents_of(
                               record.array_id, row.version))
                digest = hashlib.sha256(repr(("A", *lineage)).encode())
                digest.update(
                    manager.select("A", row.version).single().tobytes())
                logical.append((row.version, digest.hexdigest()))
                digest = hashlib.sha256(identity)
                digest.update(repr(lineage).encode())
                for chunk in manager.catalog.chunks_for_version(
                        record.array_id, row.version):
                    payload = bytes(manager.store.read_chunk(chunk.location))
                    digest.update(repr((
                        chunk.attribute, chunk.chunk_name,
                        chunk.delta_codec, chunk.base_version,
                        chunk.compressor, len(payload))).encode())
                    digest.update(payload)
                stored.append((row.version, digest.hexdigest()))
            assert manager.version_digests("A") == logical
            assert manager.stored_digests("A") == stored
        finally:
            cluster.close()

    def test_stored_digests_ignore_placement_not_layout(self, tmp_path,
                                                        decodes):
        """Copies of one history store the same bytes: their stored
        digests agree, a repack (new object names and offsets) leaves
        them alone, and computing them decodes nothing and changes
        nothing.  A re-organized copy stores its versions differently,
        so its stored digests differ while its logical ones agree."""
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            copy, peer = cluster.replicas[0]
            decodes.clear()
            for name in cluster.list_arrays():
                assert copy.stored_digests(name) == \
                    peer.stored_digests(name)
            assert not decodes
            before = copy.fingerprint()
            # Deleting a fresh head compacts: every payload moves.
            copy.insert("A", copy.select("A", 3))
            copy.delete_version("A", 4)
            decodes.clear()
            assert copy.fingerprint() != before  # relocated payloads
            assert copy.stored_digests("A") == peer.stored_digests("A")
            before = copy.fingerprint()
            copy.stored_digests("A")
            assert copy.fingerprint() == before
            assert not decodes
            copy.reorganize("A", mode="head")
            assert copy.stored_digests("A") != peer.stored_digests("A")
            assert copy.version_digests("A") == peer.version_digests("A")
        finally:
            cluster.close()


class TestVerifiedRevive:
    def test_revive_refuses_stale_replica(self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            cluster.replace_replica(1, 0)
            with pytest.raises(StorageError,
                               match="is stale — .* holds arrays"):
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

    def test_revive_of_intact_copy_needs_no_repair(self, tmp_path,
                                                   decodes):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            cluster.mark_dead(2, 1)
            decodes.clear()
            cluster.revive(2, 1)
            assert cluster.dead_replicas() == []
            assert cluster.stats.repairs == 0
            # An intact copy stores exactly its peer's bytes: the
            # stored digests settle it, no manager decodes a version.
            assert not decodes
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
            with pytest.raises(StorageError, match="stale copies .*"
                               "stored digests of 'M' are a strict "
                               "prefix of its peer's"):
                cluster.revive_node(host)
            # No mark cleared — not even for the intact copies.
            assert set(copies) <= set(cluster.dead_replicas())
            cluster.revive_node(host, repair=True)
            assert cluster.dead_replicas() == []
            assert cluster.stats.repairs == 1
            assert cluster.stats.repaired_versions == 1
        finally:
            cluster.close()

    def test_revive_refuses_a_copy_with_a_flipped_payload_byte(
            self, tmp_path):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            reference = cluster.fingerprint()
            cluster.mark_dead(1, 0)
            _flip_last_payload_byte(cluster.replicas[1][0], "A", 1)
            with pytest.raises(StorageError, match="is stale — .*neither "
                               "its stored nor its logical digests"):
                cluster.revive(1, 0)
            assert (1, 0) in set(cluster.dead_replicas())
            cluster.revive(1, 0, repair=True)
            assert cluster.dead_replicas() == []
            assert cluster.stats.repairs == 1
            cluster.mark_dead(1, 1)
            assert cluster.fingerprint() == reference
        finally:
            cluster.close()

    def test_revive_refuses_a_copy_whose_backend_is_dead(self, tmp_path):
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=3, replication=2, chunk_bytes=512,
            backend=lambda root: FaultInjectingBackend(InMemoryBackend()))
        try:
            _workload(cluster)
            cluster.mark_dead(1, 0)
            backend = cluster.replicas[1][0].backend
            backend.mark_dead()
            with pytest.raises(StorageError,
                               match="is stale — .*cannot be read"):
                cluster.revive(1, 0)
            assert (1, 0) in set(cluster.dead_replicas())
            # The substrate comes back intact: the copy rejoins as is.
            backend.revive()
            cluster.revive(1, 0)
            assert cluster.dead_replicas() == []
            assert cluster.stats.repairs == 0
        finally:
            cluster.close()

    def test_revive_of_a_reorganized_copy_falls_back_to_logical_digests(
            self, tmp_path, decodes):
        """A copy re-laid-out while dead stores different bytes for the
        same contents: the stored comparison cannot settle it, the
        logical one does, and the copy rejoins without a repair."""
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            cluster.mark_dead(2, 1)
            copy, peer = cluster.replicas[2][1], cluster.replicas[2][0]
            copy.reorganize("A", mode="head")
            assert copy.stored_digests("A") != peer.stored_digests("A")
            decodes.clear()
            cluster.revive(2, 1)
            assert cluster.dead_replicas() == []
            assert cluster.stats.repairs == 0
            versions = len(cluster.get_versions("A"))
            for manager in (copy, peer):
                assert decodes[id(manager.decoder), "read_region"] == \
                    versions
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
            self, tmp_path, decodes):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            reference = cluster.fingerprint()
            versions = sum(len(cluster.get_versions(name))
                           for name in cluster.list_arrays())
            band_rows = cluster._partitioners["A"].band_of(1).length
            band_bytes = band_rows * SHAPE[1] * np.dtype(np.int32).itemsize
            cluster.replace_replica(1, 0)
            decodes.clear()
            report = cluster.repair(1, 0)
            assert report == {"versions": versions,
                              "bytes": versions * band_bytes}
            # Stored bytes are shipped as stored: no manager decodes a
            # version, and the closing check compares stored bytes.
            assert not decodes
            _assert_stored_identical(cluster, (1, 0), (1, 1))
            assert cluster.stats.repairs == 1
            assert cluster.stats.repaired_versions == versions
            assert cluster.stats.repair_bytes == versions * band_bytes
            cluster.revive(1, 0)
            cluster.mark_dead(1, 1)
            assert cluster.fingerprint() == reference
        finally:
            cluster.close()

    def test_repair_reads_one_snapshot_per_array_from_one_peer(
            self, tmp_path):
        """Shipping *n* versions costs one export per array, from one
        peer, resolved from one catalog snapshot — record, lineage
        rows, chunk rows and payloads alike — not a read per version,
        each free to land on a different peer or committed state."""
        cluster = _cluster(tmp_path, replication=3)
        try:
            _workload(cluster)
            arrays = cluster.list_arrays()
            versions = sum(len(cluster.get_versions(name))
                           for name in arrays)
            cluster.replace_replica(1, 0)
            exports = []
            for replica in (1, 2):
                peer = cluster.replicas[1][replica]
                snapshots = Counter()

                def counted(name, _original=peer.catalog.snapshot,
                            _snapshots=snapshots):
                    _snapshots[name] += 1
                    return _original(name)

                def spied(name, after=0, _original=peer.export_versions,
                          _snapshots=snapshots, _replica=replica):
                    before = _snapshots[name]
                    shipment = _original(name, after)
                    exports.append((_replica, name, after,
                                    _snapshots[name] - before))
                    return shipment

                peer.catalog.snapshot = counted
                peer.export_versions = spied
            report = cluster.repair(1, 0)
            assert report["versions"] == versions > len(arrays)
            assert exports == [(1, name, 0, 1) for name in arrays]
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
                f"tail-shipped)",
                f"repair node=1 replica=0: {rebuilt['versions']} "
                f"versions, {rebuilt['bytes']} bytes (3 arrays rebuilt, "
                f"the rest tail-shipped)"]
        finally:
            cluster.close()

    def test_stale_tail_repair_ships_only_the_missing_versions(
            self, tmp_path, decodes):
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            copy = cluster.replicas[2][1]
            copy.delete_version("A", 3)
            copy.delete_version("B", 2)
            decodes.clear()
            report = cluster.repair(2, 1)
            assert report["versions"] == 2
            assert cluster.stats.repaired_versions == 2
            assert not decodes
            _assert_stored_identical(cluster, (2, 1), (2, 0))
            assert _copy_digest(cluster, 2, 1) == \
                _copy_digest(cluster, 2, 0)
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
            _assert_stored_identical(cluster, (0, 1), (0, 0))
            assert _copy_digest(cluster, 0, 1) == \
                _copy_digest(cluster, 0, 0)
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
            assert _copy_digest(cluster, 0, 1) == \
                _copy_digest(cluster, 0, 0)
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


    def test_stale_copy_repair_against_a_reorganized_peer(self, tmp_path):
        """The peer re-organized, so no stored list is a prefix of the
        other and the copy's versions would name delta bases stored
        differently from the peer's: the whole array is shipped, and
        the copy ends storing exactly the peer's bytes."""
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            copy, peer = cluster.replicas[2][1], cluster.replicas[2][0]
            copy.delete_version("A", 3)
            peer.reorganize("A", mode="head")
            held, source = copy.stored_digests("A"), \
                peer.stored_digests("A")
            assert held != source[:len(held)]
            report = cluster.repair(2, 1)
            versions = len(cluster.get_versions("A"))
            assert report["versions"] == versions
            assert cluster.stats.repaired_versions == versions
            _assert_stored_identical(cluster, (2, 1), (2, 0))
            assert _copy_digest(cluster, 2, 1) == \
                _copy_digest(cluster, 2, 0)
        finally:
            cluster.close()

    @pytest.mark.parametrize("fault", ["placement", "barrier", "swap"])
    def test_fault_mid_repair_commits_no_shipped_version(self, tmp_path,
                                                         fault):
        """A fault while an array ships — in one payload's placement,
        in its barrier, or in its catalog swap — commits none of that
        array's versions: the arrays shipped before it stay, the
        catalog's snapshots still equal its SQL rows, and a retry
        converges on the fault-free store."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=3, replication=2, chunk_bytes=512,
            backend=lambda root: FaultInjectingBackend(InMemoryBackend()))
        try:
            _workload(cluster)
            reference = cluster.fingerprint()
            target = cluster.replace_replica(1, 0)
            # "A" ships first (three versions of one chunk), then "B".
            if fault == "swap":
                original = target.catalog.put_chunks
                swaps = []

                def failing(records, **kwargs):
                    if kwargs.get("create") is not None:
                        # A re-create's array row, not a shipment.
                        return original(records, **kwargs)
                    swaps.append(len(records))
                    if len(swaps) == 2:
                        raise StorageError("injected fault: swap failed")
                    return original(records, **kwargs)

                target.catalog.put_chunks = failing
            else:
                kind, index = {"placement": ("append", 5),
                               "barrier": ("sync", 2)}[fault]
                target.backend.schedule = {**target.backend.schedule,
                                           kind: frozenset({index})}
            with pytest.raises(StorageError, match="injected fault"):
                cluster.repair(1, 0)
            assert target.get_versions("A") == cluster.get_versions("A")
            assert target.get_versions("B") == []
            assert "M" not in target.list_arrays()
            assert cluster.stats.repairs == 0
            assert_catalog_matches_sql(target.catalog)
            report = cluster.repair(1, 0)
            assert report["versions"] == len(cluster.get_versions("B")) \
                + len(cluster.get_versions("M"))
            _assert_stored_identical(cluster, (1, 0), (1, 1))
            assert_catalog_matches_sql(target.catalog)
            cluster.revive(1, 0)
            cluster.mark_dead(1, 1)
            assert cluster.fingerprint() == reference
        finally:
            cluster.close()

    @pytest.mark.parametrize("reorganized", [1, 2])
    def test_rf3_repair_ships_from_one_peer_beside_a_reorganized_one(
            self, tmp_path, reorganized):
        """Two live peers, one re-organized: the copy is compared with
        and shipped from the first peer that serves — only the tail
        when that peer stores what the copy stores, the whole array
        when it is the re-organized one — and ends stored-identical to
        that one peer, not to the other."""
        cluster = _cluster(tmp_path, replication=3)
        try:
            _workload(cluster)
            cluster.mark_dead(0, 0)
            copy = cluster.replicas[0][0]
            copy.delete_version("A", 3)
            cluster.replicas[0][reorganized].reorganize("A", mode="head")
            report = cluster.repair(0, 0)
            assert report["versions"] == (3 if reorganized == 1 else 1)
            _assert_stored_identical(cluster, (0, 0), (0, 1))
            assert copy.stored_digests("A") != \
                cluster.replicas[0][2].stored_digests("A")
            cluster.revive(0, 0)
            assert cluster.dead_replicas() == []
        finally:
            cluster.close()

    def test_first_insert_after_repair_selects_its_base_cold_once(
            self, tmp_path, decodes):
        """A shipped copy holds no hot slot, so the next insert decodes
        its delta base once on that copy (its peer's slot still holds
        the base) — and both copies then store the same bytes."""
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            repaired = cluster.replace_replica(1, 0)
            cluster.repair(1, 0)
            cluster.revive(1, 0)
            data = cluster.select("M", 2).single() + 1
            decodes.clear()
            cluster.insert("M", data)
            peer = cluster.replicas[1][1]
            assert decodes[id(repaired.decoder), "read_region"] == 1
            assert decodes[id(peer.decoder), "read_region"] == 0
            _assert_stored_identical(cluster, (1, 0), (1, 1))
        finally:
            cluster.close()

    def test_repair_that_does_not_converge_names_the_failed_check(
            self, tmp_path):
        """The closing comparison runs after every shipment: a copy
        that still differs fails the repair, naming the comparison
        that failed, and nothing is counted."""
        cluster = _cluster(tmp_path)
        try:
            _workload(cluster)
            target = cluster.replace_replica(1, 0)
            target.import_versions = lambda name, shipment: None
            with pytest.raises(StorageError, match="did not converge: "
                               "neither its stored nor its logical"):
                cluster.repair(1, 0)
            assert cluster.stats.repairs == 0
        finally:
            cluster.close()


class TestCommitFence:
    """A copy whose commit fails is fenced, never undone: the write
    stands when every band committed somewhere, the array's head moves
    only then, and revive/repair heals the fenced copy."""

    @staticmethod
    def _refuse_commits(manager) -> None:
        """Refuse every catalog commit on one copy; ``del
        manager.catalog.put_chunks`` lifts it."""

        def refusing(records, **kwargs):
            raise StorageError("catalog refused the commit")

        manager.catalog.put_chunks = refusing

    def test_a_fenced_commit_heals_by_revive_with_repair(
            self, tmp_path, caplog, fan_width):
        cluster = ClusterCoordinator(tmp_path / "cluster", nodes=3,
                                     replication=2, chunk_bytes=512,
                                     backend="memory")
        try:
            _workload(cluster)
            writes = cluster.stats.replica_writes
            data = np.arange(96, dtype=np.int32).reshape(SHAPE)
            victim = cluster.replicas[1][0]
            self._refuse_commits(victim)
            with caplog.at_level(logging.WARNING, logger="repro.cluster"):
                assert cluster.insert("A", data) == 4
            del victim.catalog.put_chunks
            assert cluster.dead_replicas() == [(1, 0)]
            assert [r.message for r in caplog.records
                    if r.levelno == logging.WARNING] == [
                "fenced replica 0 of node 1: its commit of version 4 of "
                "'A' failed (catalog refused the commit)"]
            # Two of the three redundant copies committed.
            assert cluster.stats.replica_writes == writes + 2
            assert victim.get_versions("A") == [1, 2, 3]
            # The peer serves the version the fenced copy lacks.
            np.testing.assert_array_equal(cluster.select("A", 4).single(),
                                          data)
            with pytest.raises(StorageError, match="marked dead"):
                cluster.insert("A", data + 1)
            repaired = cluster.stats.repaired_versions
            cluster.revive(1, 0, repair=True)
            assert cluster.stats.repaired_versions == repaired + 1
            assert cluster.dead_replicas() == []
            _assert_stored_identical(cluster, (1, 0), (1, 1))
            assert cluster.insert("A", data + 1) == 5
            cluster.mark_dead(1, 1)
            np.testing.assert_array_equal(cluster.select("A", 5).single(),
                                          data + 1)
        finally:
            cluster.close()

    def test_a_band_without_a_commit_keeps_the_head_until_revive(
            self, tmp_path, fan_width):
        cluster = ClusterCoordinator(tmp_path / "cluster", nodes=2,
                                     chunk_bytes=512, backend="memory")
        mirror = ClusterCoordinator(tmp_path / "mirror", nodes=2,
                                    chunk_bytes=512, backend="memory")
        try:
            schema = ArraySchema.simple(SHAPE, dtype=np.int32)
            data = np.arange(96, dtype=np.int32).reshape(SHAPE)
            for target in (cluster, mirror):
                target.create_array("A", schema)
                target.insert("A", data)
            lineage = cluster.lineage("A")
            fingerprint = cluster.fingerprint()
            self._refuse_commits(cluster.replicas[1][0])
            with pytest.raises(StorageError, match=r"band\(s\) \[1\]"):
                cluster.insert("A", data + 1)
            del cluster.replicas[1][0].catalog.put_chunks
            # Band 0 committed v2, band 1 did not: v2 is not published.
            assert cluster.replicas[0][0].get_versions("A") == [1, 2]
            assert cluster.get_versions("A") == [1]
            assert cluster.lineage("A") == lineage
            with pytest.raises(StorageError, match="no published version"):
                cluster.select("A", 2)
            assert cluster.dead_replicas() == [(1, 0)]
            # Band 1's one copy is fenced; once back, the cluster reads
            # exactly as before the failed insert.
            cluster.revive(1)
            assert cluster.fingerprint() == fingerprint
            with pytest.raises(StorageError, match="no published version"):
                cluster.branch("A", 2, "B")
            # The next insert drops band 0's unpublished v2 and lands.
            assert cluster.insert("A", data + 2) == 2
            mirror.insert("A", data + 2)
            np.testing.assert_array_equal(cluster.select("A", 2).single(),
                                          data + 2)
            assert cluster.fingerprint() == mirror.fingerprint()
            assert cluster.lineage("A") == mirror.lineage("A")
        finally:
            cluster.close()
            mirror.close()

    def test_rebalance_leaves_an_unpublished_version_behind(
            self, tmp_path, fan_width):
        cluster = ClusterCoordinator(tmp_path / "cluster", nodes=2,
                                     replication=2, chunk_bytes=512,
                                     backend="memory")
        try:
            _workload(cluster)
            for replica in range(2):
                self._refuse_commits(cluster.replicas[1][replica])
            with pytest.raises(StorageError, match="committed on no"):
                cluster.insert("A", np.zeros(SHAPE, dtype=np.int32))
            for replica in range(2):
                del cluster.replicas[1][replica].catalog.put_chunks
            assert cluster.replicas[0][0].get_versions("A") == [1, 2, 3, 4]
            cluster.revive_node(1)
            cluster.revive_node(0)
            assert cluster.dead_replicas() == []
            lineage = {name: cluster.lineage(name)
                       for name in cluster.list_arrays()}
            fingerprint = cluster.fingerprint()
            cluster.rebalance(3, seed=4)
            assert {name: cluster.lineage(name)
                    for name in cluster.list_arrays()} == lineage
            assert cluster.fingerprint() == fingerprint
            for row in cluster.replicas:
                for manager in row:
                    assert manager.get_versions("A") == [1, 2, 3]
        finally:
            cluster.close()
