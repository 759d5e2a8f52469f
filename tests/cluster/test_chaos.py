"""Chaos suite: the replicated cluster under seeded fault schedules.

Property-style sweeps over node counts x replication factors x
deterministic fault schedules.  Every node (and every replica) runs its
own :class:`FaultInjectingBackend` with a seed derived from the sweep
seed and the node's name, so a cell replays the identical failure
sequence on every run — writes that tear mid-append, barriers that
error, whole nodes that go dark — and the suite asserts the three
cluster invariants the coordinator promises:

* **one fingerprint** — after every fault is retried through, the
  logical cluster fingerprint equals the fault-free reference, across
  every (nodes, replication, seed) cell, after killing a node (with a
  surviving quorum), and across a rebalance;
* **no partial versions** — at any observation point, every replica of
  every band agrees on every array's version list (every copy stages
  before any commits, and a failed stage commits nothing anywhere);
* **exact counter accounting** — ``replica_writes`` counts exactly the
  redundant copies of successful cluster writes, ``failovers`` is zero
  until a copy is dead and positive after, and every injected fault
  the backends report was scheduled.

``REPRO_FAULT_SEED`` (the CI chaos matrix) adds one more seed to the
sweep without touching the defaults.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.cluster import rebalance as rebalance_flow
from repro.core.errors import ReproError, StorageError
from repro.core.schema import ArraySchema
from repro.storage import FaultInjectingBackend, InMemoryBackend

SHAPE = (12, 8)

#: Always-on sweep seeds (kept small so the tier-1 run stays fast);
#: the CI chaos job extends the sweep via REPRO_FAULT_SEED.
BASE_SEEDS = (5, 11)

GRID = [(2, 1), (3, 2), (4, 3)]


def _seeds() -> list[int]:
    seeds = list(BASE_SEEDS)
    env = os.environ.get("REPRO_FAULT_SEED")
    if env:
        extra = int(env)
        if extra not in seeds:
            seeds.append(extra)
    return seeds


def _derived_seed(seed: int, key: str) -> int:
    """A per-node fault seed: deterministic, distinct across nodes."""
    if seed == 0:
        return 0
    derived = (seed * 1000003 + zlib.crc32(key.encode())) % (1 << 31)
    return derived or 1


def _fault_factory(seed: int):
    """A backend factory giving every node its own seeded schedule.

    The key is the node directory relative to the cluster root (e.g.
    ``cluster/node2-r1`` or ``gen1/node0``), so the schedule depends
    only on the sweep seed and the cluster topology — never on where
    pytest put the tmp dir.  A node *rebuilt* at the same path (a
    retried rebalance) comes up fault-free: replacement hardware is
    healthy, and that is also what makes every retry loop terminate.
    """
    counts: dict[str, int] = {}

    def factory(root):
        key = f"{root.parent.parent.name}/{root.parent.name}"
        attempt = counts.get(key, 0)
        counts[key] = attempt + 1
        derived = _derived_seed(seed, key) if attempt == 0 else 0
        return FaultInjectingBackend(InMemoryBackend(), seed=derived)

    return factory


def _retry(op, attempts: int = 120):
    """Drive one cluster write through its finite fault schedule.

    Termination is provable, not hopeful: a failed attempt always
    means at least one scheduled fault *fired*, every (kind, index)
    fires at most once per backend (operation counters are monotonic),
    and a fleet of B backends schedules at most 9B faults — so the
    attempt budget (covering the largest sweep fleet, 12 backends)
    strictly outlasts any schedule.
    """
    last: ReproError | None = None
    for _ in range(attempts):
        try:
            return op()
        except ReproError as exc:
            last = exc
    raise AssertionError(
        f"operation never recovered from injected faults: {last}")


def _workload(cluster: ClusterCoordinator) -> dict[str, np.ndarray]:
    """The deterministic write mix every cell replays: inserts, a
    branch, and a follow-on insert on the branch (5 cluster versions).
    Returns the expected latest contents per array.  After every write
    each band's siblings store exactly their encoder's bytes, however
    many attempts the faults cost."""
    rng = np.random.default_rng(20120401)
    schema = ArraySchema.simple(SHAPE, dtype=np.int32)
    cluster.create_array("A", schema)
    data = rng.integers(0, 100, SHAPE).astype(np.int32)
    for step in range(3):
        payload = data + step
        _retry(lambda: cluster.insert("A", payload))
        _assert_siblings_match_encoders(cluster)
    _retry(lambda: cluster.branch("A", 2, "B"))
    _assert_siblings_match_encoders(cluster)
    branch_head = data * 2
    _retry(lambda: cluster.insert("B", branch_head))
    _assert_siblings_match_encoders(cluster)
    return {"A": data + 2, "B": branch_head}


def _assert_siblings_match_encoders(cluster: ClusterCoordinator) -> None:
    """Every band copy after the first (a sibling, which places the
    band's encoded bytes) stores what the first (its encoder) does."""
    for row in cluster.replicas:
        encoder, *siblings = row
        for name in cluster.list_arrays():
            digests = encoder.stored_digests(name)
            for sibling in siblings:
                assert sibling.stored_digests(name) == digests, name


#: Cluster versions the workload lands: 3 inserts + 1 branch root + 1
#: branch insert.
WORKLOAD_VERSIONS = 5


@pytest.fixture(scope="module")
def reference_fingerprint(tmp_path_factory) -> str:
    """The fault-free cluster fingerprint every chaos cell must hit."""
    cluster = ClusterCoordinator(
        tmp_path_factory.mktemp("reference") / "cluster", nodes=3,
        chunk_bytes=512, backend="memory")
    try:
        _workload(cluster)
        return cluster.fingerprint()
    finally:
        cluster.close()


def _assert_no_partial_versions(cluster: ClusterCoordinator) -> None:
    """Every replica of every band agrees on every version list."""
    for name in cluster.list_arrays():
        lists = {tuple(manager.get_versions(name))
                 for row in cluster.replicas for manager in row}
        assert len(lists) == 1, \
            f"replicas disagree on {name!r} versions: {lists}"


def _assert_matches_mirror(cluster: ClusterCoordinator, root,
                           writes) -> None:
    """The resharded cluster serves what a never-resharded one serves
    after the workload plus ``writes(mirror)``: same fingerprint, same
    lineage rows."""
    mirror = ClusterCoordinator(root, nodes=4, chunk_bytes=512,
                                backend="memory")
    try:
        _workload(mirror)
        writes(mirror)
        assert cluster.fingerprint() == mirror.fingerprint()
        assert {name: cluster.lineage(name)
                for name in cluster.list_arrays()} == \
            {name: mirror.lineage(name) for name in mirror.list_arrays()}
    finally:
        mirror.close()


def _assert_faults_were_scheduled(cluster: ClusterCoordinator) -> None:
    """Exact fault accounting: every injected fault was scheduled, and
    the per-backend counters match the injection logs."""
    for row in cluster.replicas:
        for manager in row:
            backend = manager.backend
            assert isinstance(backend, FaultInjectingBackend)
            assert backend.faults_injected == len(backend.injected)
            for kind, index in backend.injected:
                assert index in backend.schedule[kind]


class TestChaosSweep:
    @pytest.mark.parametrize("nodes,replication", GRID)
    @pytest.mark.parametrize("seed", _seeds())
    def test_one_fingerprint_no_partial_versions(
            self, tmp_path, reference_fingerprint, nodes, replication,
            seed):
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=nodes, replication=replication,
            chunk_bytes=512, backend=_fault_factory(seed))
        try:
            heads = _workload(cluster)
            # The survivors serve exactly the fault-free bytes.
            assert cluster.fingerprint() == reference_fingerprint
            for name, expected in heads.items():
                latest = cluster.get_versions(name)[-1]
                np.testing.assert_array_equal(
                    cluster.select(name, latest).single(), expected)
            _assert_no_partial_versions(cluster)
            _assert_faults_were_scheduled(cluster)
            # Exact replication accounting: every successful cluster
            # version landed one redundant copy per extra replica per
            # band — failed attempts count nothing.
            assert cluster.stats.replica_writes == \
                WORKLOAD_VERSIONS * nodes * (replication - 1)
            # No read ever needed a failover: injected faults target
            # writes, and no copy was dead.
            assert cluster.stats.failovers == 0
        finally:
            cluster.close()

    @pytest.mark.parametrize("seed", _seeds())
    def test_reads_survive_a_dead_node(self, tmp_path,
                                       reference_fingerprint, seed):
        """With replication=2, any single dead host leaves every band
        readable and the fingerprint intact."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=3, replication=2,
            chunk_bytes=512, backend=_fault_factory(seed))
        try:
            _workload(cluster)
            for host in range(cluster.nodes):
                cluster.mark_node_dead(host)
                before = cluster.stats.failovers
                assert cluster.fingerprint() == reference_fingerprint
                assert cluster.stats.failovers > before
                cluster.revive_node(host)
            _assert_no_partial_versions(cluster)
        finally:
            cluster.close()

    @pytest.mark.parametrize("nodes,replication", GRID)
    @pytest.mark.parametrize("seed", _seeds())
    def test_rebalance_under_faults(self, tmp_path,
                                    reference_fingerprint, nodes,
                                    replication, seed):
        """Resharding through faulty substrates either completes with
        an identical fingerprint or aborts without touching the old
        generation — and a retry (onto healthy replacements) lands."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=nodes, replication=replication,
            chunk_bytes=512, backend=_fault_factory(seed))
        try:
            _workload(cluster)
            migrated = _retry(
                lambda: cluster.rebalance(nodes + 1, seed=seed))
            assert cluster.nodes == nodes + 1
            assert migrated > 0
            assert cluster.stats.migrated_chunks == migrated
            assert cluster.fingerprint() == reference_fingerprint
            _assert_no_partial_versions(cluster)
        finally:
            cluster.close()


class TestRepairChaos:
    """Anti-entropy repair under injected faults and mid-repair
    deaths: the one-fingerprint invariant must hold under every
    schedule, and every retry loop must terminate."""

    @pytest.mark.parametrize("nodes,replication",
                             [cell for cell in GRID if cell[1] >= 2])
    @pytest.mark.parametrize("seed", _seeds())
    def test_replacement_resync_under_faults(
            self, tmp_path, reference_fingerprint, nodes, replication,
            seed):
        """A blank replacement repaired through faulty substrates ends
        byte-identical to its peers — the fault-free fingerprint, from
        the repaired copy alone."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=nodes, replication=replication,
            chunk_bytes=512, backend=_fault_factory(seed))
        try:
            _workload(cluster)
            versions_total = sum(len(cluster.get_versions(name))
                                 for name in cluster.list_arrays())
            cluster.replace_replica(0, 0)
            report = _retry(lambda: cluster.repair(0, 0))
            # Retries replay only what is still missing, but the sum
            # over all attempts covers exactly the band's versions.
            assert report["versions"] <= versions_total
            assert cluster.stats.repaired_versions == versions_total
            assert cluster.stats.repairs >= 1
            _retry(lambda: cluster.revive(0, 0))
            for replica in range(1, replication):
                cluster.mark_dead(0, replica)
            assert cluster.fingerprint() == reference_fingerprint
            _assert_no_partial_versions(cluster)
        finally:
            cluster.close()

    def test_peer_dies_mid_repair(self, tmp_path,
                                  reference_fingerprint):
        """The serving peer goes dark *during* the resync, inside a
        shipment fetch; repair fails over to the remaining replica and
        still converges to the fault-free fingerprint."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=3, replication=3,
            chunk_bytes=512, backend=_fault_factory(0))
        try:
            _workload(cluster)
            cluster.replace_replica(0, 0)
            peer = cluster.replicas[0][1]
            original = peer.export_versions
            state = {"exports": 0}

            def dies_on_second_export(name, after=0):
                state["exports"] += 1
                if state["exports"] == 2:
                    # The first peer (the source so far) goes dark
                    # while the next array's shipment is fetched.
                    peer.backend.mark_dead()
                return original(name, after)

            peer.export_versions = dies_on_second_export
            report = cluster.repair(0, 0)
            assert report["versions"] == sum(
                len(cluster.get_versions(name))
                for name in cluster.list_arrays())
            assert cluster.stats.failovers > 0
            # The repaired copy serves the band alone.
            cluster.mark_dead(0, 1)
            cluster.revive(0, 0)
            cluster.mark_dead(0, 2)
            assert cluster.fingerprint() == reference_fingerprint
            _assert_no_partial_versions(cluster)
        finally:
            cluster.close()


class TestRebalanceChaos:
    """Online rebalance under mid-migration deaths and concurrent
    writes."""

    def test_copy_dies_mid_rebalance(self, tmp_path, monkeypatch,
                                     reference_fingerprint):
        """A band copy's substrate dies while its slabs migrate; the
        migration reads fail over to the surviving replica and the
        reshard still lands the fault-free fingerprint."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=3, replication=2,
            chunk_bytes=512, backend=_fault_factory(0))
        try:
            _workload(cluster)
            original = rebalance_flow._migrate_version
            state = {"calls": 0}

            def kill_then_migrate(*args, **kwargs):
                state["calls"] += 1
                if state["calls"] == 2:
                    cluster.replicas[0][0].backend.mark_dead()
                return original(*args, **kwargs)

            monkeypatch.setattr(rebalance_flow, "_migrate_version",
                                kill_then_migrate)
            migrated = cluster.rebalance(4, seed=3)
            assert cluster.nodes == 4
            assert migrated > 0
            assert cluster.stats.migrated_chunks == migrated
            assert cluster.stats.failovers > 0
            assert cluster.fingerprint() == reference_fingerprint
            _assert_no_partial_versions(cluster)
        finally:
            cluster.close()

    def test_writes_during_rebalance_are_caught_up(self, tmp_path,
                                                   monkeypatch):
        """A version inserted *between* catch-up passes (the build is
        outside the write lock, so this is legal) must appear in the
        new generation — the copy-then-catch-up loop's whole point."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=2, replication=2,
            chunk_bytes=512, backend="memory")
        try:
            heads = _workload(cluster)
            late = heads["A"] + 77
            original = rebalance_flow._sync_generation
            state = {"fired": False}

            def insert_between_passes(old, fresh, seed):
                changed = original(old, fresh, seed)
                if not state["fired"]:
                    state["fired"] = True
                    # Fires after the *initial* (unlocked) pass only:
                    # an insert during the final locked pass would be
                    # the deadlock the write lock exists to prevent.
                    cluster.insert("A", late)
                return changed

            monkeypatch.setattr(rebalance_flow, "_sync_generation",
                                insert_between_passes)
            cluster.rebalance(3, seed=1)
            assert state["fired"]
            assert cluster.nodes == 3
            assert cluster.get_versions("A") == [1, 2, 3, 4]
            np.testing.assert_array_equal(
                cluster.select("A", 4).single(), late)
            _assert_no_partial_versions(cluster)
            # The caught-up cluster equals one that took the same
            # writes with no rebalance at all.
            mirror = ClusterCoordinator(
                tmp_path / "mirror", nodes=3, chunk_bytes=512,
                backend="memory")
            try:
                _workload(mirror)
                mirror.insert("A", late)
                assert cluster.fingerprint() == mirror.fingerprint()
            finally:
                mirror.close()
        finally:
            cluster.close()

    def test_array_deleted_mid_pass_is_skipped(self, tmp_path,
                                               monkeypatch):
        """An array deleted while an unlocked catch-up pass runs is
        skipped by that pass, never read, and settled by the next: the
        reshard lands equal to a cluster that took the same writes, and
        no failover is counted."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=3, replication=2,
            chunk_bytes=512, backend="memory")
        try:
            _workload(cluster)
            original = rebalance_flow._migrate_version
            state = {"fired": False}

            def delete_then_migrate(old, name, version, plan, fresh):
                if not state["fired"]:
                    state["fired"] = True
                    cluster.delete_array("B")
                return original(old, name, version, plan, fresh)

            monkeypatch.setattr(rebalance_flow, "_migrate_version",
                                delete_then_migrate)
            failovers = cluster.stats.failovers
            cluster.rebalance(4)
            assert state["fired"]
            assert cluster.nodes == 4
            assert cluster.list_arrays() == ["A"]
            assert cluster.stats.failovers == failovers
            _assert_no_partial_versions(cluster)
            _assert_matches_mirror(cluster, tmp_path / "mirror",
                                   lambda mirror: mirror.delete_array("B"))
        finally:
            cluster.close()

    def test_array_deleted_mid_read_is_skipped(self, tmp_path,
                                               monkeypatch):
        """A delete that lands while a pass's slab read is in flight
        fails that read on every copy; the pass sees the registration
        gone and skips the array instead of sinking the rebalance."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=3, replication=2,
            chunk_bytes=512, backend="memory")
        try:
            _workload(cluster)
            primary = cluster.replicas[0][0]
            original = primary.select_region
            state = {"fired": False}

            def delete_then_read(name, *args):
                if name == "B" and not state["fired"]:
                    state["fired"] = True
                    cluster.delete_array("B")
                return original(name, *args)

            monkeypatch.setattr(primary, "select_region",
                                delete_then_read)
            cluster.rebalance(4)
            assert state["fired"]
            assert cluster.nodes == 4
            assert cluster.list_arrays() == ["A"]
            _assert_no_partial_versions(cluster)
            _assert_matches_mirror(cluster, tmp_path / "mirror",
                                   lambda mirror: mirror.delete_array("B"))
        finally:
            cluster.close()

    @pytest.mark.parametrize("versions", [0, 1])
    def test_array_recreated_mid_pass_is_rebuilt(self, tmp_path,
                                                 monkeypatch, versions):
        """An array deleted and re-created under the same name while
        an unlocked pass migrates it is skipped by that pass and rebuilt
        by the next — record, lineage and contents of the new array,
        never a mix — with no failover counted.  With no versions, only
        the record (a plain array, no longer a branch) tells them
        apart."""
        schema = ArraySchema.simple(SHAPE, dtype=np.int32)
        late = np.arange(np.prod(SHAPE), dtype=np.int32).reshape(SHAPE)

        def recreate_b(target):
            target.delete_array("B")
            target.create_array("B", schema)
            for step in range(versions):
                target.insert("B", late + step)

        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=3, replication=2,
            chunk_bytes=512, backend="memory")
        try:
            _workload(cluster)
            original = rebalance_flow._migrate_version
            state = {"fired": False}

            def recreate_then_migrate(old, name, version, plan, fresh):
                if name == "B" and not state["fired"]:
                    state["fired"] = True
                    recreate_b(cluster)
                return original(old, name, version, plan, fresh)

            monkeypatch.setattr(rebalance_flow, "_migrate_version",
                                recreate_then_migrate)
            failovers = cluster.stats.failovers
            cluster.rebalance(4)
            assert state["fired"]
            assert cluster.nodes == 4
            assert cluster.stats.failovers == failovers
            _assert_no_partial_versions(cluster)
            _assert_matches_mirror(cluster, tmp_path / "mirror",
                                   recreate_b)
            origins = {(record.parent_array, record.parent_version)
                       for row in cluster.replicas for manager in row
                       for record in [manager.catalog.get_array("B")]}
            assert origins == {(None, None)}
        finally:
            cluster.close()

    def test_lineage_kinds_survive_reshard(self, tmp_path):
        """Post-reshard lineage rows — kinds, parent links, merge
        parents — match pre-reshard byte-for-byte."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=2, replication=2,
            chunk_bytes=512, backend="memory")
        try:
            _workload(cluster)
            cluster.merge([("A", 3), ("B", 2)], "M")
            before = {name: cluster.lineage(name)
                      for name in cluster.list_arrays()}
            fingerprint = cluster.fingerprint()
            cluster.rebalance(4, seed=9)
            after = {name: cluster.lineage(name)
                     for name in cluster.list_arrays()}
            assert after == before
            assert cluster.fingerprint() == fingerprint
            kinds = {row[2] for rows in before.values() for row in rows}
            assert kinds == {"insert", "branch-root", "merge"}
        finally:
            cluster.close()


class TestDeadNodeWrites:
    def test_write_to_dead_node_leaves_no_trace(self, tmp_path):
        """A cluster write that hits a dead copy fails atomically —
        every live replica stays at the old head — and lands cleanly
        after the node revives."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=3, replication=2,
            chunk_bytes=512, backend="memory")
        try:
            heads = _workload(cluster)
            cluster.mark_node_dead(1)
            with pytest.raises(StorageError):
                cluster.insert("A", heads["A"] + 1)
            _assert_no_partial_versions(cluster)
            assert cluster.get_versions("A") == [1, 2, 3]
            cluster.revive_node(1)
            assert cluster.insert("A", heads["A"] + 1) == 4
            np.testing.assert_array_equal(
                cluster.select("A", 4).single(), heads["A"] + 1)
        finally:
            cluster.close()

    def test_quorum_loss_fails_loudly(self, tmp_path):
        """When every copy of a band is dead, reads raise instead of
        serving stale or partial data."""
        cluster = ClusterCoordinator(
            tmp_path / "cluster", nodes=2, replication=2,
            chunk_bytes=512, backend="memory")
        try:
            _workload(cluster)
            cluster.mark_dead(0, 0)
            cluster.mark_dead(0, 1)
            with pytest.raises(StorageError, match="no live replica"):
                cluster.select("A", 1)
        finally:
            cluster.close()
