"""A multi-node deployment of the versioned storage system (Section II).

"The query processor receives a declarative query or update from a
front end ... The query processor translates this command into a
collection of commands to update or query specific versions in the
storage system.  Each array may be partitioned across several storage
system nodes, and each machine runs its own instance of the storage
system."

:class:`ClusterCoordinator` is that query-processor-side fan-out: it
partitions every array into bands (one per node), runs independent
:class:`~repro.storage.manager.VersionedStorageManager` instances per
node — each node delta-encodes *its own* partition locally, exactly as
the paper states — and reassembles query results.  All single-node
semantics (no-overwrite, branches, layout re-organization) apply per
node.

Beyond the paper's single-copy picture, the coordinator makes node
loss and cluster growth first-class:

* **Replication** — ``replication=R`` keeps R identical copies of
  every band, each in its own manager.  Writes fan to every replica
  and are all-or-nothing across the whole (band x replica) grid: the
  settle-all-then-compensate rollback deletes whatever landed if any
  copy fails, so a failed replica write leaves no catalog trace on any
  node.  Reads are served by the first live replica and *fail over*
  to the next on error (``IOStats.failovers`` counts every hop, and
  ``IOStats.replica_writes`` every redundant copy landed).  Replica
  ``r`` of band ``b`` is hosted on physical node ``(b + r) % nodes``
  (chained declustering), so :meth:`mark_node_dead` takes out one
  primary *and* one neighbor's replica — the classic failure shape.
* **Rebalancing** — :meth:`rebalance` reshards every array onto a new
  node count *online*: a deterministic
  :func:`~repro.cluster.partitioning.rebalance_plan` maps old bands to
  new ones, slab reads (failover-capable, so a rebalance can evacuate
  a cluster with dead replicas as long as a quorum survives) rebuild
  each new band, and every version replays — lineage kinds, parent
  links, and merge parents preserved — into a fresh manager
  generation under ``root/gen<k>`` while the old generation keeps
  serving.  Versions written mid-migration are absorbed by a
  copy-then-catch-up loop; only the final catch-up pass and the
  generation swap run under the cluster write lock.  The cluster
  fingerprint is byte-identical before and after;
  ``IOStats.migrated_chunks`` counts the placements the resharding
  performed.
* **Anti-entropy repair** — every band copy exposes a *logical* digest
  (schema + lineage rows + reassembled payload bytes; timestamps and
  physical placement excluded, since replicas legitimately diverge in
  both).  :meth:`repair` compares a copy's per-version digests against
  its live peers and resyncs the stale or empty tail version-by-
  version through the managers' transactional write path, and
  :meth:`revive` / :meth:`revive_node` verify the digest before
  clearing a dead mark — a revived replica is either provably
  byte-identical to its peers or loudly refused (``repair=True``
  auto-repairs instead).  ``IOStats.repairs`` / ``repaired_versions``
  / ``repair_bytes`` account the resync work.
"""

from __future__ import annotations

import hashlib
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.cluster.partitioning import RangePartitioner, rebalance_plan
from repro.core.array import ArrayData, Payload
from repro.core.errors import ReproError, StorageError
from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.storage.backend import StorageBackend
from repro.storage.iostats import IOStats
from repro.storage.manager import VersionedStorageManager
from repro.storage.pipeline import resolve_workers

#: How many times a compensating undo (delete of a landed version or
#: array) is retried before the rollback gives up on that replica.
#: The retry matters under fault injection: the undo itself can hit an
#: injected fault, and a finite fault schedule is outlasted by a short
#: retry loop — giving up after one attempt would leave a node out of
#: step, the one state the write path promises never to expose.
COMPENSATION_ATTEMPTS = 4

#: How many unlocked catch-up passes an online rebalance runs before
#: taking the write lock for the final pass.  The bound only limits
#: how much write traffic is absorbed *without* blocking writers —
#: convergence never depends on it, because the final pass runs with
#: writes excluded and therefore syncs against a frozen cluster in
#: one sweep.
REBALANCE_CATCHUP_PASSES = 8


class _ReshardedMidWrite(StorageError):
    """A write's pre-sliced payload raced an online rebalance's
    generation swap; the caller re-slices against the new topology
    and retries."""


class _Generation:
    """One adopted fleet of band replicas plus its routing state.

    Everything a read needs — the replica grid, the node count, and
    the per-array partitioners/schemas — swaps *together* at the end
    of a rebalance, so readers capture one ``_Generation`` (a single
    attribute load) and see a consistent topology no matter when the
    swap lands.  The pin count lets the rebalance drain in-flight
    reads before closing and deleting the old generation's managers:
    a read that started against gen *k* finishes against gen *k*.
    """

    def __init__(self, replicas: list[list[VersionedStorageManager]],
                 nodes: int,
                 partitioners: "dict[str, RangePartitioner]",
                 schemas: "dict[str, ArraySchema]",
                 number: int):
        self.replicas = replicas
        self.nodes = nodes
        self.partitioners = partitioners
        self.schemas = schemas
        self.number = number
        self._pins = 0
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)

    def pin(self) -> None:
        with self._lock:
            self._pins += 1

    def unpin(self) -> None:
        with self._lock:
            self._pins -= 1
            if self._pins == 0:
                self._drained.notify_all()

    def wait_drained(self) -> None:
        """Block until no read holds a pin on this generation."""
        with self._lock:
            while self._pins:
                self._drained.wait()


class ClusterCoordinator:
    """Fans array operations out to per-node storage managers.

    ``backend`` selects the byte substrate of every node: a registry
    name or spec (``"local"``, ``"memory"``, ``"object[:durable]"``,
    ``"striped:<n>[:<child>]"``, ``"faulty:<seed>[:<inner>]"``) or a
    factory called with each node's root, so every node gets its *own*
    backend instance — an all-in-memory cluster (``backend="memory"``)
    simulates multi-node behaviour with zero disk I/O, and a factory
    returning seeded
    :class:`~repro.storage.backend.FaultInjectingBackend` wrappers is
    how the chaos suite gives every node its own deterministic failure
    schedule.  A ready backend instance is rejected because the nodes
    must not share state.

    ``replication`` keeps that many copies of every band (each copy a
    full manager with its own catalog and backend); it may not exceed
    the node count — more copies than hosts would stack replicas on
    the same failure domain.

    ``workers`` is per-node parallelism: each node's manager fans its
    chunk encodes and reconstructions across its own executors, and
    the coordinator additionally fans *node-level* work concurrently —
    region selects query the overlapping nodes in parallel, and
    ``insert``/``branch``/``merge`` run every replica's write at once
    (the replicas are fully independent storage systems, so node-level
    fan-out needs no extra locking).

    The coordinator owns a cluster-level :class:`IOStats` (``stats``)
    for the replication counters: ``failovers``, ``replica_writes``,
    and ``migrated_chunks``.  Per-node byte counters stay on each
    manager (:meth:`node_stats`).
    """

    def __init__(self, root: str | Path, nodes: int = 4, *,
                 replication: int = 1, partition_axis: int = 0,
                 backend=None, workers: int | None = None,
                 **manager_kwargs):
        if nodes < 1:
            raise StorageError("a cluster needs at least one node")
        if replication < 1:
            raise StorageError("replication factor must be >= 1")
        if replication > nodes:
            raise StorageError(
                f"replication={replication} exceeds the node count "
                f"({nodes}); extra copies would share failure domains")
        if isinstance(backend, StorageBackend):
            raise StorageError(
                "a cluster needs one backend per node; pass a backend"
                " name or factory, not a shared instance")
        self.workers = resolve_workers(workers)
        self.root = Path(root)
        self.replication = replication
        self.partition_axis = partition_axis
        self.stats = IOStats()
        # Remembered for rebalance: a new manager generation is built
        # with the same substrate and per-manager configuration.
        self._backend_spec = backend
        self._manager_kwargs = dict(manager_kwargs)
        self._generation = 0
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        # Serializes cluster writes against each other and against the
        # rebalance swap; reads never take it (they pin a generation).
        self._write_lock = threading.Lock()
        # Serializes the long-running maintenance flows (repair,
        # rebalance) against each other.
        self._maintenance_lock = threading.Lock()
        self._dead: set[tuple[int, int]] = set()
        self._live = _Generation([], nodes, {}, {}, 0)
        try:
            for node in range(nodes):
                row: list[VersionedStorageManager] = []
                self._live.replicas.append(row)
                for replica in range(replication):
                    row.append(VersionedStorageManager(
                        self._node_root(node, replica),
                        backend=backend,
                        workers=self.workers,
                        **manager_kwargs))
        except BaseException:
            # A half-built cluster must not leak the managers (and
            # their executors / SQLite handles) that did come up — and
            # a close failure during that cleanup must not mask the
            # error that actually sank the construction.
            self._close_managers(suppress=True)
            raise

    # ------------------------------------------------------------------
    # Generation plumbing: reads pin one consistent topology
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> list[list[VersionedStorageManager]]:
        """``replicas[band][r]`` is copy ``r`` of band ``band`` (of the
        currently adopted generation)."""
        return self._live.replicas

    @property
    def nodes(self) -> int:
        return self._live.nodes

    @property
    def _partitioners(self) -> "dict[str, RangePartitioner]":
        return self._live.partitioners

    @property
    def _schemas(self) -> "dict[str, ArraySchema]":
        return self._live.schemas

    @contextmanager
    def _pinned(self):
        """Pin the live generation for the duration of one read.

        The yielded :class:`_Generation` is immutable topology-wise
        for the reader's purposes: a concurrent rebalance may adopt a
        successor at any time, but it waits for every pin to drop
        before closing the pinned generation's managers — so a read
        that started against gen *k* always finishes against gen *k*.
        """
        gen = self._live
        gen.pin()
        try:
            yield gen
        finally:
            gen.unpin()

    @property
    def managers(self) -> list[VersionedStorageManager]:
        """The primary (replica 0) manager of every band — the
        single-copy view that predates replication."""
        return [row[0] for row in self.replicas]

    def _node_root(self, node: int, replica: int) -> Path:
        # Replica 0 keeps the historical ``root/node<i>`` layout so a
        # replication=1 cluster is on-disk identical to earlier ones.
        leaf = f"node{node}" if replica == 0 else f"node{node}-r{replica}"
        return self.root / leaf

    # ------------------------------------------------------------------
    # Failure-domain controls
    # ------------------------------------------------------------------
    def host_of(self, node: int, replica: int) -> int:
        """The physical host of one band copy (chained declustering):
        replica ``r`` of band ``b`` lives on host ``(b + r) % nodes``,
        so each host carries its own band plus neighbors' replicas."""
        return (node + replica) % self.nodes

    def mark_dead(self, node: int, replica: int = 0) -> None:
        """Take one band copy offline: reads skip it (a failover),
        writes to it fail the whole operation."""
        self._check_pair(node, replica)
        self._dead.add((node, replica))

    def revive(self, node: int, replica: int = 0, *,
               repair: bool = False) -> None:
        """Bring one band copy back into rotation — *verified*.

        A dead mark only ever meant "skip this copy"; the copy behind
        it may have missed writes, been wiped and replaced, or be
        perfectly intact.  Revive therefore compares the copy's
        logical digest against a live peer replica of the same band
        before clearing the mark: an in-sync copy rejoins silently, a
        stale (or unreadable) one either auto-repairs
        (``repair=True``) or fails loudly without clearing the mark —
        a data-less replica must never serve reads.  With
        ``replication=1`` there is no peer to verify against, so the
        mark clears unverified (as it must: the copy *is* the band).
        """
        self._check_pair(node, replica)
        peers = self._live_peers(node, replica)
        if peers and not self._replica_in_sync(node, replica, peers):
            if not repair:
                raise StorageError(
                    f"replica {replica} of node {node} is stale: its "
                    f"logical digest does not match its live peers'; "
                    f"repair(node, replica) it first or revive with "
                    f"repair=True")
            self.repair(node, replica)
        self._dead.discard((node, replica))

    def mark_node_dead(self, host: int) -> None:
        """Kill one physical host: every band copy it carries goes
        offline at once (its own primary and the neighbors' replicas
        it hosts)."""
        for node, replica in self._copies_on(host):
            self._dead.add((node, replica))

    def revive_node(self, host: int, *, repair: bool = False) -> None:
        """Bring every band copy on one physical host back — verified,
        all-or-nothing: each copy's digest is checked against its live
        peers first (see :meth:`revive`), and if any copy is stale the
        whole revive refuses (or, with ``repair=True``, resyncs the
        stale copies) before a single mark clears — a host never
        rejoins half-trustworthy."""
        copies = self._copies_on(host)
        stale = []
        for node, replica in copies:
            peers = self._live_peers(node, replica)
            if peers and not self._replica_in_sync(node, replica, peers):
                stale.append((node, replica))
        if stale and not repair:
            raise StorageError(
                f"host {host} has stale copies {stale}: their logical "
                f"digests do not match their live peers'; repair them "
                f"first or revive_node with repair=True")
        for node, replica in stale:
            self.repair(node, replica)
        for node, replica in copies:
            self._dead.discard((node, replica))

    def _live_peers(self, node: int, replica: int) -> list[int]:
        """The other replicas of one band that are not marked dead —
        the candidate repair sources / verification witnesses."""
        return [r for r in range(self.replication)
                if r != replica and (node, r) not in self._dead]

    def _replica_in_sync(self, node: int, replica: int,
                         peers: list[int]) -> bool:
        """Whether one band copy's registry-scoped logical digest
        matches the first live peer that can serve the comparison.
        An unreadable target counts as out of sync; no serving peer
        counts as in sync (recovery must not deadlock on an
        unverifiable cluster)."""
        try:
            target = self._registry_digest(self.replicas[node][replica])
        except ReproError:
            return False
        for peer in peers:
            try:
                return target == \
                    self._registry_digest(self.replicas[node][peer])
            except ReproError:
                self.stats.record_failover()
        return True

    def dead_replicas(self) -> list[tuple[int, int]]:
        """The (band, replica) copies currently marked offline."""
        return sorted(self._dead)

    def _copies_on(self, host: int) -> list[tuple[int, int]]:
        if not 0 <= host < self.nodes:
            raise StorageError(
                f"no node {host} (cluster has {self.nodes})")
        return [(node, replica)
                for node in range(self.nodes)
                for replica in range(self.replication)
                if self.host_of(node, replica) == host]

    def _check_pair(self, node: int, replica: int) -> None:
        if not 0 <= node < self.nodes or \
                not 0 <= replica < self.replication:
            raise StorageError(
                f"no replica ({node}, {replica}) (cluster has "
                f"{self.nodes} nodes x {self.replication} replicas)")

    def _check_writable(self, node: int, replica: int) -> None:
        if (node, replica) in self._dead:
            raise StorageError(
                f"replica {replica} of node {node} is marked dead")

    def _check_all_writable(self) -> None:
        """Array-lifecycle writes touch every copy; any dead one fails
        the operation before the first copy changes."""
        if self._dead:
            node, replica = min(self._dead)
            self._check_writable(node, replica)

    # ------------------------------------------------------------------
    # Anti-entropy repair
    # ------------------------------------------------------------------
    def replica_digest(self, node: int, replica: int = 0,
                       name: str | None = None) -> str:
        """The *logical* digest of one band copy.

        Covers one array's band, or (``name=None``) every registered
        array — schema, lineage rows (version, parent, kind, merge
        parents), and reassembled payload bytes, hashed per
        :meth:`VersionedStorageManager.logical_digest`.  Timestamps
        and physical placement are excluded, because replicas
        legitimately diverge in both (each copy stamps its own clock
        and may ``reorganize`` independently); equal digests mean the
        copies answer every select and lineage query identically.
        """
        self._check_pair(node, replica)
        manager = self.replicas[node][replica]
        if name is not None:
            self._partitioner(name)
            return manager.logical_digest(name)
        return self._registry_digest(manager)

    def _registry_digest(self, manager: VersionedStorageManager) -> str:
        """One copy's digest over the coordinator's array registry —
        the comparison is anchored to the *cluster's* array set, so a
        copy that is missing an array (or that still holds one deleted
        cluster-wide) digests differently instead of raising."""
        digest = hashlib.sha256()
        held = set(manager.list_arrays())
        for array_name in self.list_arrays():
            if array_name in held:
                digest.update(
                    manager.logical_digest(array_name).encode())
            else:
                digest.update(f"missing:{array_name}".encode())
        for extra in sorted(held - set(self.list_arrays())):
            digest.update(f"extra:{extra}".encode())
        return digest.hexdigest()

    def repair(self, node: int, replica: int = 0) -> dict:
        """Resync one stale or empty band copy from its live peers.

        Per-array, the copy's per-version logical digests are compared
        against the first live peer replica that can serve (peer reads
        fail over); a copy whose digest list is a strict prefix of its
        peer's replays only the missing tail, a diverged or unreadable
        copy is dropped and rebuilt in full, and arrays deleted
        cluster-wide while the copy was dead are dropped from it.
        Every replayed version goes through the managers' transactional
        write path with its *source* lineage row — kind, parent link,
        merge parents, timestamp — so the repaired copy answers
        lineage queries identically to its peers, which the closing
        digest verification proves before the method returns.

        The copy should be marked dead while it is repaired (the
        revive flow does this naturally): cluster writes refuse while
        any copy is dead, so no version can land mid-resync.  Repair
        under fault injection raises mid-way and is simply retried —
        every landed version is transactional, so retries converge on
        the missing tail.  Returns ``{"versions": n, "bytes": n}``
        (also recorded in ``stats.repairs`` / ``repaired_versions`` /
        ``repair_bytes`` when any version was replayed).
        """
        self._check_pair(node, replica)
        peers = self._live_peers(node, replica)
        if not peers:
            raise StorageError(
                f"no live peer replica of node {node} to repair "
                f"replica {replica} from "
                f"(replication={self.replication})")
        with self._maintenance_lock:
            return self._repair_locked(node, replica, peers)

    def _repair_locked(self, node: int, replica: int,
                       peers: list[int]) -> dict:
        target = self.replicas[node][replica]

        def from_peer(op):
            last_error = None
            for peer in peers:
                try:
                    return op(self.replicas[node][peer])
                except ReproError as exc:
                    last_error = exc
                    self.stats.record_failover()
            raise StorageError(
                f"no live peer replica of node {node} could serve a "
                f"repair read") from last_error

        replayed = 0
        replayed_bytes = 0
        registry = self.list_arrays()
        for extra in sorted(set(target.list_arrays()) - set(registry)):
            # Deleted cluster-wide while this copy was dead.
            target.delete_array(extra)
        for name in registry:
            source_digests = from_peer(
                lambda m: m.version_digests(name))
            try:
                target_digests = target.version_digests(name)
            except ReproError:
                target_digests = None
            if target_digests == source_digests:
                continue
            if target_digests is not None and \
                    target_digests != source_digests[:len(target_digests)]:
                # Diverged beyond a stale tail: rebuild from scratch.
                target.delete_array(name)
                target_digests = None
            record = from_peer(lambda m: m.catalog.get_array(name))
            if target_digests is None:
                target.create_array(
                    name, record.schema,
                    chunk_bytes=record.chunk_bytes,
                    compressor=record.compressor,
                    chunk_shape=record.chunk_shape,
                    parent_array=record.parent_array,
                    parent_version=record.parent_version)
                target_digests = []
            for version, _ in source_digests[len(target_digests):]:
                row = from_peer(lambda m: m.catalog.get_version(
                    m.catalog.get_array(name).array_id, version))
                parents = from_peer(lambda m: m.catalog.merge_parents_of(
                    m.catalog.get_array(name).array_id, version))
                data = from_peer(lambda m: m.select(name, version))
                target.replay_version(
                    name, data, version=version, kind=row.kind,
                    parent_version=row.parent_version,
                    timestamp=row.timestamp,
                    merge_parents=parents or None)
                replayed += 1
                replayed_bytes += sum(
                    data.attribute(attr.name).nbytes
                    for attr in record.schema.attributes)
        # The whole point is a *provably* identical copy: verify the
        # registry digest against a live peer before reporting success.
        if not self._replica_in_sync(node, replica, peers):
            raise StorageError(
                f"repair of replica {replica} of node {node} did not "
                f"converge: logical digest still differs from its "
                f"live peers'")
        if replayed:
            self.stats.record_repair(replayed, replayed_bytes)
        return {"versions": replayed, "bytes": replayed_bytes}

    def replace_replica(self, node: int, replica: int = 0
                        ) -> VersionedStorageManager:
        """Swap one band copy for blank replacement hardware.

        The old manager is closed and its on-disk root removed; a
        fresh, empty manager comes up at the same root (same backend
        spec and per-manager configuration) and the copy is marked
        dead — it holds nothing yet, so it must not serve.  The
        operational sequence is ``replace_replica`` → :meth:`repair`
        (or ``revive(..., repair=True)``) → :meth:`revive`.
        """
        self._check_pair(node, replica)
        old = self.replicas[node][replica]
        root = old.root
        old.close()
        if root.exists():
            shutil.rmtree(root)
        fresh = VersionedStorageManager(
            root, backend=self._backend_spec, workers=self.workers,
            **self._manager_kwargs)
        self.replicas[node][replica] = fresh
        self._dead.add((node, replica))
        return fresh

    def lineage(self, name: str) -> list[tuple]:
        """The array's lineage rows, served with failover:
        ``(version, parent_version, kind, merge_parents)`` per
        version, in version order.  Rebalance and repair preserve
        these exactly (timestamps excluded — every replica stamps its
        own clock)."""
        self._partitioner(name)

        def rows(manager: VersionedStorageManager) -> list[tuple]:
            record = manager.catalog.get_array(name)
            return [
                (row.version, row.parent_version, row.kind,
                 tuple(manager.catalog.merge_parents_of(record.array_id,
                                                        row.version)))
                for row in manager.catalog.get_versions(record.array_id)]

        return self._read_any(rows)

    # ------------------------------------------------------------------
    # Array lifecycle
    # ------------------------------------------------------------------
    def create_array(self, name: str, schema: ArraySchema,
                     **kwargs) -> None:
        """Create the array's partition on every band copy.

        All-or-nothing like the other cluster writes: dead copies fail
        the operation up front, and a copy that errors mid-creation
        (a full disk, a refused catalog) rolls the array back off
        every copy that already created it — no replica keeps a
        partition the others lack."""
        with self._write_lock:
            partitioner = RangePartitioner(schema.shape, self.nodes,
                                           axis=self.partition_axis)
            self._check_all_writable()
            created: list[VersionedStorageManager] = []
            try:
                for node in range(self.nodes):
                    band_schema = _band_schema(
                        schema, partitioner.local_shape(node))
                    for manager in self.replicas[node]:
                        manager.create_array(name, band_schema, **kwargs)
                        created.append(manager)
            except BaseException:
                for manager in created:
                    self._compensate(manager.delete_array, name)
                raise
            self._partitioners[name] = partitioner
            self._schemas[name] = schema

    def delete_array(self, name: str) -> None:
        """Drop the array from every copy — convergently.

        A delete cannot be compensated (the bytes are gone), so the
        path is *retryable* instead of all-or-nothing: coordinator-
        marked dead copies fail it up front, every remaining copy is
        attempted even when one errors (a copy already missing the
        array counts as deleted — idempotence), and the name stays
        registered until every copy has dropped it, so a failed
        attempt is simply retried once the sick copy recovers.
        """
        self._partitioner(name)
        with self._write_lock:
            # Fail before the first copy is touched: deleting around a
            # dead copy would leave it resurrecting the array on
            # revival.
            self._check_all_writable()
            first_error = None
            for row in self.replicas:
                for manager in row:
                    try:
                        manager.delete_array(name)
                    except ReproError as exc:
                        if name in manager.list_arrays():
                            if first_error is None:
                                first_error = exc
                        # else: this copy already dropped it (an
                        # earlier partial delete) — idempotent success.
            if first_error is not None:
                raise first_error
            del self._partitioners[name]
            del self._schemas[name]

    def list_arrays(self) -> list[str]:
        return sorted(self._partitioners)

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    def insert(self, name: str, payload: Payload | ArrayData | np.ndarray,
               timestamp: float | None = None) -> int:
        """Split a version into bands and insert on every band copy.

        The per-replica inserts are independent (each copy owns its own
        catalog, store, and encoder), so they fan out across the
        coordinator's node executor — the write-side mirror of the
        region select's concurrent node queries.

        Band slicing happens against the live generation *before* the
        write lock is taken (slicing a large payload under the lock
        would serialize the cheap part of every write); if an online
        rebalance swaps the generation in that window, the locked fan
        detects the stale slicing and the insert re-slices against the
        new topology — at most once, since only one swap can land per
        acquisition attempt.
        """
        data = self._normalize(name, payload)
        for _ in range(2):
            partitioner = self._partitioner(name)
            schema = self._schemas[name]
            locals_by_node = [
                _band_slice(schema, partitioner, node, data)
                for node in range(self.nodes)]
            try:
                return self._insert_locals(name, locals_by_node,
                                           timestamp)
            except _ReshardedMidWrite:
                continue
        raise StorageError(
            f"insert of {name!r} kept racing generation swaps")

    def _insert_locals(self, name: str,
                       locals_by_node: list[ArrayData],
                       timestamp: float | None) -> int:
        """Fan pre-sliced band payloads to every (band, replica) copy,
        all-or-nothing: if any copy fails (or the copies land different
        version numbers), every landed version is deleted again — it
        was by construction each copy's newest, so the undo returns
        every catalog to the old head and no replica ever exposes a
        partial version."""
        with self._write_lock:
            if len(locals_by_node) != self.nodes:
                # The payload was sliced against a generation that a
                # rebalance replaced before this write got the lock.
                raise _ReshardedMidWrite(
                    f"payload sliced for {len(locals_by_node)} bands "
                    f"but the cluster now has {self.nodes}")
            # Known-dead copies fail the write before any byte moves —
            # encoding full band versions on every live replica only
            # to compensate them all away would trade work for
            # nothing.  The per-pair check below still covers marks
            # set mid-fan-out.
            self._check_all_writable()
            pairs = [(node, replica)
                     for node in range(self.nodes)
                     for replica in range(self.replication)]

            def insert_one(pair: tuple[int, int]) -> int:
                node, replica = pair
                self._check_writable(node, replica)
                return self.replicas[node][replica].insert(
                    name, locals_by_node[node], timestamp)

            results, error = self._settle_nodes(insert_one, pairs)
            landed = {version for version in results
                      if version is not None}
            if error is None and len(landed) > 1:
                error = StorageError(
                    f"cluster is out of step: replicas landed versions "
                    f"{results}")
            if error is not None:
                for (node, replica), version in zip(pairs, results):
                    if version is not None:
                        # reclaim=False: the undo must never write
                        # through the (possibly failing) backend —
                        # consistency over space; the next successful
                        # repack reclaims.
                        self._compensate(
                            self.replicas[node][replica].delete_version,
                            name, version, reclaim=False)
                raise error
            self.stats.record_replica_writes(
                self.nodes * (self.replication - 1))
            return results[0]

    def _replay_locals(self, name: str,
                       locals_by_node: list[ArrayData], *,
                       version: int, kind: str,
                       parent_version: int | None,
                       timestamp: float | None,
                       merge_parents: list[tuple[str, int]] | None
                       ) -> int:
        """The migration twin of :meth:`_insert_locals`: fan one
        version's pre-sliced band payloads to every copy through
        :meth:`VersionedStorageManager.replay_version`, preserving the
        source version's lineage row (kind, parent link, merge
        parents, timestamp) instead of minting a plain insert.  Same
        all-or-nothing settle-then-compensate contract."""
        with self._write_lock:
            self._check_all_writable()
            pairs = [(node, replica)
                     for node in range(self.nodes)
                     for replica in range(self.replication)]

            def replay_one(pair: tuple[int, int]) -> int:
                node, replica = pair
                self._check_writable(node, replica)
                return self.replicas[node][replica].replay_version(
                    name, locals_by_node[node], version=version,
                    kind=kind, parent_version=parent_version,
                    timestamp=timestamp, merge_parents=merge_parents)

            results, error = self._settle_nodes(replay_one, pairs)
            if error is not None:
                for (node, replica), landed in zip(pairs, results):
                    if landed is not None:
                        self._compensate(
                            self.replicas[node][replica].delete_version,
                            name, landed, reclaim=False)
                raise error
            self.stats.record_replica_writes(
                self.nodes * (self.replication - 1))
            return results[0]

    def branch(self, source_name: str, source_version: int,
               new_name: str,
               timestamp: float | None = None):
        """Branch every band copy of the source version (Branch).

        All-or-nothing across the cluster: if any replica fails, the
        half-created branch is removed from every replica before the
        error propagates.
        """
        self._partitioner(source_name)

        def branch_node(manager: VersionedStorageManager):
            return manager.branch(source_name, source_version, new_name,
                                  timestamp)

        with self._write_lock:
            partitioner = self._partitioner(source_name)
            schema = self._schema(source_name)
            self._all_nodes_or_none(branch_node, new_name,
                                    versions_created=1)
            # The branch shares the source's shape, so its partitioning
            # is identical by construction.
            self._partitioners[new_name] = partitioner
            self._schemas[new_name] = schema
        return new_name

    def merge(self, parents: list[tuple[str, int]], new_name: str,
              timestamp: float | None = None):
        """Merge parent versions into a new array sequence on every
        band copy (the paper's Merge: versions 1..k replay the
        parents)."""
        if len(parents) < 2:
            raise StorageError("merge requires at least two parent versions")
        schema = self._schema(parents[0][0])
        for parent_name, _ in parents:
            if self._schema(parent_name) != schema:
                raise StorageError(
                    "merge parents must share the same schema")

        def merge_node(manager: VersionedStorageManager):
            return manager.merge(parents, new_name, timestamp)

        with self._write_lock:
            partitioner = self._partitioner(parents[0][0])
            schema = self._schema(parents[0][0])
            self._all_nodes_or_none(merge_node, new_name,
                                    versions_created=len(parents))
            self._partitioners[new_name] = partitioner
            self._schemas[new_name] = schema
        return new_name

    def _all_nodes_or_none(self, operation, new_name: str, *,
                           versions_created: int) -> None:
        """Run an array-creating write on every band copy; undo it on
        every copy where it succeeded if any copy fails, so no replica
        keeps a partial array.

        The name must be unused: rollback deletes ``new_name`` on the
        replicas that created it, which would destroy a pre-existing
        array of that name had the operation been allowed to start.
        The guard checks the node catalogs as well as the registry —
        coordinator state is session-scoped, but node arrays are not.
        """
        if new_name in self._partitioners or \
                new_name in self._read_node(
                    0, lambda manager: manager.list_arrays()):
            raise StorageError(
                f"array {new_name!r} already exists on this cluster")
        self._check_all_writable()
        pairs = [(node, replica)
                 for node in range(self.nodes)
                 for replica in range(self.replication)]

        def run_one(pair: tuple[int, int]):
            node, replica = pair
            self._check_writable(node, replica)
            return operation(self.replicas[node][replica])

        results, error = self._settle_nodes(run_one, pairs)
        if error is not None:
            for (node, replica), result in zip(pairs, results):
                if result is not None:
                    self._compensate(
                        self.replicas[node][replica].delete_array,
                        new_name)
            raise error
        self.stats.record_replica_writes(
            self.nodes * (self.replication - 1) * versions_created)

    def _compensate(self, undo, *args, **kwargs) -> bool:
        """Run one compensating undo, retrying a few times.

        Under fault injection the undo itself can fail (a co-located
        repack re-places payloads through the same faulty backend); a
        finite fault schedule is outlasted by the retry loop.  Returns
        whether the undo eventually succeeded — a False leaves that
        replica out of step, which the caller's raised error already
        reports as a failed cluster write.
        """
        for _ in range(COMPENSATION_ATTEMPTS):
            try:
                undo(*args, **kwargs)
                return True
            except ReproError:
                continue
        return False

    def _map_nodes(self, operation, items) -> list:
        """Apply ``operation`` to every item, fanning across the node
        executor when configured; results come back in item order."""
        items = list(items)
        if self.workers > 1 and len(items) > 1:
            return list(self._pool().map(operation, items))
        return [operation(item) for item in items]

    def _settle_nodes(self, operation, items) -> tuple[list, object]:
        """Like :meth:`_map_nodes`, but *every* submitted operation is
        waited for before returning — the write paths compensate by
        inspecting which replicas succeeded, which is only sound once
        no straggler is still mutating its node.  Returns ``(results,
        first_error)`` with None results for failed (or, serially,
        never-attempted) items.
        """
        items = list(items)
        results: list = [None] * len(items)
        error = None
        if self.workers > 1 and len(items) > 1:
            pool = self._pool()
            futures = [pool.submit(operation, item) for item in items]
            for index, future in enumerate(futures):
                try:
                    results[index] = future.result()
                except BaseException as exc:
                    if error is None:
                        error = exc
        else:
            for index, item in enumerate(items):
                try:
                    results[index] = operation(item)
                except BaseException as exc:
                    error = exc
                    break  # serial: later items were never started
        return results, error

    def get_versions(self, name: str) -> list[int]:
        self._partitioner(name)
        return self._read_any(lambda manager: manager.get_versions(name))

    # ------------------------------------------------------------------
    # Read routing (generation-pinned, failover-capable)
    # ------------------------------------------------------------------
    def _read_node(self, node: int, op, gen: "_Generation | None" = None):
        """Serve one band read from its first live replica.

        Copies marked dead are skipped, and a copy that raises is
        abandoned for the next one; every abandoned copy is one
        recorded failover.  Only when no copy can serve does the read
        fail — so with ``replication=2`` any single dead node leaves
        every band readable.  ``gen`` routes the read against an
        explicitly pinned generation (multi-step reads pin once so an
        online rebalance can never swap the topology out from under
        them mid-read); without it the read pins the live generation
        for its own duration.
        """
        if gen is None:
            with self._pinned() as pinned:
                return self._read_node(node, op, pinned)
        last_error = None
        for replica in range(self.replication):
            if (node, replica) in self._dead:
                self.stats.record_failover()
                continue
            try:
                return op(gen.replicas[node][replica])
            except ReproError as exc:
                last_error = exc
                self.stats.record_failover()
        raise StorageError(
            f"no live replica of node {node} could serve the read "
            f"(replication={self.replication})") from last_error

    def _read_any(self, op, gen: "_Generation | None" = None):
        """Serve a band-agnostic read (version lists, catalogs agree
        everywhere) from the first band with a live replica."""
        if gen is None:
            with self._pinned() as pinned:
                return self._read_any(op, pinned)
        last_error = None
        for node in range(gen.nodes):
            try:
                return self._read_node(node, op, gen)
            except ReproError as exc:
                last_error = exc
        raise StorageError(
            "no live replica on any node could serve the read") \
            from last_error

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self, name: str, version: int) -> ArrayData:
        """Reassemble one full version from every band."""
        schema = self._schema(name)
        lo = tuple(0 for _ in schema.shape)
        hi = tuple(extent - 1 for extent in schema.shape)
        return self.select_region(name, version, lo, hi)

    def select_region(self, name: str, version: int,
                      corner_lo: tuple[int, ...],
                      corner_hi: tuple[int, ...]) -> ArrayData:
        """Route a region query to the overlapping nodes only, each
        band served by its first live replica (reads fail over).  The
        whole query runs against one pinned generation, so an online
        rebalance swapping mid-query can neither mix topologies nor
        close the managers the query is reading."""
        with self._pinned() as gen:
            return self._select_region(gen, name, version,
                                       corner_lo, corner_hi)

    def _select_region(self, gen: "_Generation", name: str, version: int,
                       corner_lo: tuple[int, ...],
                       corner_hi: tuple[int, ...]) -> ArrayData:
        try:
            partitioner = gen.partitioners[name]
            schema = gen.schemas[name]
        except KeyError:
            raise StorageError(
                f"array {name!r} is not registered with this "
                "coordinator") from None
        lo = schema.to_zero_based(corner_lo)
        hi = schema.to_zero_based(corner_hi)
        region_shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        axis = partitioner.axis

        canvases = {
            attr.name: np.empty(region_shape, dtype=attr.dtype)
            for attr in schema.attributes
        }

        def fetch(band):
            local_lo, local_hi = partitioner.clip_region(band, lo, hi)
            return self._read_node(
                band.node,
                lambda manager: manager.select_region(
                    name, version, local_lo, local_hi),
                gen)

        bands = list(partitioner.bands_overlapping(lo, hi))
        parts = self._map_nodes(fetch, bands)

        for band, part in zip(bands, parts):
            dest_lo = max(lo[axis], band.lo) - lo[axis]
            dest_hi = min(hi[axis], band.hi) - lo[axis]
            index = tuple(
                np.s_[dest_lo:dest_hi + 1] if dim == axis else np.s_[:]
                for dim in range(schema.ndim))
            for attr in schema.attributes:
                canvases[attr.name][index] = part.attribute(attr.name)
        from repro.core.array import _sliced_schema

        return ArrayData(_sliced_schema(schema, lo, hi), canvases)

    def select_versions(self, name: str, versions: list[int],
                        attribute: str | None = None) -> np.ndarray:
        """The stacked (N+1-dimensional) select across the cluster."""
        schema = self._schema(name)
        attr = attribute or schema.attributes[0].name
        layers = [self.select(name, v).attribute(attr) for v in versions]
        return np.stack(layers, axis=0)

    # ------------------------------------------------------------------
    # Rebalancing (cluster growth / shrink)
    # ------------------------------------------------------------------
    def rebalance(self, new_node_count: int, *, seed: int = 0) -> int:
        """Reshard every array across ``new_node_count`` nodes, online.

        A deterministic :func:`rebalance_plan` (fixed by ``seed``) maps
        old bands onto new ones; each slab is read from the first live
        replica of its source band (so a cluster with dead copies can
        still be evacuated while a quorum survives) and every version
        replays, in order, into a fresh generation of managers under
        ``root/gen<k>`` — with its *source* lineage row, so insert vs
        branch-root vs merge kinds, parent links, and merge parents
        survive the reshard.

        The build is online: the old generation keeps serving reads
        (and accepting writes) while the new one is copied, and a
        catch-up loop re-syncs arrays and versions written
        mid-migration.  Only the *final* catch-up pass and the
        generation swap run under the cluster write lock — with
        writes excluded the cluster is frozen, so one sweep provably
        converges, the new generation is adopted, and in-flight reads
        drain before the old managers are closed and removed.  A
        failure at any point leaves the old cluster untouched and the
        half-built generation deleted.

        Contents, version numbering, and lineage are preserved exactly
        (the cluster :meth:`fingerprint` is byte-identical before and
        after, and :meth:`lineage` rows match).  Dead-copy marks
        reset: the new generation is a new fleet.  Returns the number
        of chunk placements the migration performed (also recorded in
        ``stats.migrated_chunks``).
        """
        if new_node_count < 1:
            raise StorageError("a cluster needs at least one node")
        if new_node_count < self.replication:
            raise StorageError(
                f"cannot rebalance to {new_node_count} node(s) with "
                f"replication={self.replication}")
        with self._maintenance_lock:
            return self._rebalance_locked(new_node_count, seed)

    def _rebalance_locked(self, new_node_count: int, seed: int) -> int:
        generation = self._generation + 1
        new_root = self.root / f"gen{generation}"
        try:
            fresh = ClusterCoordinator(
                new_root, nodes=new_node_count,
                replication=self.replication,
                partition_axis=self.partition_axis,
                backend=self._backend_spec, workers=self.workers,
                **self._manager_kwargs)
        except BaseException:
            # A half-built generation (its constructor closed the
            # managers that did come up) must not leave node roots for
            # a later rebalance to adopt as pre-existing state.
            if new_root.exists():
                shutil.rmtree(new_root)
            raise
        try:
            # Initial copy plus bounded catch-up, all outside the
            # write lock: the cluster keeps serving both reads and
            # writes while the bulk of the migration runs.
            self._sync_generation(fresh, seed)
            for _ in range(REBALANCE_CATCHUP_PASSES):
                if not self._sync_generation(fresh, seed):
                    break
            # The brief exclusive window: writers blocked, one final
            # catch-up against the now-frozen cluster, then the swap.
            with self._write_lock:
                self._sync_generation(fresh, seed)
                migrated = sum(manager.stats.chunks_written
                               for row in fresh.replicas
                               for manager in row)
                old_gen = self._live
                old_base = self.root / f"gen{self._generation}" \
                    if self._generation else None
                fresh._shutdown_executor()
                self._live = _Generation(
                    fresh._live.replicas, fresh._live.nodes,
                    fresh._live.partitioners, fresh._live.schemas,
                    generation)
                self._dead = set()
                self._generation = generation
        except BaseException:
            # Suppress close errors: the cleanup must never mask the
            # error that sank the migration, and the half-built
            # generation must be removed regardless so a later
            # rebalance cannot adopt its node roots.
            fresh._shutdown_executor()
            fresh._close_managers(suppress=True)
            if fresh.root.exists():
                shutil.rmtree(fresh.root)
            raise
        # The node fan-out pool was sized for the old replica grid;
        # drop it so the next fan-out recreates it at the new width.
        self._shutdown_executor()
        # Release the old generation only after every in-flight read
        # that pinned it has finished — closing a manager out from
        # under a serving read is exactly what "online" must not do.
        old_gen.wait_drained()
        for row in old_gen.replicas:
            for manager in row:
                manager.close()
                if manager.root.exists():
                    shutil.rmtree(manager.root)
        if old_base is not None and old_base.exists():
            # Generation 0 lives directly under the cluster root; later
            # generations get their own base directory, removed once
            # its node roots are gone.
            shutil.rmtree(old_base)
        self.stats.record_migrated_chunks(migrated)
        return migrated

    def _sync_generation(self, fresh: "ClusterCoordinator",
                         seed: int) -> bool:
        """One catch-up pass: make ``fresh`` logically identical to
        the cluster's *current* contents.  Returns whether the pass
        changed anything — a False means the generations were already
        converged when the pass ran.

        Convergence never depends on the pass bound: under the write
        lock the cluster is frozen, so a single pass there syncs
        everything the unlocked passes missed.
        """
        changed = False
        names = set(self.list_arrays())
        for name in list(fresh.list_arrays()):
            if name not in names:
                # Deleted cluster-wide mid-migration.
                fresh.delete_array(name)
                changed = True
        for name in self.list_arrays():
            changed |= self._sync_array(fresh, name, seed)
        return changed

    def _sync_array(self, fresh: "ClusterCoordinator", name: str,
                    seed: int) -> bool:
        """Catch one array up in the fresh generation.

        The already-migrated prefix is validated by *lineage rows
        including timestamps* (the replay preserves the source rows
        verbatim, and source timestamps are strictly increasing per
        replica) — so an array that was deleted and re-created under
        the same name mid-migration can never masquerade as a valid
        prefix; it is dropped and rebuilt.  Versions beyond the valid
        prefix replay slab-by-slab with their source lineage rows.
        """
        changed = False
        source_rows = self._version_rows(name)
        if name in fresh._partitioners:
            fresh_rows = fresh._version_rows(name)
            if fresh_rows != source_rows[:len(fresh_rows)]:
                fresh.delete_array(name)
                changed = True
        if name not in fresh._partitioners:
            record = self._read_node(
                0, lambda manager: manager.catalog.get_array(name))
            fresh.create_array(name, self._schemas[name],
                               chunk_bytes=record.chunk_bytes,
                               compressor=record.compressor,
                               chunk_shape=record.chunk_shape,
                               parent_array=record.parent_array,
                               parent_version=record.parent_version)
            fresh_rows = []
            changed = True
        plan = rebalance_plan(self._partitioners[name],
                              fresh._partitioners[name], seed=seed)
        for version, parent_version, kind, timestamp, parents in \
                source_rows[len(fresh_rows):]:
            fresh._replay_locals(
                name,
                self._migrate_version(name, version, plan, fresh),
                version=version, kind=kind,
                parent_version=parent_version, timestamp=timestamp,
                merge_parents=list(parents) or None)
            changed = True
        return changed

    def _version_rows(self, name: str) -> list[tuple]:
        """Full lineage rows — (version, parent, kind, timestamp,
        merge parents) — of one array, from the first live replica."""
        def rows(manager: VersionedStorageManager) -> list[tuple]:
            record = manager.catalog.get_array(name)
            return [
                (row.version, row.parent_version, row.kind,
                 row.timestamp,
                 tuple(manager.catalog.merge_parents_of(record.array_id,
                                                        row.version)))
                for row in manager.catalog.get_versions(record.array_id)]

        return self._read_any(rows)

    def _migrate_version(self, name: str, version: int, plan,
                         fresh: "ClusterCoordinator"
                         ) -> list[ArrayData]:
        """Rebuild one version's new band payloads from slab reads
        against the old cluster (failover-capable)."""
        schema = self._schemas[name]
        old = self._partitioners[name]
        new = fresh._partitioners[name]
        axis = old.axis
        canvases = [
            {attr.name: np.empty(new.local_shape(node),
                                 dtype=attr.dtype)
             for attr in schema.attributes}
            for node in range(fresh.nodes)]
        for slab in plan:
            source_band = old.band_of(slab.source)
            local_lo = tuple(
                slab.lo - source_band.lo if dim == axis else 0
                for dim in range(schema.ndim))
            local_hi = tuple(
                slab.hi - source_band.lo if dim == axis
                else schema.shape[dim] - 1
                for dim in range(schema.ndim))
            part = self._read_node(
                slab.source,
                lambda manager: manager.select_region(
                    name, version, local_lo, local_hi))
            target_band = new.band_of(slab.target)
            dest = tuple(
                np.s_[slab.lo - target_band.lo:
                      slab.hi - target_band.lo + 1]
                if dim == axis else np.s_[:]
                for dim in range(schema.ndim))
            for attr in schema.attributes:
                canvases[slab.target][attr.name][dest] = \
                    part.attribute(attr.name)
        return [
            ArrayData(_band_schema(schema, new.local_shape(node)),
                      canvases[node])
            for node in range(fresh.nodes)]

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------
    def reorganize(self, name: str, **kwargs) -> None:
        """Per-node background re-organization.  Every *live* copy
        re-lays-out independently (replica layouts may legitimately
        diverge — contents, not physical structure, are what
        replication guarantees); dead copies are skipped and pick a
        fresh layout whenever they next replay."""
        self._partitioner(name)
        for node in range(self.nodes):
            for replica in range(self.replication):
                if (node, replica) in self._dead:
                    continue
                self.replicas[node][replica].reorganize(name, **kwargs)

    def stored_bytes(self, name: str) -> int:
        """Logical stored bytes: one live copy of every band (replica
        copies are redundancy, not extra data)."""
        self._partitioner(name)
        return sum(
            self._read_node(node,
                            lambda manager: manager.stored_bytes(name))
            for node in range(self.nodes))

    def physical_bytes(self, name: str) -> int:
        """Stored bytes across *all* live copies (what the fleet's
        disks actually hold; ~``replication`` x the logical bytes)."""
        self._partitioner(name)
        return sum(self.replicas[node][replica].stored_bytes(name)
                   for node in range(self.nodes)
                   for replica in range(self.replication)
                   if (node, replica) not in self._dead)

    def node_stats(self) -> list[IOStats]:
        """Per-node I/O counters of the primary copies (routing tests
        use these)."""
        return [row[0].stats for row in self.replicas]

    def replica_stats(self) -> list[list[IOStats]]:
        """The full (band x replica) grid of per-manager counters."""
        return [[manager.stats for manager in row]
                for row in self.replicas]

    def fingerprint(self, name: str | None = None) -> str:
        """SHA-256 over the cluster's *logical* catalog rows and
        payload bytes: every array's schema and version list, and each
        version's reassembled contents in attribute order.

        Equal fingerprints mean the cluster serves byte-identical
        data.  Unlike the per-manager
        :meth:`~repro.storage.manager.VersionedStorageManager.fingerprint`
        (which also pins physical chunk placement), this observable is
        deliberately invariant under node count, replication factor,
        and per-node encoding choices — it is exactly what resharding
        and replica failover promise to preserve, and the chaos
        suite's one-fingerprint assertion across every (nodes,
        replication, fault schedule) cell leans on that.  Reads fail
        over, so the fingerprint stays computable while dead copies
        leave a quorum.
        """
        digest = hashlib.sha256()
        names = [name] if name is not None else self.list_arrays()
        for array_name in names:
            schema = self._schema(array_name)
            versions = self.get_versions(array_name)
            digest.update(repr((array_name, schema.to_dict(),
                                versions)).encode())
            for version in versions:
                data = self.select(array_name, version)
                for attr in schema.attributes:
                    digest.update(repr((array_name, version,
                                        attr.name)).encode())
                    digest.update(np.ascontiguousarray(
                        data.attribute(attr.name)).tobytes())
        return digest.hexdigest()

    def _pool(self) -> ThreadPoolExecutor:
        """One lazily-created node fan-out executor per coordinator,
        reused across queries (a fresh pool per select would put
        thread spawn/join on the hot query path); sized to the replica
        grid so a replicated write can fan every copy at once."""
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=min(self.workers,
                                    self.nodes * self.replication),
                    thread_name_prefix="repro-cluster")
            return self._executor

    def _shutdown_executor(self) -> None:
        with self._executor_lock:
            pool, self._executor = self._executor, None
        if pool is not None:
            pool.shutdown(wait=True)

    def close(self) -> None:
        self._shutdown_executor()
        self._close_managers()

    def _close_managers(self, suppress: bool = False) -> None:
        """Close every manager that was successfully constructed,
        letting nothing leak even when some close calls fail.

        ``suppress=True`` swallows close errors entirely — the
        construction-failure path uses it so the cleanup can never
        replace the error that actually sank the construction."""
        first_error = None
        for row in self.replicas:
            for manager in row:
                try:
                    manager.close()
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
        if first_error is not None and not suppress:
            raise first_error

    # ------------------------------------------------------------------
    def _partitioner(self, name: str) -> RangePartitioner:
        try:
            return self._partitioners[name]
        except KeyError:
            raise StorageError(
                f"array {name!r} is not registered with this "
                "coordinator") from None

    def _schema(self, name: str) -> ArraySchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise StorageError(
                f"array {name!r} is not registered with this "
                "coordinator") from None

    def _normalize(self, name: str,
                   payload: Payload | ArrayData | np.ndarray) -> ArrayData:
        schema = self._schema(name)
        if isinstance(payload, ArrayData):
            return payload
        if isinstance(payload, np.ndarray):
            return ArrayData.from_single(schema, payload)
        return payload.to_array_data(schema)


def _band_slice(schema: ArraySchema, partitioner: RangePartitioner,
                node: int, data: ArrayData) -> ArrayData:
    """One node's band of a full-array payload, as local ArrayData."""
    band = partitioner.band_of(node)
    axis = partitioner.axis
    index = tuple(
        np.s_[band.lo:band.hi + 1] if dim == axis else np.s_[:]
        for dim in range(schema.ndim))
    return ArrayData(
        _band_schema(schema, partitioner.local_shape(node)),
        {attr.name: data.attribute(attr.name)[index]
         for attr in schema.attributes})


def _band_schema(schema: ArraySchema,
                 local_shape: tuple[int, ...]) -> ArraySchema:
    """The schema of one node's partition (zero-based, band-sized)."""
    dims = tuple(
        Dimension(dim.name, 0, extent - 1)
        for dim, extent in zip(schema.dimensions, local_shape))
    attrs = tuple(
        Attribute(attr.name, attr.dtype, attr.default)
        for attr in schema.attributes)
    return ArraySchema(dimensions=dims, attributes=attrs)
