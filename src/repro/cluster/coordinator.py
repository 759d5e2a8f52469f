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
* **Rebalancing** (:mod:`repro.cluster.rebalance`) and **anti-entropy
  repair** (:mod:`repro.cluster.repair`) are maintenance flows driven
  through the primitives here — the write fan, the failover reader —
  and :mod:`repro.cluster.sync`; this module keeps their public entry
  points, which validate, take the maintenance lock and delegate.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.cluster import rebalance as _rebalance
from repro.cluster import repair as _repair
from repro.cluster.partitioning import (
    RangePartitioner,
    axis_index,
    band_schema,
    band_slice,
)
from repro.cluster.sync import replay_row, version_rows
from repro.core.array import ArrayData, Payload, _sliced_schema
from repro.core.errors import ReproError, StorageError
from repro.core.schema import ArraySchema
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

#: Cluster lifecycle events: a debug line per failover hop, an info
#: line per repair and per generation swap.  No handler is configured
#: here — the application decides where the lines go.
_log = logging.getLogger("repro.cluster")


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
        """Pin the live generation for the duration of one read (see
        :class:`_Generation`: a rebalance may adopt a successor at any
        time, but the pinned one's managers stay open until the pin
        drops)."""
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
        _repair.revive(self, [(node, replica)], repair)

    def mark_node_dead(self, host: int) -> None:
        """Kill one physical host: every band copy it carries goes
        offline at once (its own primary and the neighbors' replicas
        it hosts)."""
        self._dead.update(self._copies_on(host))

    def revive_node(self, host: int, *, repair: bool = False) -> None:
        """Bring every band copy on one physical host back — verified,
        all-or-nothing: each copy's digest is checked against its live
        peers first (see :meth:`revive`), and if any copy is stale the
        whole revive refuses (or, with ``repair=True``, resyncs the
        stale copies) before a single mark clears — a host never
        rejoins half-trustworthy."""
        _repair.revive(self, self._copies_on(host), repair)

    def _live_peers(self, node: int, replica: int) -> list[int]:
        """The other replicas of one band that are not marked dead —
        the candidate repair sources / verification witnesses."""
        return [r for r in range(self.replication)
                if r != replica and (node, r) not in self._dead]

    def dead_replicas(self) -> list[tuple[int, int]]:
        """The (band, replica) copies currently marked offline."""
        return sorted(self._dead)

    def _copies_on(self, host: int) -> list[tuple[int, int]]:
        if not 0 <= host < self.nodes:
            raise StorageError(
                f"no node {host} (cluster has {self.nodes})")
        return [pair for pair in self._pairs()
                if self.host_of(*pair) == host]

    def _pairs(self) -> list[tuple[int, int]]:
        """Every (band, replica) copy, node-major and replica-minor —
        the serial fan order the seeded fault schedules count on."""
        return [(node, replica)
                for node in range(self.nodes)
                for replica in range(self.replication)]

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
        return _repair.registry_digest(self, manager)

    def repair(self, node: int, replica: int = 0) -> dict:
        """Resync one stale or empty band copy from its live peers
        (:func:`repro.cluster.repair.repair` says how): a stale tail
        is replayed, a diverged or unreadable copy rebuilt, and the
        copy is *proven* digest-identical to a peer before the method
        returns.

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
            return _repair.repair(self, node, replica, peers)

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
        return _repair.replace_replica(self, node, replica)

    def lineage(self, name: str) -> list[tuple]:
        """The array's lineage rows, served with failover:
        ``(version, parent_version, kind, merge_parents)`` per
        version, in version order.  Rebalance and repair preserve
        these exactly (timestamps excluded — every replica stamps its
        own clock)."""
        self._partitioner(name)
        return [(version, parent_version, kind, parents)
                for version, parent_version, kind, _, parents
                in version_rows(self, name)]

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
            schemas = [band_schema(schema, partitioner.local_shape(node))
                       for node in range(self.nodes)]
            self._write_all(
                lambda node, manager: manager.create_array(
                    name, schemas[node], **kwargs),
                lambda manager, _: manager.delete_array(name),
                versions=0)
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
                band_slice(schema, partitioner, node, data)
                for node in range(self.nodes)]
            with self._write_lock:
                if len(locals_by_node) != self.nodes:
                    # Sliced against a generation that a rebalance
                    # replaced before this write got the lock.
                    continue
                return self._write_all(
                    lambda node, manager: manager.insert(
                        name, locals_by_node[node], timestamp),
                    _drop_version(name), verify=_landed_in_step)
        raise StorageError(
            f"insert of {name!r} kept racing generation swaps")

    def _replay(self, name: str, bands: list[ArrayData],
                row: tuple) -> int:
        """The migration twin of :meth:`insert`: fan one version's
        pre-sliced band payloads to every copy with its *source*
        lineage row instead of minting a plain insert."""
        with self._write_lock:
            return self._write_all(
                lambda node, manager: replay_row(manager, name,
                                                 bands[node], row),
                _drop_version(name))

    def branch(self, source_name: str, source_version: int,
               new_name: str,
               timestamp: float | None = None):
        """Branch every band copy of the source version (Branch).

        All-or-nothing across the cluster: if any replica fails, the
        half-created branch is removed from every replica before the
        error propagates.
        """
        self._derive_array(
            new_name, source_name,
            lambda manager: manager.branch(source_name, source_version,
                                           new_name, timestamp),
            versions=1)
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
        self._derive_array(
            new_name, parents[0][0],
            lambda manager: manager.merge(parents, new_name, timestamp),
            versions=len(parents))
        return new_name

    def _derive_array(self, new_name: str, like: str, operation, *,
                      versions: int) -> None:
        """Branch/merge: create ``new_name`` on every band copy and
        register it with ``like``'s partitioning (the derived array
        shares its shape, so the partitioning is identical by
        construction).

        The name must be unused: rollback deletes ``new_name`` on the
        replicas that created it, which would destroy a pre-existing
        array of that name had the operation been allowed to start.
        The guard checks the node catalogs as well as the registry —
        coordinator state is session-scoped, but node arrays are not.
        """
        with self._write_lock:
            partitioner = self._partitioner(like)
            schema = self._schema(like)
            if new_name in self._partitioners or \
                    new_name in self._read_node(
                        0, lambda manager: manager.list_arrays()):
                raise StorageError(
                    f"array {new_name!r} already exists on this cluster")
            self._write_all(
                lambda node, manager: operation(manager),
                lambda manager, _: manager.delete_array(new_name),
                versions=versions)
            self._partitioners[new_name] = partitioner
            self._schemas[new_name] = schema

    def _write_all(self, op, undo, *, versions: int = 1, verify=None):
        """The one replicated write fan: ``op(node, manager)`` on every
        (band, replica) copy, all-or-nothing, under the caller's
        cluster write lock.

        Known-dead copies fail the write before any byte moves —
        encoding full band versions on every live replica only to
        compensate them all away would trade work for nothing; the
        per-copy check still covers marks set mid-fan-out.  Every copy
        is settled first; if one failed — or ``verify(results)``
        returns an error for the settled grid — ``undo(manager,
        landed)`` takes back every result that did land before the
        error propagates, so no replica exposes a partial version or
        array.  Success counts ``versions`` redundant copies per extra
        replica per band in ``stats.replica_writes`` and returns the
        primary's result.
        """
        self._check_all_writable()
        pairs = self._pairs()

        def write_one(pair: tuple[int, int]):
            node, replica = pair
            self._check_writable(node, replica)
            return op(node, self.replicas[node][replica])

        results, error = self._settle_nodes(write_one, pairs)
        if error is None and verify is not None:
            error = verify(results)
        if error is not None:
            for (node, replica), landed in zip(pairs, results):
                if landed is not None:
                    self._compensate(undo, self.replicas[node][replica],
                                     landed)
            raise error
        self.stats.record_replica_writes(
            self.nodes * (self.replication - 1) * versions)
        return results[0]

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

    def _settle_nodes(self, operation, items) -> tuple[list, object]:
        """Apply ``operation`` to every item, fanning across the node
        executor when configured, and wait for *every* submitted
        operation before returning — the write paths compensate by
        inspecting which replicas succeeded, which is only sound once
        no straggler is still mutating its node.  Returns ``(results,
        first_error)`` in item order, with None results for failed
        (or, serially, never-attempted) items.
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
    def _read_node(self, node: int, op, gen: "_Generation | None" = None,
                   replicas: list[int] | None = None):
        """Serve one band read from its first live replica — the one
        failover reader.

        Copies marked dead are skipped, and a copy that raises is
        abandoned for the next one; every abandoned copy is one
        recorded failover.  Only when no copy can serve does the read
        fail — so with ``replication=2`` any single dead node leaves
        every band readable.  ``gen`` routes the read against an
        explicitly pinned generation (multi-step reads pin once so an
        online rebalance can never swap the topology out from under
        them mid-read); without it the read pins the live generation
        for its own duration.  ``replicas`` restricts the candidates
        (repair and revive read from a copy's live *peers* only).
        """
        if gen is None:
            with self._pinned() as pinned:
                return self._read_node(node, op, pinned, replicas)
        last_error = None
        for replica in (range(self.replication) if replicas is None
                        else replicas):
            if (node, replica) in self._dead:
                reason = "marked dead"
            else:
                try:
                    return op(gen.replicas[node][replica])
                except ReproError as exc:
                    last_error = exc
                    reason = type(exc).__name__
            self.stats.record_failover()
            _log.debug("failover: abandoned replica %d of node %d (%s)",
                       replica, node, reason)
        raise StorageError(
            f"no live replica of node {node} could serve the read "
            f"(replication={self.replication})") from last_error

    def _read_any(self, op):
        """Serve a band-agnostic read (version lists, catalogs agree
        everywhere) from the first band with a live replica."""
        last_error = None
        with self._pinned() as gen:
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
        parts, error = self._settle_nodes(fetch, bands)
        if error is not None:
            raise error
        for band, part in zip(bands, parts):
            index = axis_index(schema.ndim, axis,
                               max(lo[axis], band.lo) - lo[axis],
                               min(hi[axis], band.hi) - lo[axis])
            for attr in schema.attributes:
                canvases[attr.name][index] = part.attribute(attr.name)
        return ArrayData(_sliced_schema(schema, lo, hi), canvases)

    def select_versions(self, name: str, versions: list[int],
                        attribute: str | None = None) -> np.ndarray:
        """The stacked (N+1-dimensional) select across the cluster."""
        schema = self._schema(name)
        attr = schema.attribute(attribute or schema.attributes[0].name)
        stack = np.empty((len(versions), *schema.shape), dtype=attr.dtype)
        for layer, version in enumerate(versions):
            stack[layer] = self.select(name, version).attribute(attr.name)
        return stack

    # ------------------------------------------------------------------
    # Rebalancing (cluster growth / shrink)
    # ------------------------------------------------------------------
    def rebalance(self, new_node_count: int, *, seed: int = 0) -> int:
        """Reshard every array across ``new_node_count`` nodes, online
        (:func:`repro.cluster.rebalance.rebalance` says how): the old
        generation keeps serving reads and accepting writes while the
        new one is built under ``root/gen<k>``, and a failure at any
        point leaves the old cluster untouched and the half-built
        generation deleted.  ``seed`` fixes the order the
        :func:`rebalance_plan` slabs migrate in.

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
            return _rebalance.rebalance(self, new_node_count, seed)

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
        for node, replica in self._pairs():
            if (node, replica) not in self._dead:
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
                   for node, replica in self._pairs()
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
        self._partitioner(name)
        return self._schemas[name]

    def _normalize(self, name: str,
                   payload: Payload | ArrayData | np.ndarray) -> ArrayData:
        schema = self._schema(name)
        if isinstance(payload, ArrayData):
            # Band slicing would crop or cast a foreign layout silently.
            return payload.conforming(schema)
        if isinstance(payload, np.ndarray):
            return ArrayData.from_single(schema, payload)
        return payload.to_array_data(schema)


def _drop_version(name: str):
    """The compensating undo of one landed version (the landed
    version was by construction that copy's newest, so deleting it
    returns the catalog to the old head)."""
    def undo(manager: VersionedStorageManager, version: int) -> None:
        # reclaim=False: the undo must never write through the
        # (possibly failing) backend — consistency over space; the
        # next successful repack reclaims.
        manager.delete_version(name, version, reclaim=False)
    return undo


def _landed_in_step(results: list) -> StorageError | None:
    """Insert's cross-copy check: every copy must have minted the
    same version number."""
    if len(set(results)) > 1:
        return StorageError(
            f"cluster is out of step: replicas landed versions "
            f"{results}")
    return None

