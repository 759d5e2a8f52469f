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
node — each band is delta-encoded locally, on its own, as the paper
states — and reassembles query results.  All single-node
semantics (no-overwrite, branches, layout re-organization) apply per
node.

Beyond the paper's single-copy picture, the coordinator makes node
loss and cluster growth first-class:

* **Replication** — ``replication=R`` keeps R identical copies of
  every band, each in its own manager.  Every copy *stages* a write
  (place, barrier) — the band's first live copy encodes it, the others
  place the encoder's bytes — then every copy *commits* it: a stage
  failure commits nothing, and a copy whose commit fails is fenced for
  revive/repair — never undone.  Reads see versions up to the head
  (the newest every band committed), served by the first live replica
  and *failing over* to the next on error (``IOStats.failovers``
  counts every hop, ``IOStats.replica_writes`` every redundant copy
  committed).  Replica
  ``r`` of band ``b`` is hosted on physical node ``(b + r) % nodes``
  (chained declustering), so :meth:`mark_node_dead` takes out one
  primary *and* one neighbor's replica — the classic failure shape.
* **Rebalancing** (:mod:`repro.cluster.rebalance`) and **anti-entropy
  repair** (:mod:`repro.cluster.repair`) are maintenance flows driven
  through the primitives here — the failover reader and the fleet
  builder; this module keeps their public entry points,
  which validate, take the maintenance lock and delegate.
"""

from __future__ import annotations

import hashlib
import logging
import shutil
import threading
from contextlib import contextmanager, suppress
from dataclasses import replace
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
from repro.core.array import ArrayData, Payload
from repro.core.errors import ReproError, StorageError
from repro.core.schema import ArraySchema
from repro.storage import writes
from repro.storage.backend import StorageBackend
from repro.storage.iostats import IOStats
from repro.storage.manager import VersionedStorageManager, region_corners

#: Cluster lifecycle events — debug per failover hop, info per repair
#: and generation swap, warning per fenced copy — routed by the caller.
_log = logging.getLogger("repro.cluster")


class _Generation:
    """One fleet of band replicas plus its routing state.

    Everything a read needs — the replica grid, the node count, and
    the per-array partitioners, schemas and heads — swaps *together*
    at the end of a rebalance, so readers capture one ``_Generation``
    (a single attribute load) and see a consistent topology no matter
    when the swap lands.  The pin count lets the rebalance drain in-flight
    reads before closing and deleting the old generation's managers:
    a read that started against gen *k* finishes against gen *k*.
    Generation *k* owns ``base`` (``root/gen<k>``; gen 0: the root).
    """

    def __init__(self, number: int, base: Path, nodes: int):
        self.number = number
        self.base = base
        self.nodes = nodes
        self.replicas: list[list[VersionedStorageManager]] = []
        self.partitioners: dict[str, RangePartitioner] = {}
        self.schemas: dict[str, ArraySchema] = {}
        #: Per array, the newest version every band holds.
        self.heads: dict[str, int] = {}
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

    def close(self, suppress: bool = False) -> None:
        """Close every manager, even when some close calls fail; the
        first failure is raised afterwards unless ``suppress``."""
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

    def remove(self) -> None:
        """Delete this closed generation's files: its base directory,
        or only its node roots when that is the cluster root."""
        roots = [self.base] if self.number else \
            [manager.root for row in self.replicas for manager in row]
        for root in roots:
            if root.exists():
                shutil.rmtree(root)


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

    Node-level work runs on the calling thread, one copy after
    another; each node's manager fans its chunk encodes and decodes
    across the process's one CPU fan (:mod:`repro.storage.fan`), which
    every node shares — the store's only CPU concurrency.
    Other keyword arguments configure every manager the cluster builds,
    rebalanced and replacement copies included.

    The coordinator owns a cluster-level :class:`IOStats` (``stats``)
    for the replication counters: ``failovers``, ``replica_writes``,
    and ``migrated_chunks``.  Per-node byte counters stay on each
    manager (:meth:`node_stats`).
    """

    def __init__(self, root: str | Path, nodes: int = 4, *,
                 replication: int = 1,
                 backend=None, **manager_kwargs):
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
        self.root = Path(root)
        self.replication = replication
        self.stats = IOStats()
        # Remembered for rebalance and replacement: every manager is
        # built with the same substrate and per-manager configuration.
        self._backend_spec = backend
        self._manager_kwargs = dict(manager_kwargs)
        # Serializes cluster writes against each other and against the
        # rebalance swap; reads never take it (they pin a generation).
        self._write_lock = threading.Lock()
        # Serializes the long-running maintenance flows (repair,
        # rebalance) against each other.
        self._maintenance_lock = threading.Lock()
        self._dead: set[tuple[int, int]] = set()
        self._live = self._build_generation(0, nodes)

    def _new_manager(self, root: Path) -> VersionedStorageManager:
        """Every manager the cluster builds — constructor, rebalance,
        replacement — has its backend spec and settings."""
        return VersionedStorageManager(
            root, backend=self._backend_spec, **self._manager_kwargs)

    def _build_generation(self, number: int, nodes: int) -> _Generation:
        """Bring up generation ``number``: ``nodes`` bands x
        ``replication`` empty managers.  A fleet that fails to come up
        is closed (never masking the error that sank it) and removed,
        unless it is generation 0, whose node roots sit directly under
        the cluster root and may hold an earlier session's data."""
        base = self.root if number == 0 else self.root / f"gen{number}"
        gen = _Generation(number, base, nodes)
        try:
            for node in range(nodes):
                row: list[VersionedStorageManager] = []
                gen.replicas.append(row)  # so a failure closes the row
                for replica in range(self.replication):
                    # Replica 0 keeps the historical ``node<i>`` layout.
                    leaf = f"node{node}-r{replica}" if replica \
                        else f"node{node}"
                    row.append(self._new_manager(base / leaf))
        except BaseException:
            gen.close(suppress=True)
            if number:
                gen.remove()
            raise
        return gen

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

    @property
    def _heads(self) -> "dict[str, int]":
        return self._live.heads

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

    # ------------------------------------------------------------------
    # Failure-domain controls
    # ------------------------------------------------------------------
    def host_of(self, node: int, replica: int) -> int:
        """The physical host of one band copy (chained declustering):
        replica ``r`` of band ``b`` lives on host ``(b + r) % nodes``,
        so each host carries its own band plus neighbors' replicas."""
        return (node + replica) % self.nodes

    def mark_dead(self, node: int, replica: int = 0) -> None:
        """Take one band copy offline: reads skip it (a failover), and
        every cluster write refuses until it is revived."""
        self._check_pair(node, replica)
        self._dead.add((node, replica))

    def revive(self, node: int, replica: int = 0, *,
               repair: bool = False) -> None:
        """Bring one band copy back into rotation — *verified*.

        A dead mark only ever meant "skip this copy"; the copy behind
        it may have missed writes, been wiped and replaced, or be
        perfectly intact.  Revive therefore compares the copy against
        a live peer replica of the same band before clearing the mark
        — stored bytes first, logical digests only where the two
        layouts differ (:func:`repro.cluster.repair.compare_copies`):
        an in-sync copy rejoins silently, a
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

    def _check_all_writable(self) -> None:
        """A write touches every copy; any dead one fails it before the
        first copy changes."""
        if self._dead:
            node, replica = min(self._dead)
            raise StorageError(
                f"replica {replica} of node {node} is marked dead")

    # ------------------------------------------------------------------
    # Anti-entropy repair
    # ------------------------------------------------------------------
    def repair(self, node: int, replica: int = 0) -> dict:
        """Resync one stale or empty band copy from its live peers
        (:func:`repro.cluster.repair.repair` says how): the peer's
        stored bytes are shipped — only the missing tail to a copy
        that holds a stored prefix, the whole array to a diverged or
        unreadable one — and the copy is *proven* digest-identical to
        a peer before the method returns.

        The copy should be marked dead while it is repaired (the
        revive flow does this naturally): cluster writes refuse while
        any copy is dead, so no version can land mid-resync.  Repair
        under fault injection raises mid-way and is simply retried —
        each array's shipment commits in one transaction, so retries
        converge on what is still missing.  Returns ``{"versions": n,
        "bytes": n}`` — versions shipped and their logical (dense)
        bytes — also recorded in ``stats.repairs`` /
        ``repaired_versions`` / ``repair_bytes`` when any version was
        shipped.
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
        these exactly.  Timestamps are left out: a band's copies share
        their encoder's, but each band stamps its own clock."""
        head = self._head(name)
        return [(version, parent_version, kind, parents)
                for version, parent_version, kind, _, parents
                in self._read_any(
                    lambda manager: _rebalance.version_rows(
                        manager.catalog.snapshot(name)))
                if version <= head]

    # ------------------------------------------------------------------
    # Array lifecycle
    # ------------------------------------------------------------------
    def create_array(self, name: str, schema: ArraySchema,
                     **kwargs) -> None:
        """Create the array's partition on every band copy: a write fan
        (:meth:`_write_all`) of empty handles, each committing the
        create.  Convergent like :meth:`delete_array`: a copy holding the
        name with no versions and this storage identity counts."""
        with self._write_lock:
            if name in self._partitioners:
                raise StorageError(f"array {name!r} already exists")
            partitioner = RangePartitioner(schema.shape, self.nodes)
            schemas = [band_schema(schema, partitioner.local_shape(node))
                       for node in range(self.nodes)]

            def stage(node: int, manager, _) -> writes.Shipment:
                record = writes.new_record(manager, name, schemas[node],
                                           **kwargs)
                if name in manager.list_arrays():  # an earlier attempt's?
                    held = manager.catalog.snapshot(name)
                    if held.get_versions() or held.record != replace(
                            record, array_id=held.record.array_id,
                            created_at=held.record.created_at):
                        raise StorageError(f"array {name!r} already "
                                           f"exists on node {node}")
                    record = held.record  # committed: nothing to create
                return writes.Shipment(record, [], [])

            self._write_all(stage, what=f"array {name!r}", versions=0)
            self._heads[name] = 0
            self._schemas[name] = schema
            self._partitioners[name] = partitioner

    def delete_array(self, name: str) -> None:
        """Drop the array from every copy — convergently.

        A delete cannot be staged (its bytes are gone at once), so the
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
            del self._heads[name]

    def list_arrays(self) -> list[str]:
        return sorted(self._partitioners)

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    def insert(self, name: str, payload: Payload | ArrayData | np.ndarray,
               timestamp: float | None = None) -> int:
        """Split a version into bands and write it on every band copy
        through the write fan (:meth:`_write_all`), numbered one past
        the array's head — so the copies cannot disagree on it.

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
                head = self._head(name)
                version = head + 1

                def stage(node: int, manager, encoded):
                    # Unpublished (its write missed a band): dropped.
                    for stale in reversed(manager.get_versions(name)):
                        if stale <= head:
                            break
                        manager.delete_version(name, stale)
                    if encoded is not None:
                        return writes.place(manager, name, encoded)
                    return writes.stage(
                        manager, name, [locals_by_node[node]],
                        version=version, parent_version=head or None,
                        timestamp=timestamp, ship=True)

                self._write_all(stage, what=f"version {version} of {name!r}")
                self._heads[name] = version
                return version
        raise StorageError(
            f"insert of {name!r} kept racing generation swaps")

    def branch(self, source_name: str, source_version: int,
               new_name: str,
               timestamp: float | None = None):
        """Branch every band copy of the source version (Branch)."""
        self._derive_array(
            new_name, [(source_name, source_version)],
            lambda manager: writes.stage(
                manager, new_name,
                [manager.select(source_name, source_version)],
                kind="branch-root", timestamp=timestamp,
                origin=(source_name, source_version), ship=True))
        return new_name

    def merge(self, parents: list[tuple[str, int]], new_name: str,
              timestamp: float | None = None):
        """Merge parent versions into a new array sequence on every
        band copy (the paper's Merge: versions 1..k replay the
        parents)."""
        if len(parents) < 2:
            raise StorageError("merge requires at least two parent versions")
        self._derive_array(
            new_name, parents,
            lambda manager: writes.stage(
                manager, new_name,
                (manager.select(*parent) for parent in parents),
                kind="merge", timestamp=timestamp,
                merge_parents=[[(array, number)]
                               for array, number in parents],
                origin=(parents[0][0], None), ship=True))
        return new_name

    def _derive_array(self, new_name: str, sources: list[tuple[str, int]],
                      encode) -> None:
        """Branch/merge: write ``new_name`` (one version per published
        source version, all of one schema) through the write fan —
        ``encode(manager)`` stages it on each band's encoder, whose
        siblings place its bytes — and
        register it with a partitioning equal to the first source's but
        of its own, which an online rebalance pass tells from a later
        registration's.  The name must be free on the registry and every
        copy (node arrays outlive a session).  An array that
        commits on some bands but not all stays there, unregistered and
        refused, until an operator drops it."""
        with self._write_lock:
            schema = self._schema(sources[0][0])
            for name, version in sources:
                if self._schema(name) != schema:
                    raise StorageError(
                        "merge parents must share the same schema")
                if version > self._heads[name]:
                    raise StorageError(f"array {name!r} has no published "
                                       f"version {version}")
            if new_name in self._partitioners or any(
                    new_name in manager.list_arrays()
                    for row in self.replicas for manager in row):
                raise StorageError(f"array {new_name!r} already exists")

            def stage(_, manager, encoded):
                return encode(manager) if encoded is None \
                    else writes.place(manager, new_name, encoded)

            self._write_all(stage, what=f"array {new_name!r}",
                            versions=len(sources))
            self._heads[new_name] = len(sources)
            self._schemas[new_name] = schema
            self._partitioners[new_name] = RangePartitioner(schema.shape,
                                                            self.nodes)

    def _write_all(self, stage, *, what: str, versions: int = 1) -> None:
        """The one replicated write fan, under the caller's write lock:
        ``stage(node, manager, encoded)`` (all that touches bytes) on
        every copy returns its :class:`~repro.storage.writes.Shipment`,
        then :func:`~repro.storage.writes.commit` files each (one
        catalog transaction).  Copies stage in :meth:`_pairs` order, so
        each band's first copy — its *encoder* — stages with ``encoded``
        None, and every later copy of the band — a *sibling* — with the
        encoder's handle, whose rows and payloads it places instead of
        encoding the band again (:func:`~repro.storage.writes.place`).
        A dead copy raises first; a stage failure discards every handle
        staged before it and raises, nothing committed.
        Every commit is tried; a copy whose commit raises is fenced
        (marked dead, a warning logged) for revive/repair, even if the
        write then fails.  The write stands when every band has a live
        committed copy (``replica_writes`` counting ``versions`` per
        redundant one), else raises naming the bands that lack
        ``what``."""
        self._check_all_writable()
        pairs = self._pairs()
        encoders: dict[int, writes.Shipment] = {}
        handles: list[writes.Shipment] = []
        try:
            for node, replica in pairs:
                handle = stage(node, self.replicas[node][replica],
                               encoders.get(node))
                encoders.setdefault(node, handle)
                handles.append(handle)
        except BaseException:
            for (node, replica), handle in zip(pairs, handles):
                with suppress(ReproError):  # raise the stage's error
                    writes.discard(self.replicas[node][replica],
                                   handle.record)
            raise
        for (node, replica), handle in zip(pairs, handles):
            try:
                writes.commit(self.replicas[node][replica], handle)
            except Exception as exc:  # fenced: the fan never stops
                self._dead.add((node, replica))
                _log.warning("fenced replica %d of node %d: its commit of "
                             "%s failed (%s)", replica, node, what, exc)
        committed = [pair for pair in pairs if pair not in self._dead]
        lacking = sorted(set(range(self.nodes))
                         - {node for node, _ in committed})
        if lacking:
            raise StorageError(
                f"{what} committed on no live copy of band(s) {lacking}")
        self.stats.record_replica_writes(
            (len(committed) - self.nodes) * versions)

    def get_versions(self, name: str) -> list[int]:
        """The array's published versions: up to its head."""
        head = self._head(name)
        return [version for version in self._read_any(
            lambda manager: manager.get_versions(name)) if version <= head]

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
        band served by its first live replica (reads fail over) and
        filling its window of the result itself
        (``select_region(out=)``): one copy per band from a held head.
        The whole query runs against one pinned generation, so an
        online rebalance swapping mid-query can neither mix topologies
        nor close the managers the query is reading."""
        with self._pinned() as gen:
            partitioner = self._published(gen, name, [version])
            schema = gen.schemas[name]
            lo, hi = region_corners(schema, corner_lo, corner_hi)
            region_shape = tuple(h - l + 1 for l, h in zip(lo, hi))
            axis = partitioner.axis
            canvases = {attr.name: np.empty(region_shape, dtype=attr.dtype)
                        for attr in schema.attributes}
            for band in partitioner.bands_overlapping(lo, hi):
                local_lo, local_hi = partitioner.clip_region(band, lo, hi)
                index = axis_index(schema.ndim, axis,
                                   max(lo[axis], band.lo) - lo[axis],
                                   min(hi[axis], band.hi) - lo[axis])
                windows = {attr: canvas[index]
                           for attr, canvas in canvases.items()}
                self._read_node(
                    band.node,
                    lambda manager: manager.select_region(
                        name, version, local_lo, local_hi, out=windows),
                    gen)
        return ArrayData(schema.sliced(region_shape), canvases)

    @staticmethod
    def _published(gen: "_Generation", name: str,
                   versions: list[int]) -> RangePartitioner:
        """``name``'s partitioner in ``gen``, once every version in
        ``versions`` is published there (none above its head)."""
        partitioner = gen.partitioners.get(name)
        if partitioner is None:
            raise StorageError(
                f"array {name!r} is not registered with this coordinator")
        for version in versions:
            if version > gen.heads[name]:
                raise StorageError(f"array {name!r} has no "
                                   f"published version {version}")
        return partitioner

    def select_versions(self, name: str, versions: list[int],
                        attribute: str | None = None) -> np.ndarray:
        """The stacked (N+1-dimensional) select across the cluster: one
        stacked read per band (``select_versions_region``, failing over
        per band), so a range over a chain reads each band's payloads
        once, and each band's stack lands in its window of every
        layer."""
        with self._pinned() as gen:
            partitioner = self._published(gen, name, versions)
            schema = gen.schemas[name]
            attr = schema.attribute(attribute or schema.attributes[0].name)
            stack = np.empty((len(versions), *schema.shape), attr.dtype)
            whole = tuple(extent - 1 for extent in schema.shape)
            for band in partitioner.bands:
                lo, hi = partitioner.clip_region(band, (0,) * len(whole),
                                                 whole)
                stack[(slice(None), *axis_index(
                    schema.ndim, partitioner.axis, band.lo, band.hi))] = \
                    self._read_node(band.node, lambda manager: (
                        manager.select_versions_region(
                            name, versions, lo, hi, attr.name)), gen)
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
        replication guarantees); dead copies are skipped, and a
        repair later ships them the layout of the peer it reads."""
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

    def node_stats(self) -> list[IOStats]:
        """Per-node I/O counters of the primary copies (routing tests
        use these)."""
        return [row[0].stats for row in self.replicas]

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
                        data.attribute(attr.name)))
        return digest.hexdigest()

    def close(self) -> None:
        self._live.close()

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

    def _head(self, name: str) -> int:
        self._partitioner(name)
        return self._heads[name]

    def _normalize(self, name: str,
                   payload: Payload | ArrayData | np.ndarray) -> ArrayData:
        schema = self._schema(name)
        if isinstance(payload, ArrayData):
            # Band slicing would crop or cast a foreign layout silently.
            return payload.conforming(schema)
        if isinstance(payload, np.ndarray):
            return ArrayData.from_single(schema, payload)
        return payload.to_array_data(schema)
