"""Anti-entropy repair: the copy comparison and the resync driver.

The flows behind :meth:`ClusterCoordinator.repair` (which states the
contract, validates, and holds the maintenance lock around
:func:`repair`) and the verified ``revive`` / ``revive_node``, as
module-level functions taking the coordinator.  Repair, its closing
verification and revive compare copies through :func:`compare_copies`
only.
"""

from __future__ import annotations

import logging
import shutil
from functools import partial

from repro.cluster.sync import recreate, replay_row, stale_tail, version_rows
from repro.core.errors import ReproError, StorageError
from repro.storage.manager import VersionedStorageManager

_log = logging.getLogger("repro.cluster")


def compare_copies(target, name: str, read) -> tuple[list | None,
                                                   list | None]:
    """The one comparison of an array's two copies: ``(held, source)``
    per-version keys for :func:`stale_tail`, from the cheapest
    comparison that settles it.

    Stored digests come first
    (:meth:`~repro.storage.manager.VersionedStorageManager.stored_digests`,
    no decode): equal stored bytes mean equal contents, so equal lists
    mean in sync and a target list that is a prefix of the source's
    means only the tail is missing.  Anything else — the copies store
    their versions differently, say after one of them re-organized —
    proves nothing, and both sides' logical
    :meth:`~repro.storage.manager.VersionedStorageManager.version_digests`
    are compared instead.  ``held`` is None when the target lacks the
    array, cannot read it, or disagrees with the peer's record on
    schema or branch origin: such a copy is rebuilt whatever the peer
    holds, so ``source`` is then None too.  ``read`` is the failover
    reader over the target's live peers; only its errors escape.
    """
    try:
        identity = _identity(target, name)
        held = target.stored_digests(name)
    except ReproError:
        return None, None
    source_identity, source = read(
        lambda peer: (_identity(peer, name), peer.stored_digests(name)))
    if identity != source_identity:
        return None, None
    if held == source[:len(held)]:
        return held, source
    try:
        held = target.version_digests(name)
    except ReproError:
        return None, None
    return held, read(lambda peer: peer.version_digests(name))


def _identity(manager, name: str) -> tuple:
    """The part of an array's record a select or lineage query sees."""
    record = manager.catalog.get_array(name)
    return (record.schema.to_dict(), record.parent_array,
            record.parent_version)


def replica_in_sync(cluster, node: int, replica: int,
                    peers: list[int]) -> bool:
    """Whether one band copy holds the cluster's arrays (no missing,
    no extra) and, per array, the versions of the first live peer
    that can serve the comparison, by :func:`compare_copies` — so an
    intact copy is verified without decoding a version.  An unreadable
    target counts as out of sync; no serving peer counts as in sync
    (recovery must not deadlock on an unverifiable cluster)."""
    target = cluster.replicas[node][replica]
    registry = cluster.list_arrays()
    try:
        if set(target.list_arrays()) != set(registry):
            return False
    except ReproError:
        return False
    read = partial(cluster._read_node, node, replicas=peers)
    try:
        for name in registry:
            held, source = compare_copies(target, name, read)
            if held is None or held != source:
                return False
    except ReproError:
        return True
    return True


def revive(cluster, copies: list[tuple[int, int]], repair: bool) -> None:
    """The one verified revive: collect the copies not in sync with
    their live peers (:func:`replica_in_sync`), refuse (or repair them
    all), and only then clear the marks."""
    stale = []
    for node, replica in copies:
        peers = cluster._live_peers(node, replica)
        if peers and not replica_in_sync(cluster, node, replica, peers):
            stale.append((node, replica))
    if stale and not repair:
        raise StorageError(
            f"stale copies {stale}: each is stale — its logical "
            f"digest does not match its live peers'; "
            f"repair(node, replica) them first or revive with "
            f"repair=True")
    for node, replica in stale:
        cluster.repair(node, replica)
    cluster._dead.difference_update(copies)


def replace_replica(cluster, node: int,
                    replica: int) -> VersionedStorageManager:
    """Swap copy ``(node, replica)`` for a blank manager at the same
    root and mark it dead (see
    :meth:`ClusterCoordinator.replace_replica`)."""
    if not cluster._live_peers(node, replica):
        # Nothing is closed or removed before this check: wiping
        # the band's last live copy would lose it for good while
        # the cluster went on reporting healthy.
        raise StorageError(
            f"no live peer replica of node {node}: replacing "
            f"replica {replica} would destroy the band's last "
            f"live copy (replication={cluster.replication})")
    old = cluster.replicas[node][replica]
    root = old.root
    old.close()
    if root.exists():
        shutil.rmtree(root)
    fresh = VersionedStorageManager(
        root, backend=cluster._backend_spec, workers=cluster.workers,
        **cluster._manager_kwargs)
    cluster.replicas[node][replica] = fresh
    cluster._dead.add((node, replica))
    return fresh


def repair(cluster, node: int, replica: int, peers: list[int]) -> dict:
    """Resync copy ``(node, replica)`` from its live ``peers``.

    Per array, :func:`compare_copies` compares the copy against the
    first live peer replica that can serve (peer reads fail over) —
    stored digests first, logical digests only when the two store
    their versions differently; a copy whose list is a strict prefix
    of its peer's replays only the missing tail, a diverged or
    unreadable copy is dropped and rebuilt in full, and arrays deleted
    cluster-wide while the copy was dead are dropped from it.
    Every replayed version goes through the managers' transactional
    write path with its *source* lineage row — kind, parent link,
    merge parents, timestamp — so the repaired copy answers
    lineage queries identically to its peers, which the closing
    :func:`replica_in_sync` proves before the function returns.
    """
    target = cluster.replicas[node][replica]
    read = partial(cluster._read_node, node, replicas=peers)
    versions = nbytes = rebuilt = 0
    registry = cluster.list_arrays()
    for extra in sorted(set(target.list_arrays()) - set(registry)):
        # Deleted cluster-wide while this copy was dead.
        target.delete_array(extra)
    for name in registry:
        held, source = compare_copies(target, name, read)
        if held is not None and held == source:
            continue

        def rebuild() -> None:
            record = read(lambda m: m.catalog.get_array(name))
            recreate(target, name, record.schema, record)

        tail, was_rebuilt = stale_tail(
            held, source, version_rows(cluster, name, node, peers),
            rebuild)
        rebuilt += was_rebuilt
        for row in tail:
            data = read(lambda m: m.select(name, row[0]))
            replay_row(target, name, data, row)
            versions += 1
            nbytes += sum(data.attribute(attr.name).nbytes
                          for attr in data.schema.attributes)
    # The whole point is a *provably* identical copy: verify it
    # against a live peer before reporting success.
    if not replica_in_sync(cluster, node, replica, peers):
        raise StorageError(
            f"repair of replica {replica} of node {node} did not "
            f"converge: logical digest still differs from its "
            f"live peers'")
    if versions:
        cluster.stats.record_repair(versions, nbytes)
    _log.info("repair node=%d replica=%d: %d versions, %d bytes "
              "(%d arrays rebuilt, the rest tail-replayed)",
              node, replica, versions, nbytes, rebuilt)
    return {"versions": versions, "bytes": nbytes}
