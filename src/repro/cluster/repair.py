"""Anti-entropy repair: copy digests and the resync driver.

The flows behind :meth:`ClusterCoordinator.repair` (which states the
contract, validates, and holds the maintenance lock around
:func:`repair`), ``replica_digest`` and the verified ``revive`` /
``revive_node``, as module-level functions taking the coordinator.
"""

from __future__ import annotations

import hashlib
import logging
import shutil
from functools import partial

from repro.cluster.sync import recreate, replay_row, stale_tail, version_rows
from repro.core.errors import ReproError, StorageError
from repro.storage.manager import VersionedStorageManager

_log = logging.getLogger("repro.cluster")


def registry_digest(cluster, manager) -> str:
    """One copy's digest over the coordinator's array registry —
    the comparison is anchored to the *cluster's* array set, so a
    copy that is missing an array (or that still holds one deleted
    cluster-wide) digests differently instead of raising."""
    digest = hashlib.sha256()
    held = set(manager.list_arrays())
    registered = cluster.list_arrays()
    for array_name in registered:
        if array_name in held:
            digest.update(
                manager.logical_digest(array_name).encode())
        else:
            digest.update(f"missing:{array_name}".encode())
    for extra in sorted(held - set(registered)):
        digest.update(f"extra:{extra}".encode())
    return digest.hexdigest()


def replica_in_sync(cluster, node: int, replica: int,
                    peers: list[int]) -> bool:
    """Whether one band copy's registry-scoped logical digest
    matches the first live peer that can serve the comparison.
    An unreadable target counts as out of sync; no serving peer
    counts as in sync (recovery must not deadlock on an
    unverifiable cluster)."""
    try:
        target = registry_digest(cluster, cluster.replicas[node][replica])
    except ReproError:
        return False
    try:
        return target == cluster._read_node(
            node, partial(registry_digest, cluster), replicas=peers)
    except ReproError:
        return True


def revive(cluster, copies: list[tuple[int, int]], repair: bool) -> None:
    """The one verified revive: collect the copies whose digest
    differs from their live peers', refuse (or repair them all),
    and only then clear the marks."""
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
    digest verification proves before the function returns.
    """
    target = cluster.replicas[node][replica]
    read = partial(cluster._read_node, node, replicas=peers)
    versions = nbytes = rebuilt = 0
    registry = cluster.list_arrays()
    for extra in sorted(set(target.list_arrays()) - set(registry)):
        # Deleted cluster-wide while this copy was dead.
        target.delete_array(extra)
    for name in registry:
        source_digests = read(lambda m: m.version_digests(name))
        try:
            target_digests = target.version_digests(name)
        except ReproError:
            target_digests = None
        if target_digests == source_digests:
            continue

        def rebuild() -> None:
            record = read(lambda m: m.catalog.get_array(name))
            recreate(target, name, record.schema, record)

        tail, was_rebuilt = stale_tail(
            target_digests, source_digests,
            version_rows(cluster, name, node, peers), rebuild)
        rebuilt += was_rebuilt
        for row in tail:
            data = read(lambda m: m.select(name, row[0]))
            replay_row(target, name, data, row)
            versions += 1
            nbytes += sum(data.attribute(attr.name).nbytes
                          for attr in data.schema.attributes)
    # The whole point is a *provably* identical copy: verify the
    # registry digest against a live peer before reporting success.
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
