"""Anti-entropy repair: the copy comparison and the resync driver.

The flows behind :meth:`ClusterCoordinator.repair` (which states the
contract, validates, and holds the maintenance lock around
:func:`repair`) and the verified ``revive`` / ``revive_node``, as
module-level functions taking the coordinator.  Repair, its closing
verification and revive compare copies through :func:`compare_copies`
only; :func:`recreate` also serves the rebalance catch-up.
"""

from __future__ import annotations

import logging
import shutil
from functools import partial

from repro.core.errors import ReproError, StorageError
from repro.storage.manager import VersionedStorageManager

_log = logging.getLogger("repro.cluster")


def compare_copies(target, name: str, read) -> tuple[int | None, str]:
    """The one comparison of an array's two copies, by the cheapest
    comparison that settles it: ``(after, why)``.

    ``after`` is None when the copies are in sync.  Otherwise the
    target needs the source's stored versions numbered above
    ``after``: its own last version when it holds a strict prefix of
    the source's, else 0 — and then its copy of the array is dropped
    and re-created first.  ``why`` names the comparison that failed.

    Stored digests come first
    (:meth:`~repro.storage.manager.VersionedStorageManager.stored_digests`,
    no decode): equal stored bytes mean equal contents, so equal lists
    mean in sync and a target list that is a strict prefix of the
    source's means only the tail is missing.  Anything else — the
    copies store their versions differently, say after one of them
    re-organized — proves nothing, and both sides' logical
    :meth:`~repro.storage.manager.VersionedStorageManager.version_digests`
    decide: equal lists mean in sync (a copy re-organized while dead
    needs no work), anything else a rebuild.  A target that lacks the
    array, cannot read it, or disagrees with the peer's record on
    schema or branch origin is rebuilt whatever the peer holds.
    ``read`` is the failover reader over the target's live peers; only
    its errors escape.
    """
    try:
        identity = _identity(target, name)
        held = target.stored_digests(name)
    except ReproError as exc:
        return 0, f"its {name!r} cannot be read ({exc})"
    source_identity, source = read(
        lambda peer: (_identity(peer, name), peer.stored_digests(name)))
    if identity != source_identity:
        return 0, f"its {name!r} record differs from its peer's"
    if held == source:
        return None, ""
    if held and held == source[:len(held)]:
        return held[-1][0], (f"its stored digests of {name!r} are a "
                             f"strict prefix of its peer's")
    try:
        logical = target.version_digests(name)
    except ReproError as exc:
        return 0, f"its {name!r} cannot be decoded ({exc})"
    if logical == read(lambda peer: peer.version_digests(name)):
        return None, ""
    return 0, (f"neither its stored nor its logical digests of {name!r} "
               f"match its peer's")


def recreate(manager, name: str, schema, record) -> None:
    """Drop ``name`` from one manager if it holds it, and create it
    empty with ``schema`` and the storage parameters and branch origin
    of the source :class:`~repro.storage.metadata.ArrayRecord`."""
    if name in manager.list_arrays():
        manager.delete_array(name)
    manager.create_array(name, schema,
                         chunk_bytes=record.chunk_bytes,
                         compressor=record.compressor,
                         chunk_shape=record.chunk_shape,
                         parent_array=record.parent_array,
                         parent_version=record.parent_version)


def _identity(manager, name: str) -> tuple:
    """The part of an array's record a select or lineage query sees."""
    record = manager.catalog.get_array(name)
    return (record.schema.to_dict(), record.parent_array,
            record.parent_version)


def why_stale(cluster, node: int, replica: int,
              peers: list[int]) -> str | None:
    """Why one band copy is out of sync, or None when it holds the
    cluster's arrays (no missing, no extra) and, per array, the
    versions of the first live peer that can serve the comparison, by
    :func:`compare_copies` — so an intact copy is verified without
    decoding a version.  An unreadable target is out of sync; no
    serving peer counts as in sync (recovery must not deadlock on an
    unverifiable cluster)."""
    target = cluster.replicas[node][replica]
    registry = cluster.list_arrays()
    try:
        held = target.list_arrays()
    except ReproError as exc:
        return f"its catalog cannot be read ({exc})"
    if set(held) != set(registry):
        return f"it holds arrays {sorted(held)}, the cluster {registry}"
    read = partial(cluster._read_node, node, replicas=peers)
    try:
        for name in registry:
            after, why = compare_copies(target, name, read)
            if after is not None:
                return why
    except ReproError:
        return None
    return None


def revive(cluster, copies: list[tuple[int, int]], repair: bool) -> None:
    """The one verified revive: collect the copies not in sync with
    their live peers (:func:`why_stale`), refuse (or repair them all),
    and only then clear the marks."""
    stale = {}
    for node, replica in copies:
        peers = cluster._live_peers(node, replica)
        why = why_stale(cluster, node, replica, peers) if peers else None
        if why is not None:
            stale[node, replica] = why
    if stale and not repair:
        reasons = "; ".join(f"{copy}: {why}" for copy, why in stale.items())
        raise StorageError(
            f"stale copies {list(stale)}: each is stale — {reasons}; "
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
    fresh = cluster._new_manager(root)
    cluster.replicas[node][replica] = fresh
    cluster._dead.add((node, replica))
    return fresh


def repair(cluster, node: int, replica: int, peers: list[int]) -> dict:
    """Resync copy ``(node, replica)`` from its live ``peers`` by
    shipping stored bytes.

    Per array, :func:`compare_copies` compares the copy against the
    first live peer replica that can serve: in sync is skipped, a copy
    whose stored list is a strict prefix of its peer's receives only
    the missing versions, and anything else — diverged, unreadable,
    absent, or stored differently and logically unequal — is dropped,
    re-created and receives the whole array.  Arrays deleted
    cluster-wide while the copy was dead are dropped from it.

    The peer side is one failover read per array
    (:meth:`~repro.storage.manager.VersionedStorageManager.export_versions`:
    record, lineage rows, chunk rows and payloads from one snapshot,
    decoding nothing); the target side, outside the failover so a
    target fault never counts as one, places the payloads, raises one
    barrier and commits every version in one catalog swap
    (:meth:`~repro.storage.manager.VersionedStorageManager.import_versions`,
    encoding nothing).  The repaired copy therefore stores exactly its
    source's bytes and lineage rows — kinds, parents, merge parents,
    timestamps — which the closing :func:`why_stale` proves before
    the function returns.  ``"bytes"`` counts logical bytes: the
    band's dense version size per version shipped.
    """
    target = cluster.replicas[node][replica]
    read = partial(cluster._read_node, node, replicas=peers)
    versions = nbytes = rebuilt = 0
    registry = cluster.list_arrays()
    for extra in sorted(set(target.list_arrays()) - set(registry)):
        # Deleted cluster-wide while this copy was dead.
        target.delete_array(extra)
    for name in registry:
        after, _ = compare_copies(target, name, read)
        if after is None:
            continue
        shipment = read(lambda peer: peer.export_versions(name, after))
        if not after:
            recreate(target, name, shipment.record.schema, shipment.record)
            rebuilt += 1
        target.import_versions(name, shipment)
        versions += len(shipment.versions)
        nbytes += len(shipment.versions) * shipment.record.schema.dense_size
    # The whole point is a *provably* identical copy: verify it
    # against a live peer before reporting success.
    why = why_stale(cluster, node, replica, peers)
    if why is not None:
        raise StorageError(
            f"repair of replica {replica} of node {node} did not "
            f"converge: {why}")
    if versions:
        cluster.stats.record_repair(versions, nbytes)
    _log.info("repair node=%d replica=%d: %d versions, %d bytes "
              "(%d arrays rebuilt, the rest tail-shipped)",
              node, replica, versions, nbytes, rebuilt)
    return {"versions": versions, "bytes": nbytes}
