"""Online rebalance: a private fleet, catch-up passes, one swap.

The driver behind :meth:`ClusterCoordinator.rebalance` (which states
the contract, validates, and holds the maintenance lock around
:func:`rebalance`), as module-level functions taking the coordinator,
which builds the new generation; this module fills it directly.  No
reader reaches it before the swap and any error removes all of it, so
nothing written into it is ever undone.  The chaos suite interleaves
faults and writes by patching :func:`_migrate_version` and
:func:`_sync_generation` on this module.
"""

from __future__ import annotations

import logging
from operator import attrgetter

import numpy as np

from repro.cluster.partitioning import (
    RangePartitioner,
    axis_index,
    band_schema,
    rebalance_plan,
)
from repro.cluster.repair import recreate
from repro.core.array import ArrayData
from repro.core.errors import ReproError

_log = logging.getLogger("repro.cluster")

#: How many unlocked catch-up passes an online rebalance runs before
#: taking the write lock for the final pass.  The bound only limits
#: how much write traffic is absorbed *without* blocking writers —
#: convergence never depends on it, because the final pass runs with
#: writes excluded and therefore syncs against a frozen cluster in
#: one sweep.
REBALANCE_CATCHUP_PASSES = 8

#: What an array's record fixes besides its band geometry: the storage
#: parameters and branch origin every copy shares.
_ORIGIN = attrgetter("chunk_bytes", "compressor", "chunk_shape",
                     "parent_array", "parent_version")


class _Moved(Exception):
    """The array a pass is reading was deleted, or deleted and
    re-created, since the pass took its registration."""


def version_rows(snap) -> list[tuple]:
    """The one lineage-row reader: full rows — (version, parent, kind,
    timestamp, merge parents) in version order — of one array, all
    from one catalog snapshot of one copy."""
    return [(row.version, row.parent_version, row.kind, row.timestamp,
             tuple(snap.merge_parents_of(row.version)))
            for row in snap.get_versions()]


def rebalance(cluster, new_node_count: int, seed: int) -> int:
    """Build generation ``k+1`` on ``new_node_count`` nodes, catch it
    up, swap it in, drain generation ``k`` and remove it.

    A deterministic :func:`rebalance_plan` (fixed by ``seed``) maps
    old bands onto new ones; each slab is read from the first live
    replica of its source band (so a cluster with dead copies can
    still be evacuated while a quorum survives) and every version
    replays, in order, onto every copy of a private fleet of managers
    under ``root/gen<k>`` — with its *source* lineage row, so insert
    vs branch-root vs merge kinds, parent links, and merge parents
    survive the reshard.

    The build is online: the old generation keeps serving reads
    (and accepting writes) while the new one is copied, and a
    catch-up loop re-syncs arrays and versions written
    mid-migration.  Only the *final* catch-up pass and the
    generation swap run under the cluster write lock — with
    writes excluded the cluster is frozen, so one sweep provably
    converges, the new generation is adopted, and in-flight reads
    drain before the old managers are closed and removed.
    """
    number = cluster._live.number + 1
    fresh = None
    try:
        fresh = cluster._build_generation(number, new_node_count)
        # Initial copy plus bounded catch-up, all outside the
        # write lock: the cluster keeps serving both reads and
        # writes while the bulk of the migration runs.
        _sync_generation(cluster, fresh, seed)
        passes = 0
        for _ in range(REBALANCE_CATCHUP_PASSES):
            passes += 1
            if not _sync_generation(cluster, fresh, seed):
                break
        # The brief exclusive window: writers blocked, one final
        # catch-up against the now-frozen cluster, then the swap.
        with cluster._write_lock:
            _sync_generation(cluster, fresh, seed)
            migrated = sum(manager.stats.chunks_written
                           for row in fresh.replicas
                           for manager in row)
            # The swap site: the fresh fleet and its routing state
            # become the live generation in one attribute store.
            old_gen = cluster._live
            cluster._live = fresh
            cluster._dead = set()
    except BaseException:
        # The fleet nobody could reach goes whole (a later rebalance
        # must never adopt its node roots as pre-existing state), and
        # a close error must not mask the error that sank the migration.
        if fresh is not None:
            fresh.close(suppress=True)
            fresh.remove()
        raise
    _log.info("generation swap %d -> %d: %d nodes, %d catch-up passes, "
              "%d migrated chunks", old_gen.number, number,
              new_node_count, passes, migrated)
    # Release the old generation only after every in-flight read
    # that pinned it has finished — closing a manager out from
    # under a serving read is exactly what "online" must not do.
    old_gen.wait_drained()
    old_gen.close()
    old_gen.remove()
    cluster.stats.record_migrated_chunks(migrated)
    return migrated


def _sync_generation(cluster, fresh, seed: int) -> bool:
    """One catch-up pass: make ``fresh`` logically identical to
    the cluster's *current* contents.  Returns whether the pass
    changed anything or skipped an array — a False means the
    generations were already converged when the pass ran."""
    changed = False
    names = cluster.list_arrays()
    for name in sorted(set(fresh.partitioners) - set(names)):
        # Deleted cluster-wide mid-migration.
        for row in fresh.replicas:
            for manager in row:
                manager.delete_array(name)
        del fresh.partitioners[name]
        del fresh.schemas[name]
        del fresh.heads[name]
        changed = True
    for name in names:
        try:
            changed |= _sync_array(cluster, fresh, name, seed)
        except _Moved:
            changed = True
    return changed


def _sync_array(cluster, fresh, name: str, seed: int) -> bool:
    """Catch one array up in the fresh generation, to its head.

    The already-migrated prefix (read from copy (0, 0): every copy
    received the same writes) is validated by schema, :data:`_ORIGIN`
    and *lineage rows including timestamps* (the replay preserves the
    source rows verbatim, and source timestamps are strictly
    increasing per replica) — so an array deleted and re-created
    under the same name can never masquerade as a valid prefix, not
    even with no versions; it is re-created on every copy.  Versions
    past the prefix replay slab-by-slab with their source rows onto
    every copy at once; the first error propagates.

    An unlocked pass runs beside writers: an array deleted, or
    deleted and re-created, under it raises :class:`_Moved`, and the
    next pass settles it.  The final pass excludes writers, so no
    registration changes under it and it never skips.
    """
    source = cluster._partitioners.get(name)
    schema = cluster._schemas.get(name)
    head = cluster._heads.get(name)
    if source is None or schema is None or head is None:
        raise _Moved(name)
    record, source_rows = _read_source(
        cluster, name, source,
        lambda: cluster._read_any(lambda manager: _held(manager, name)))
    source_rows = [row for row in source_rows if row[0] <= head]
    held_record, held = _held(fresh.replicas[0][0], name) \
        if fresh.schemas.get(name) == schema else (None, None)
    rebuilt = held is None or _ORIGIN(held_record) != _ORIGIN(record) \
        or held != source_rows[:len(held)]
    if rebuilt:
        partitioner = RangePartitioner(schema.shape, fresh.nodes)
        for node, row in enumerate(fresh.replicas):
            band = band_schema(schema, partitioner.local_shape(node))
            for manager in row:
                recreate(manager, name, band, record)
        fresh.partitioners[name] = partitioner
        fresh.schemas[name] = schema
        fresh.heads[name] = 0
        held = []
    tail = source_rows[len(held):]
    plan = (source, rebalance_plan(source, fresh.partitioners[name],
                                   seed=seed))
    copies = [(node, manager) for node, row in enumerate(fresh.replicas)
              for manager in row]
    for version, parent_version, kind, timestamp, parents in tail:
        bands = _migrate_version(cluster, name, version, plan, fresh)
        for node, manager in copies:
            manager.replay_version(
                name, bands[node], version=version, kind=kind,
                parent_version=parent_version, timestamp=timestamp,
                merge_parents=list(parents) or None)
        fresh.heads[name] = version
    return rebuilt or bool(tail)


def _held(manager, name: str) -> tuple:
    """One copy's record and lineage rows of ``name``, from one
    snapshot."""
    snap = manager.catalog.snapshot(name)
    return snap.record, version_rows(snap)


def _read_source(cluster, name: str, source, read):
    """``read()`` against the old generation for a pass that took
    registration ``source`` of ``name``, or :class:`_Moved` if that
    registration is gone — checked first, so a deleted array is never
    read (nor counted as a failover), and again after a failed read."""
    if cluster._partitioners.get(name) is not source:
        raise _Moved(name)
    try:
        return read()
    except ReproError:
        if cluster._partitioners.get(name) is not source:
            raise _Moved(name) from None
        raise


def _migrate_version(cluster, name: str, version: int, plan,
                     fresh) -> list[ArrayData]:
    """Rebuild one version's new band payloads from slab reads
    against the old cluster (failover-capable).  ``plan`` is the
    registered partitioner the pass started from and its
    :func:`rebalance_plan` slabs onto ``fresh``'s bands."""
    source, slabs = plan
    schema = fresh.schemas[name]
    new = fresh.partitioners[name]
    axis = source.axis
    canvases = [
        {attr.name: np.empty(new.local_shape(node),
                             dtype=attr.dtype)
         for attr in schema.attributes}
        for node in range(fresh.nodes)]
    lo = [0] * schema.ndim
    hi = [extent - 1 for extent in schema.shape]
    for slab in slabs:
        lo[axis], hi[axis] = slab.lo, slab.hi
        local_lo, local_hi = source.clip_region(
            source.band_of(slab.source), lo, hi)
        part = _read_source(
            cluster, name, source,
            lambda: cluster._read_node(
                slab.source,
                lambda manager: manager.select_region(
                    name, version, local_lo, local_hi)))
        target_band = new.band_of(slab.target)
        dest = axis_index(schema.ndim, axis, slab.lo - target_band.lo,
                          slab.hi - target_band.lo)
        for attr in schema.attributes:
            canvases[slab.target][attr.name][dest] = \
                part.attribute(attr.name)
    return [
        ArrayData(band_schema(schema, new.local_shape(node)),
                  canvases[node])
        for node in range(fresh.nodes)]
