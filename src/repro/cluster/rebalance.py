"""Online rebalance: generation build, catch-up passes, the swap.

The driver behind :meth:`ClusterCoordinator.rebalance` (which states
the contract, validates, and holds the maintenance lock around
:func:`rebalance`), as module-level functions taking the coordinator.
The chaos suite interleaves faults and writes by patching
:func:`_migrate_version` and :func:`_sync_generation` on this module.
"""

from __future__ import annotations

import logging
import shutil

import numpy as np

from repro.cluster.partitioning import (
    axis_index,
    band_schema,
    rebalance_plan,
)
from repro.cluster.sync import recreate, stale_tail, version_rows
from repro.core.array import ArrayData

_log = logging.getLogger("repro.cluster")

#: How many unlocked catch-up passes an online rebalance runs before
#: taking the write lock for the final pass.  The bound only limits
#: how much write traffic is absorbed *without* blocking writers —
#: convergence never depends on it, because the final pass runs with
#: writes excluded and therefore syncs against a frozen cluster in
#: one sweep.
REBALANCE_CATCHUP_PASSES = 8


def rebalance(cluster, new_node_count: int, seed: int) -> int:
    """Build generation ``k+1`` on ``new_node_count`` nodes, catch it
    up, swap it in and retire generation ``k``.

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
    drain before the old managers are closed and removed.
    """
    number = cluster._live.number + 1
    new_root = cluster.root / f"gen{number}"
    fresh = None
    try:
        fresh = type(cluster)(
            new_root, nodes=new_node_count,
            replication=cluster.replication,
            partition_axis=cluster.partition_axis,
            backend=cluster._backend_spec, workers=cluster.workers,
            **cluster._manager_kwargs)
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
            fresh._shutdown_executor()
            # The swap site: the fresh fleet and its routing state
            # become the live generation in one attribute store.
            old_gen = cluster._live
            fresh._live.number = number
            cluster._live = fresh._live
            cluster._dead = set()
    except BaseException:
        # The half-built generation must be removed whatever failed
        # (a later rebalance must never adopt its node roots as
        # pre-existing state), and a close error during that cleanup
        # must not mask the error that sank the migration.
        if fresh is not None:
            fresh._shutdown_executor()
            fresh._close_managers(suppress=True)
        if new_root.exists():
            shutil.rmtree(new_root)
        raise
    _log.info("generation swap %d -> %d: %d nodes, %d catch-up passes, "
              "%d migrated chunks", old_gen.number, number,
              new_node_count, passes, migrated)
    # The node fan-out pool was sized for the old replica grid;
    # drop it so the next fan-out recreates it at the new width.
    cluster._shutdown_executor()
    # Release the old generation only after every in-flight read
    # that pinned it has finished — closing a manager out from
    # under a serving read is exactly what "online" must not do.
    old_gen.wait_drained()
    for row in old_gen.replicas:
        for manager in row:
            manager.close()
            if manager.root.exists():
                shutil.rmtree(manager.root)
    old_base = cluster.root / f"gen{old_gen.number}"
    if old_gen.number and old_base.exists():
        # Generation 0 lives directly under the cluster root; later
        # generations get their own base directory, removed once
        # its node roots are gone.
        shutil.rmtree(old_base)
    cluster.stats.record_migrated_chunks(migrated)
    return migrated


def _sync_generation(cluster, fresh, seed: int) -> bool:
    """One catch-up pass: make ``fresh`` logically identical to
    the cluster's *current* contents.  Returns whether the pass
    changed anything — a False means the generations were already
    converged when the pass ran."""
    changed = False
    names = set(cluster.list_arrays())
    for name in list(fresh.list_arrays()):
        if name not in names:
            # Deleted cluster-wide mid-migration.
            fresh.delete_array(name)
            changed = True
    for name in cluster.list_arrays():
        changed |= _sync_array(cluster, fresh, name, seed)
    return changed


def _sync_array(cluster, fresh, name: str, seed: int) -> bool:
    """Catch one array up in the fresh generation.

    The already-migrated prefix is validated by *lineage rows
    including timestamps* (the replay preserves the source rows
    verbatim, and source timestamps are strictly increasing per
    replica) — so an array that was deleted and re-created under
    the same name mid-migration can never masquerade as a valid
    prefix; it is dropped and rebuilt.  Versions beyond the valid
    prefix replay slab-by-slab with their source lineage rows.
    """
    source_rows = version_rows(cluster, name)
    fresh_rows = version_rows(fresh, name) \
        if name in fresh._partitioners else None

    def rebuild() -> None:
        record = cluster._read_node(
            0, lambda manager: manager.catalog.get_array(name))
        recreate(fresh, name, cluster._schemas[name], record)

    tail, rebuilt = stale_tail(fresh_rows, source_rows, source_rows,
                               rebuild)
    plan = rebalance_plan(cluster._partitioners[name],
                          fresh._partitioners[name], seed=seed)
    for row in tail:
        fresh._replay(
            name, _migrate_version(cluster, name, row[0], plan, fresh),
            row)
    return rebuilt or bool(tail)


def _migrate_version(cluster, name: str, version: int, plan,
                     fresh) -> list[ArrayData]:
    """Rebuild one version's new band payloads from slab reads
    against the old cluster (failover-capable)."""
    schema = cluster._schemas[name]
    old = cluster._partitioners[name]
    new = fresh._partitioners[name]
    axis = old.axis
    canvases = [
        {attr.name: np.empty(new.local_shape(node),
                             dtype=attr.dtype)
         for attr in schema.attributes}
        for node in range(fresh.nodes)]
    lo = [0] * schema.ndim
    hi = [extent - 1 for extent in schema.shape]
    for slab in plan:
        lo[axis], hi[axis] = slab.lo, slab.hi
        local_lo, local_hi = old.clip_region(old.band_of(slab.source),
                                             lo, hi)
        part = cluster._read_node(
            slab.source,
            lambda manager: manager.select_region(
                name, version, local_lo, local_hi))
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
