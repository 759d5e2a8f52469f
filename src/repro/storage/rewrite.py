"""The rewrite: stage → compact → swap → reclaim (Section IV-E).

``delete_version``, ``apply_layout`` and ``reorganize`` each re-encode
committed versions in one :func:`rewrite`; :func:`topological_order`
orders a layout's re-encodes bases first, and :func:`layout_for`
refuses a bad ``reorganize`` request, then computes its layout.  The
functions take the manager they rewrite through.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.errors import StorageError
from repro.storage.chunkstore import COLOCATED
from repro.storage.metadata import ArraySnapshot, ChunkRecord, VersionRecord
from repro.storage.writes import base_of


def rewrite(manager, snap: ArraySnapshot,
            plan: list[tuple[int, int | None]], *,
            drop: VersionRecord | None = None) -> None:
    """The one rewrite protocol: stage → barrier → swap → reclaim.

    ``plan`` lists ``(version, base_version)`` re-encodes, bases
    first; ``drop`` is a version to delete in the same swap.

    1. *Stage* each planned version, ``select``-ed from ``snap``
       (the committed layout), beside its committed encoding.
    2. *Compact* (co-located) every surviving payload into new
       ``@r<n>`` objects.
    3. One durability *barrier* over what the swap names.
    4. *Swap* in one catalog transaction.
    5. Invalidate the cache and hot slot, *reclaim* what no row
       names any more.

    Nothing before step 4 touches a committed row or a byte one
    names: a fault there leaves the store reading as before, and a
    concurrent reader sees the old layout until the swap.  A fault
    during reclaim leaks bytes but never corrupts.
    """
    record, store = snap.record, manager.store
    staged: list[ChunkRecord] = []
    held = None
    for version, base_version in plan:
        data = manager._select(snap, version)
        staged += manager.encoder.stage_version(
            record, record.grid, version, data,
            base_data=base_of(manager, record, base_version, held),
            base_version=base_version)
        held = (version, data)

    old = snap.all_chunks()
    # Catalog order, each staged row in place of the one it replaces.
    live = {(chunk.version, chunk.attribute, chunk.chunk_name): chunk
            for chunk in old + staged
            if drop is None or chunk.version != drop.version}
    swap = staged
    if store.placement == COLOCATED:
        moved = store.repack(
            record.name,
            [(chunk.location, key) for key, chunk in live.items()],
            committed={chunk.location.path for chunk in old})
        swap = [replace(chunk, location=moved[key])
                for key, chunk in live.items()]
        live = dict(zip(live, swap))
    if swap:
        store.sync_chunks([chunk.location for chunk in swap])
    manager.catalog.put_chunks(swap, drop=drop)
    # Not earlier: the stage's selects may have re-cached a deleted
    # version on their way down its chain, and a deleted head's number
    # is reused by the next insert.  A read pinned before the swap
    # cannot re-cache it after this either (``MetadataCatalog.publishes``
    # refuses the entry).
    manager.cache.invalidate_array(record.array_id)
    manager._hot.forget(record.name)
    named = {chunk.location.path for chunk in live.values()}
    store.reclaim({chunk.location.path for chunk in old + staged} - named)


def topological_order(parent_of: dict[int, int | None]) -> list[int]:
    """Materialized roots first, then children in dependency order."""
    children: dict[int | None, list[int]] = {}
    for version, parent in parent_of.items():
        children.setdefault(parent, []).append(version)
    order: list[int] = []
    frontier = sorted(children.get(None, []))
    if not frontier:
        raise StorageError("layout has no materialized version")
    visited: set[int] = set()
    while frontier:
        version = frontier.pop(0)
        if version in visited:
            raise StorageError("layout contains a cycle")
        visited.add(version)
        order.append(version)
        frontier.extend(sorted(children.get(version, [])))
    if len(order) != len(parent_of):
        raise StorageError(
            "layout contains a cycle or unreachable versions")
    return order


def layout_for(manager, name: str, *, mode: str, workload,
               attribute: str | None,
               sample_fraction: float | None) -> dict[int, int | None]:
    """The ``parent_of`` map :meth:`~repro.storage.manager.
    VersionedStorageManager.reorganize` applies: the optimizer ``mode``
    names over the array's materialization matrix.  A bad mode,
    workload, attribute or sample fraction is refused before the
    matrix selects any version."""
    from repro.materialize.matrix import (
        MaterializationMatrix,
        check_sample_fraction,
    )
    from repro.materialize.spanning import optimal_layout
    from repro.materialize.workload_opt import (
        head_biased_layout,
        validate_workload,
        workload_aware_layout,
    )

    snap = manager.catalog.snapshot(name)
    manager._resolve_attribute(snap.record, attribute)
    if mode not in ("space", "head", "workload"):
        raise StorageError(
            f"unknown reorganize mode {mode!r}; expected "
            "'space', 'head', or 'workload'")
    if mode == "workload":
        if workload is None:
            raise StorageError(
                "reorganize(mode='workload') needs a workload")
        validate_workload(workload,
                          (v.version for v in snap.get_versions()))
    check_sample_fraction(sample_fraction)
    matrix = MaterializationMatrix.from_manager(
        manager, name, attribute=attribute,
        sample_fraction=sample_fraction)
    if mode == "space":
        layout = optimal_layout(matrix)
    elif mode == "head":
        layout = head_biased_layout(matrix)
    else:
        layout = workload_aware_layout(matrix, workload)
    return dict(layout.parent_of)
