"""What a resync is made of: lineage rows, the prefix rule, re-create.

Anti-entropy repair (:mod:`repro.cluster.repair`) and the rebalance
catch-up passes (:mod:`repro.cluster.rebalance`) do the same job —
make a target hold exactly the source's versions, writing only what
is missing — against different targets (one manager, a whole fresh
generation).  Repair's target has its source's chunk geometry, so it
receives stored bytes and needs only :func:`recreate` from here;
rebalance changes the geometry, so it reads lineage rows, applies
the prefix rule and replays each missing version's contents with
its source row.
"""

from __future__ import annotations


def version_rows(cluster, name: str) -> list[tuple]:
    """The one lineage-row reader: full rows — (version, parent, kind,
    timestamp, merge parents) in version order — of one array, read
    once from one copy with failover: the first band with a live
    replica."""
    def rows(manager) -> list[tuple]:
        record = manager.catalog.get_array(name)
        return [
            (row.version, row.parent_version, row.kind, row.timestamp,
             tuple(manager.catalog.merge_parents_of(record.array_id,
                                                    row.version)))
            for row in manager.catalog.get_versions(record.array_id)]

    return cluster._read_any(rows)


def replay_row(manager, name: str, data, row: tuple) -> int:
    """Re-create one version on one copy with its *source* lineage row
    (as :func:`version_rows` reads it), so kind, parent link, merge
    parents and timestamp survive the resync."""
    version, parent_version, kind, timestamp, parents = row
    return manager.replay_version(
        name, data, version=version, kind=kind,
        parent_version=parent_version, timestamp=timestamp,
        merge_parents=list(parents) or None)


def recreate(target, name: str, schema, record) -> None:
    """Drop ``name`` from ``target`` (one manager, or a coordinator)
    if it holds it, and create it empty with the source
    :class:`~repro.storage.catalog.ArrayRecord`'s storage parameters
    and branch origin."""
    if name in target.list_arrays():
        target.delete_array(name)
    target.create_array(name, schema,
                        chunk_bytes=record.chunk_bytes,
                        compressor=record.compressor,
                        chunk_shape=record.chunk_shape,
                        parent_array=record.parent_array,
                        parent_version=record.parent_version)


def stale_tail(held: list | None, source: list, rows: list[tuple],
               rebuild) -> tuple[list[tuple], bool]:
    """The one prefix rule: which source ``rows`` a target still needs.

    ``held`` / ``source`` are the two sides' per-version comparison
    keys in version order (rebalance compares timestamped lineage
    rows), and ``held`` is None when the target lacks the array or
    cannot be read.  A target whose keys are a prefix of the source's
    keeps what it has and needs the rows past it; anything else has
    diverged beyond a stale tail, so ``rebuild()`` drops and re-creates
    the array and every row is needed.  Returns ``(rows to replay,
    whether the array was rebuilt)``.
    """
    rebuilt = held is None or held != source[:len(held)]
    if rebuilt:
        rebuild()
        held = []
    return rows[len(held):], rebuilt
