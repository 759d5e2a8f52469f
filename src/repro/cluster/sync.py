"""What a resync is made of: lineage rows, the prefix rule, re-create.

Anti-entropy repair (:mod:`repro.cluster.repair`) and the rebalance
catch-up passes (:mod:`repro.cluster.rebalance`) do the same job —
make a target hold exactly the source's versions, replaying only what
is missing — against different targets (one manager, a whole fresh
generation).  The pieces they share live here, each once.
"""

from __future__ import annotations


def version_rows(cluster, name: str, node: int | None = None,
                 replicas: list[int] | None = None) -> list[tuple]:
    """The one lineage-row reader: full rows — (version, parent, kind,
    timestamp, merge parents) in version order — of one array, read
    once from one copy with failover: the first band with a live
    replica, or band ``node``'s listed ``replicas`` (repair reads its
    own band's peers, so a replayed timestamp stays on that band's
    clock)."""
    def rows(manager) -> list[tuple]:
        record = manager.catalog.get_array(name)
        return [
            (row.version, row.parent_version, row.kind, row.timestamp,
             tuple(manager.catalog.merge_parents_of(record.array_id,
                                                    row.version)))
            for row in manager.catalog.get_versions(record.array_id)]

    if node is None:
        return cluster._read_any(rows)
    return cluster._read_node(node, rows, replicas=replicas)


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
    keys in version order — what a key is stays the caller's (repair
    compares logical digests, rebalance timestamped lineage rows) —
    and ``held`` is None when the target lacks the array or cannot be
    read.  A target whose keys are a prefix of the source's keeps what
    it has and needs the rows past it; anything else has diverged
    beyond a stale tail, so ``rebuild()`` drops and re-creates the
    array and every row is needed.  Returns ``(rows to replay, whether
    the array was rebuilt)``.
    """
    rebuilt = held is None or held != source[:len(held)]
    if rebuilt:
        rebuild()
        held = []
    return rows[len(held):], rebuilt
