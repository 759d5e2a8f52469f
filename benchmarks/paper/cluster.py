"""Cluster replication — failover reads, repair and resharding.

The paper's Section II deployment partitions each array across several
storage-system nodes; this experiment checks the coordinator that
makes that deployment survivable.  Each cell runs a (nodes x
replication) cluster over per-node in-memory backends, ingests a
deterministic multi-version dataset, reads every version back, then
exercises the scenarios replication exists for:

* **kill-one-node** — one physical host is marked dead (taking its
  primary band *and* the neighbor replica it carries, the chained-
  declustering failure shape) and the full read mix replays: with
  ``replication=1`` the reads fail loudly (no quorum), with
  ``replication>=2`` every read lands on the surviving copies and the
  failovers are counted;
* **repair-while-serving** — for replicated cells, band 0's primary is
  swapped for blank hardware (``replace_replica``) and resynced from
  its live peers (``repair``): the row records the exact
  ``repaired_versions`` / ``repair_bytes`` accounting;
* **rebalance** — the cluster reshards onto ``nodes+1`` *online*,
  with a reader thread selecting the head the whole time: every read
  it makes must return the head's bytes, and the row records the
  migrated-chunk count and whether the logical cluster fingerprint
  stayed byte-identical (it must).

What must hold in every cell: **one fingerprint** — the logical
SHA-256 over every array's reassembled versions is identical across
node counts, replication factors, and before/after resharding — plus
exact ``replica_writes`` accounting and a positive failover count
exactly when a dead node was survived.  The wall clock of these paths
is ``benchmarks/e2e``'s to measure (``cluster-rf2``).  ``json_path``
writes the rows to a JSON artifact (``BENCH_cluster.json`` in CI,
gated like the other fingerprint artifacts).
"""

from __future__ import annotations

import json
import tempfile
import threading
from pathlib import Path

import numpy as np

from paper.harness import fan_width, print_table
from repro.cluster import ClusterCoordinator
from repro.core.errors import StorageError
from repro.core.schema import ArraySchema

ARRAY = "cluster"

#: The (nodes, replication) grid: unreplicated baseline, the classic
#: R=2 production shape, and full triplication.
CELLS = ((2, 1), (3, 2), (3, 3))


def _dataset(versions: int, shape: tuple[int, ...],
             seed: int = 2012) -> list[np.ndarray]:
    """One deterministic int64 array per version."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 1 << 30, shape).astype(np.int64)
            for _ in range(versions)]


def _expect(got, expected: np.ndarray) -> None:
    if not np.array_equal(got.attribute("value"), expected):
        raise AssertionError("a cluster select returned wrong bytes")


def _cell(cluster: ClusterCoordinator, datas: list[np.ndarray],
          reshard_to: int) -> dict:
    """One cell's scenarios on a fresh cluster; returns its measured
    columns."""
    versions = len(datas)
    cluster.create_array(ARRAY, ArraySchema.simple(
        datas[0].shape, dtype=np.int64))
    for data in datas:
        cluster.insert(ARRAY, data)
    for version, data in enumerate(datas, 1):
        _expect(cluster.select(ARRAY, version), data)

    # Kill-one-node: host 0 takes band 0's primary and (for R>1) the
    # last band's replica with it.
    cluster.mark_node_dead(0)
    failovers_before = cluster.stats.failovers
    killed_read_ok = True
    try:
        for version, data in enumerate(datas, 1):
            _expect(cluster.select(ARRAY, version), data)
    except StorageError:
        killed_read_ok = False
    killed_failovers = cluster.stats.failovers - failovers_before
    cluster.revive_node(0)

    # Repair-while-serving: swap band 0's primary for blank hardware,
    # resync it from its live peers.  Unreplicated cells have no peer
    # to repair from, so they skip the scenario (None columns).
    repaired_versions = repair_bytes = None
    if cluster.replication >= 2:
        cluster.replace_replica(0, 0)
        report = cluster.repair(0, 0)
        cluster.revive(0, 0)
        repaired_versions = report["versions"]
        repair_bytes = report["bytes"]

    fingerprint = cluster.fingerprint(ARRAY)
    # Online rebalance with a concurrent reader: every read it makes
    # while the migration runs must return the head's bytes.  An
    # exception cannot cross the thread boundary, so the reader keeps
    # its first one for this thread to raise after the join.
    failures: list[Exception] = []
    reads = 0
    stop = threading.Event()

    def read_during_rebalance():
        nonlocal reads
        try:
            while True:
                _expect(cluster.select(ARRAY, versions), datas[-1])
                reads += 1
                if stop.is_set():
                    break
        except Exception as exc:
            failures.append(exc)

    reader = threading.Thread(target=read_during_rebalance)
    reader.start()
    try:
        migrated = cluster.rebalance(reshard_to)
    finally:
        stop.set()
        reader.join()
    if failures:
        raise failures[0]
    if not reads:
        raise AssertionError("no read completed during the rebalance")
    return {
        "killed_read_ok": killed_read_ok,
        "killed_failovers": killed_failovers,
        "repaired_versions": repaired_versions,
        "repair_bytes": repair_bytes,
        "migrated_chunks": migrated,
        "replica_writes": cluster.stats.replica_writes,
        "fingerprint": fingerprint,
        "identical_after_rebalance":
            cluster.fingerprint(ARRAY) == fingerprint,
    }


def run(versions: int = 6, shape: tuple[int, ...] = (96, 64),
        chunk_bytes: int = 1 << 14, *, cells=CELLS,
        backend: str = "memory", workers: int | None = None,
        workdir: str | None = None,
        json_path: str | Path | None = None,
        quiet: bool = False) -> list[dict]:
    """Run ingest, healthy reads, degraded reads, repair and an online
    reshard across the (nodes x replication) grid."""
    datas = _dataset(versions, shape)
    rows = []
    reference: str | None = None
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        for nodes, replication in cells:
            with fan_width(workers):
                cluster = ClusterCoordinator(
                    Path(scratch) / f"n{nodes}-r{replication}",
                    nodes=nodes, replication=replication,
                    chunk_bytes=chunk_bytes, backend=backend)
                try:
                    row = _cell(cluster, datas, nodes + 1)
                finally:
                    cluster.close()
            if reference is None:
                reference = row["fingerprint"]
            rows.append({
                "backend": backend,
                "nodes": nodes,
                "replication": replication,
                "versions": versions,
                **row,
                "identical_to_reference":
                    row["fingerprint"] == reference,
            })

    if json_path is not None:
        Path(json_path).write_text(json.dumps(rows, indent=2))
    if not quiet:
        print_table(
            "Cluster replication: reads through a dead node, resharding"
            " onto a new node count (one logical fingerprint in every"
            " cell)",
            ["Nodes", "Repl", "Kill-1 Read", "Failovers",
             "Repair Bytes", "Migrated", "Identical"],
            [[str(row["nodes"]), str(row["replication"]),
              "ok" if row["killed_read_ok"] else "FAILS (no quorum)",
              str(row["killed_failovers"]),
              str(row["repair_bytes"])
              if row["repair_bytes"] is not None else "n/a (R=1)",
              str(row["migrated_chunks"]),
              "yes" if row["identical_to_reference"]
              and row["identical_after_rebalance"] else "NO"]
             for row in rows])
    return rows


if __name__ == "__main__":  # pragma: no cover
    run(json_path="BENCH_cluster.json")
