"""Experiment C1 — replicated cluster: failover reads, repair,
resharding.

The sweep runs the (nodes x replication) grid — unreplicated baseline,
the production R=2 shape, full triplication — each cell ingesting the
same deterministic dataset, reading it back through a killed node,
resyncing a blank replacement replica from its peers, and resharding
onto one more node while a reader thread keeps selecting (``run()``
raises if any of those reads fails or returns the wrong bytes).  The
artifact carries no wall clock (``cluster-rf2`` in ``benchmarks/e2e``
times the cluster); what must hold everywhere is the replication
contract: one *logical* cluster fingerprint across every cell and
across every reshard, reads that survive a dead host exactly when a
quorum exists (failing loudly when it does not), failovers counted
exactly when they happened, exact replica-write accounting, and exact
repair accounting (the replaced copy replays exactly the band's
versions, R=1 cells have no peer and skip the scenario).  The rows
land in ``BENCH_cluster.json`` (uploaded as a CI artifact and gated
against the committed copy like the other fingerprint artifacts).
"""

from paper import cluster


def bench_cluster_failover(run_once):
    rows = run_once(cluster.run, json_path="BENCH_cluster.json")

    assert len(rows) == 3
    # One logical fingerprint: node count, replication factor, and
    # resharding may change wall-clock only, never a served byte.
    assert len({row["fingerprint"] for row in rows}) == 1
    assert all(row["identical_to_reference"] for row in rows)
    assert all(row["identical_after_rebalance"] for row in rows)

    for row in rows:
        if row["replication"] == 1:
            # No quorum: the killed node's band is gone and the reads
            # say so loudly instead of serving partial data.
            assert not row["killed_read_ok"]
            # ... and no peer exists to repair a replacement from.
            assert row["repaired_versions"] is None
        else:
            # A surviving quorum serves every read, and the failovers
            # are counted exactly (one per read touching a dead copy).
            assert row["killed_read_ok"]
            assert row["killed_failovers"] >= row["versions"]
            # Exact repair accounting: the blank replacement replayed
            # exactly its band's versions.
            assert row["repaired_versions"] == row["versions"]
            assert row["repair_bytes"] > 0
        # Exact replication accounting: every version landed one
        # redundant copy per extra replica per band.
        assert row["replica_writes"] == \
            row["versions"] * row["nodes"] * (row["replication"] - 1)
        assert row["migrated_chunks"] > 0

    # Both degraded and replicated cells actually ran.
    assert {row["replication"] for row in rows} == {1, 2, 3}
