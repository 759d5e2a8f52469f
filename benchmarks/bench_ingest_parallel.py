"""Experiment I1 — ingest throughput through the staged write pipeline.

The sweep runs the workers axis (serial vs parallel encode + placement
fan-out) against five backends (buffered local files, durable local
files with the group-commit fsync barrier, in-memory, striped local,
and the S3-style object store with its multipart staging + finalize
barrier), then adds the CPU-bound ``chain`` cells (every version
hybrid-delta-encoded against its parent) on the fast substrates.  The
wall-clock columns are hardware-dependent and asserted nowhere; what
must hold everywhere is the determinism contract: within each
``delta_policy`` profile every cell stores byte-identical payloads at
byte-identical locations with identical catalog rows (one SHA-256
fingerprint per profile), executes exactly one encode task per placed
chunk, and commits each version's rows in one transaction.  The rows
land in ``BENCH_ingest.json`` (uploaded as a CI artifact next to
``BENCH_fig2.json``).
"""

from repro.bench import ingest


def bench_ingest_parallel(run_once):
    rows = run_once(ingest.run_full, json_path="BENCH_ingest.json")

    assert len(rows) == 14
    by_policy = {}
    for row in rows:
        by_policy.setdefault(row["delta_policy"], []).append(row)
    assert set(by_policy) == {"materialize", "chain"}
    assert len(by_policy["materialize"]) == 10
    assert len(by_policy["chain"]) == 4

    for policy, policy_rows in by_policy.items():
        # The parallel write pipeline may change wall-clock only: one
        # fingerprint — catalog rows plus stored payload bytes —
        # across every backend and every workers degree of a profile.
        assert all(row["identical_to_serial"] for row in policy_rows)
        assert len({row["fingerprint"] for row in policy_rows}) == 1

        for row in policy_rows:
            # One encode task per placed chunk, regardless of fan-out.
            assert row["encode_tasks"] == row["chunks_written"]
            assert row["encode_tasks"] == policy_rows[0]["encode_tasks"]
            assert row["bytes_written"] == policy_rows[0]["bytes_written"]
            assert row["versions_per_sec"] > 0

        # Both halves of the workers axis actually ran.
        assert {row["workers"] for row in policy_rows} == {1, 4}

    # The two profiles store different bytes by design (full payloads
    # vs delta chains) — their fingerprints must differ, or the chain
    # cells silently fell back to materialization.
    assert by_policy["materialize"][0]["fingerprint"] != \
        by_policy["chain"][0]["fingerprint"]
    assert by_policy["chain"][0]["bytes_written"] < \
        by_policy["materialize"][0]["bytes_written"]

    # Every chunk encode is decided by the single-pass planner, and a
    # chain cell skips exactly one codec encode per delta task: the
    # provably-larger materialized fallback.
    for row in rows:
        assert row["encode_plans"] == row["encode_tasks"]
    for row in by_policy["chain"]:
        delta_tasks = row["encode_tasks"] - row["encode_tasks"] \
            // row["versions"]
        assert row["codec_encodes_avoided"] == delta_tasks
        assert row["planner_bytes_saved"] > 0
