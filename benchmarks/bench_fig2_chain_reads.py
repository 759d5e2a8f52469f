"""Experiment F2 — Figure 2: chunk reads along a delta chain.

The sweep runs a backend axis (disk, memory, and the S3-style object
store) *and* a workers axis (serial vs parallel chunk reconstruction);
the I/O invariants must be byte-for-byte identical in every cell,
proving the parallel decode path changes wall-clock only, never what
is read.  On the object backend the constant-opens invariant reappears
at the request level: the whole chain of one chunk coalesces into one
ranged GET, so ``ranged_gets`` stays constant in chain depth exactly
like ``file_opens``.  The rows land in ``BENCH_fig2.json`` (uploaded
as a CI artifact and compared against the committed copy by the
fingerprint regression gate).
"""

from paper import fig2

BACKENDS = ("local", "memory", "object")


def bench_fig2_chain_reads(run_once):
    rows = run_once(fig2.run, backends=BACKENDS,
                    workers=(1, 4), json_path="BENCH_fig2.json")

    for backend in BACKENDS:
        for degree in (1, 4):
            cell_rows = [row for row in rows
                         if row["backend"] == backend
                         and row["workers"] == degree]

            # The figure's exact scenario: chain depth 3, 2 chunks in
            # the region, 6 chunks read.
            depth3 = next(row for row in cell_rows
                          if row["chain_depth"] == 3)
            assert depth3["chunks_read"] == 6
            for row in cell_rows:
                # Read amplification is linear in chain depth ...
                assert row["chunks_read"] == \
                    row["chain_depth"] * row["chunks_overlapping_query"]
                # ... but the batched chain read opens each co-located
                # chunk object once, so file opens stay constant in
                # chain depth — even under parallel reads.
                assert row["file_opens"] == \
                    row["chunks_overlapping_query"]
                if row["chain_depth"] > 1:
                    assert row["file_opens"] < row["chunks_read"]
                if backend == "object":
                    # The object-store mirror of the same invariant:
                    # one coalesced ranged GET per chunk object,
                    # however deep the chain.
                    assert row["ranged_gets"] == \
                        row["chunks_overlapping_query"]
                else:
                    assert row["ranged_gets"] == 0
                    assert row["bytes_over_fetched"] == 0

    # The workers axis must not change a single I/O counter.
    def counters(row):
        return (row["backend"], row["chain_depth"],
                row["chunks_read"], row["file_opens"],
                row["ranged_gets"], row["bytes_over_fetched"])

    serial = sorted(counters(r) for r in rows if r["workers"] == 1)
    parallel = sorted(counters(r) for r in rows if r["workers"] == 4)
    assert serial == parallel

    # No backend or workers degree may change a stored byte: one
    # fingerprint per chain depth across the whole grid.
    for depth in {row["chain_depth"] for row in rows}:
        assert len({row["fingerprint"] for row in rows
                    if row["chain_depth"] == depth}) == 1
