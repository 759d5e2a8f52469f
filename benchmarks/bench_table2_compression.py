"""Experiment T2 — Table II: compression on delta arrays."""

from paper import table2


def bench_table2_compression(run_once):
    rows = run_once(table2.run)
    by_name = {row["compression"]: row for row in rows}

    # The paper's conclusion: "LZ had both the smallest resulting data
    # size and the fastest query time of the compression methods, so it
    # is clearly the best overall."
    lz = by_name["Lempel-Ziv"]
    assert lz["size_bytes"] == min(
        row["size_bytes"] for row in rows)
    # The image codecs must not beat LZ, and JPEG 2000 queries are the
    # slowest of the compressors.
    assert by_name["PNG compression"]["size_bytes"] >= lz["size_bytes"]
    assert by_name["JPEG 2000 compression"]["size_bytes"] >= \
        lz["size_bytes"]
