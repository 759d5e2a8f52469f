"""Experiment T4 — Table IV: OSM range queries over all 16 versions."""

from paper import table4


def bench_table4_osm_range(run_once):
    rows = run_once(table4.run)
    by_name = {row["method"]: row for row in rows}

    # The range-query reversal the paper highlights: delta chains
    # amortize across the 16 versions, so Chunks + Deltas reads far
    # *less* than the materialized configurations (2 GB vs 15 GB in the
    # paper).
    assert by_name["Chunks + Deltas"]["select_bytes"] < \
        by_name["Chunks"]["select_bytes"] / 2
    # Both materialized configurations read all 16 full versions
    # (within 1% — per-chunk headers differ slightly).
    assert by_name["Uncompressed"]["select_bytes"] >= \
        by_name["Chunks"]["select_bytes"] * 0.99
    # The unchunked baseline reads everything even for the subselect.
    assert by_name["Uncompressed"]["subselect_bytes"] == \
        by_name["Uncompressed"]["select_bytes"]
    # LZ reads the least.
    assert by_name["Chunks + Deltas + LZ"]["select_bytes"] == min(
        row["select_bytes"] for row in rows)
