"""Experiment T3 — Table III: OSM snapshot queries, 4 configurations."""

from paper import table3


def bench_table3_osm_snapshot(run_once):
    rows = run_once(table3.run)
    by_name = {row["method"]: row for row in rows}

    # Chunking bounds subselect reads to ~one chunk; the unchunked
    # baseline reads the whole array.
    assert by_name["Uncompressed"]["subselect_bytes"] > \
        10 * by_name["Chunks"]["subselect_bytes"]
    # Reading the latest version of a delta chain costs more bytes than
    # reading a materialized version (the chain must be unwound).
    assert by_name["Chunks + Deltas"]["select_bytes"] > \
        by_name["Chunks"]["select_bytes"]
    # LZ reads the least data in both query shapes.
    assert by_name["Chunks + Deltas + LZ"]["select_bytes"] == min(
        row["select_bytes"] for row in rows)
    assert by_name["Chunks + Deltas + LZ"]["subselect_bytes"] == min(
        row["subselect_bytes"] for row in rows)
