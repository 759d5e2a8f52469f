"""Experiment T7 — Table VII: SVN and Git versus our system on NOAA."""

from paper import table7


def bench_table7_vcs_noaa(run_once):
    rows = run_once(table7.run)
    by_name = {row["method"]: row for row in rows}

    # Git loads successfully here (small objects), unlike Table VI.
    assert by_name["Git"]["size_bytes"] is not None
    # "Hybrid Deltas+LZ yielded the smallest overall data set, and much
    # better load times than SVN or Git" (load-time shape: Git slowest).
    assert by_name["Hybrid+LZ"]["size_bytes"] == min(
        row["size_bytes"] for row in rows)
    assert by_name["Git"]["import_seconds"] > \
        by_name["Hybrid+LZ"]["import_seconds"]
    # "For this small data, uncompressed access was the most efficient."
    assert by_name["Uncompressed"]["select_seconds"] == min(
        row["select_seconds"] for row in rows)
    # Every system beats raw storage on this compressible data.
    for method in ("Hybrid+LZ", "SVN", "Git"):
        assert by_name[method]["size_bytes"] < \
            by_name["Uncompressed"]["size_bytes"]
