"""Experiment T1 — Table I: differencing algorithm comparison."""

from paper import table1


def bench_table1_delta_algorithms(run_once):
    rows = run_once(table1.run)
    by_name = {row["algorithm"]: row for row in rows}

    # The paper's shape: hybrid is the smallest of the array deltas and
    # at least as small as dense and sparse.
    assert by_name["Hybrid"]["size_bytes"] <= \
        by_name["Dense"]["size_bytes"]
    assert by_name["Hybrid"]["size_bytes"] <= \
        by_name["Sparse"]["size_bytes"]
    assert by_name["Hybrid"]["size_bytes"] < \
        by_name["Uncompressed"]["size_bytes"]
    # BSDiff: smallest overall but far slower to import.
    assert by_name["BSDiff"]["size_bytes"] <= \
        by_name["Hybrid"]["size_bytes"]
    assert by_name["BSDiff"]["import_seconds"] > \
        10 * by_name["Hybrid"]["import_seconds"]
    # The MPEG-2-like matcher pays for its search window.
    assert by_name["MPEG-2-like Matcher"]["import_seconds"] > \
        3 * by_name["Hybrid"]["import_seconds"]
