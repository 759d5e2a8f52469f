"""Experiment M2 — Section V-D: synthetic periodic data sets."""

from paper import materialization


def bench_mat_periodic(run_once):
    results = run_once(materialization.run_periodic)

    for result in results:
        # Paper: 320 MB linear vs 17/21 MB optimal — an order of
        # magnitude, since each distinct pattern is stored exactly once.
        improvement = result["linear_bytes"] / result["optimal_bytes"]
        assert improvement > 5
        # "Finding the correct encoding in both cases."
        assert result["correct_encoding"]
    # n=3 stores one more distinct pattern than n=2, so it costs more
    # (paper: 21 MB > 17 MB).
    assert results[1]["optimal_bytes"] > results[0]["optimal_bytes"]
