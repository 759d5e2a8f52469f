"""Experiment M1 — Section V-D: optimal vs linear chain on Panorama."""

from paper import materialization


def bench_mat_panorama(run_once):
    result = run_once(materialization.run_panorama)

    # Paper: optimal 9.7 MB vs linear 15 MB — a ~1.5x improvement from
    # delta-ing recurring scenes against each other.
    improvement = result["linear_bytes"] / result["optimal_bytes"]
    assert improvement > 1.2
    # "Computes complex deltas between non-consecutive versions."
    assert result["non_adjacent_deltas"] > 0
