"""Experiment M4 — Section V-D: the optimum degenerates to a chain."""

from paper import materialization


def bench_mat_linear_confirm(run_once):
    result = run_once(materialization.run_linear_confirm)

    # "We also confirmed that on a data set where a linear chain is
    # optimal ... our optimal algorithm produces a linear delta chain."
    assert result["all_edges_adjacent"]
    assert len(result["materialized"]) == 1
