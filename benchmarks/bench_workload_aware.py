"""Experiment M5 — Section V-D: workload-aware vs space-optimal layouts."""

from paper import workload_aware


def bench_workload_aware(run_once):
    result = run_once(workload_aware.run)

    # Paper: 1.51 s (space optimal) vs 1.10 s (I/O optimal) — a 27%
    # speedup.  The model cost must improve, and the measured bytes per
    # run with it; wall-clock speedup should land in the same regime.
    assert result["io_model_cost"] < result["space_model_cost"]
    assert result["io_bytes"] <= result["space_bytes"]
    assert result["io_seconds"] <= result["space_seconds"] * 1.05
    # "The space optimal layouts consider longer delta-chains than the
    # I/O optimal layouts": the I/O layout materializes more versions.
    assert result["io_materialized"] >= result["space_materialized"]
