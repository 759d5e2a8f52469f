"""One-shot report: regenerate every paper table and figure in sequence.

Runs each experiment of the docs/paper.md index at the default
reproduction scale and prints the paper-shaped tables — the quickest way
to eyeball the full reproduction (``PYTHONPATH=src:benchmarks``)::

    python -m paper.report            # everything
    python -m paper.report --fast     # reduced sizes
"""

from __future__ import annotations

import argparse
import time

from paper import (
    ablations,
    fig2,
    materialization,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    workload_aware,
)


def run_all(fast: bool = False) -> dict[str, float]:
    """Run every experiment; returns per-experiment wall seconds."""
    experiments: list[tuple[str, callable, dict]] = [
        ("T1 Table I", table1.run,
         dict(versions=6, shape=(64, 64)) if fast else {}),
        ("T2 Table II", table2.run,
         dict(versions=6, shape=(64, 64)) if fast else {}),
        ("T3 Table III", table3.run,
         dict(versions=8, shape=(256, 256), chunk_bytes=8 * 1024)
         if fast else {}),
        ("T4 Table IV", table4.run,
         dict(versions=8, shape=(256, 256), chunk_bytes=8 * 1024)
         if fast else {}),
        ("T5 Table V", table5.run,
         dict(versions=6, noaa_shape=(64, 64), cnet_size=128,
              cnet_nnz=500) if fast else {}),
        ("T6 Table VI", table6.run,
         dict(versions=10, shape=(256, 256), chunk_bytes=8 * 1024)
         if fast else {}),
        ("T7 Table VII", table7.run,
         dict(versions=6, shape=(64, 64)) if fast else {}),
        ("M1 Panorama", materialization.run_panorama,
         dict(count=16, shape=(64, 64)) if fast else {}),
        ("M2 Periodic", materialization.run_periodic,
         dict(total=20, shape=(32, 32)) if fast else {}),
        ("M3 Load time", materialization.run_loadtime,
         dict(total=20, shape=(32, 32)) if fast else {}),
        ("M4 Linear confirm", materialization.run_linear_confirm, {}),
        ("M5 Workload-aware", workload_aware.run,
         dict(versions=14, shape=(32, 32), range_length=6, overlap=2,
              runs=2) if fast else {}),
        ("F2 Chain reads", fig2.run, {}),
        ("A1 Chunk sweep", ablations.run_chunk_sweep,
         dict(versions=4, shape=(128, 128), budgets=(2048, 16384))
         if fast else {}),
        ("A2 Placement", ablations.run_placement,
         dict(versions=6, shape=(64, 64)) if fast else {}),
        ("A3 Hybrid threshold", ablations.run_hybrid_threshold, {}),
    ]

    timings: dict[str, float] = {}
    for name, runner, kwargs in experiments:
        started = time.perf_counter()
        runner(**kwargs)
        timings[name] = time.perf_counter() - started

    print("\n=== experiment wall-clock summary ===")
    for name, seconds in timings.items():
        print(f"  {name:22s} {seconds:7.2f} s")
    print(f"  {'TOTAL':22s} {sum(timings.values()):7.2f} s")
    return timings


def main() -> None:  # pragma: no cover - thin CLI wrapper
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced sizes")
    args = parser.parse_args()
    run_all(fast=args.fast)


if __name__ == "__main__":  # pragma: no cover
    main()
