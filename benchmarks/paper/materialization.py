"""Section V-D — the materialization experiments (M1-M4 in docs/paper.md).

Four results are reproduced:

* **M1 (Switch Panorama)** — "our optimal delta algorithm (using hybrid
  deltas + LZ) compresses the data down to 9.7 MB, while the linear
  delta-chain algorithm yields a compressed size of 15 MB": on periodic
  webcam frames the optimal layout deltas recurrences against each
  other, beating the adjacent-frame chain by ~1.5x.

* **M2 (synthetic periodic)** — 40 arrays cycling through a few
  mutually-incompressible patterns: linear deltas cost ~full entropy per
  step (paper: 320 MB) while the optimal algorithm stores each pattern
  once (paper: 17 MB for n=2, 21 MB for n=3) "finding the correct
  encoding in both cases".

* **M3 (load time)** — "Loading the delta chain for 40 arrays took 132 s
  in the optimal case, and 15 s in the linear chain case; most of this
  overhead is the time to generate the n^2 materialization matrix."
  Also measures the sampled S x R / N estimator as mitigation.

* **M4 (linear confirmation)** — "on a data set where a linear chain is
  optimal (because consecutive versions are quite similar), our optimal
  algorithm produces a linear delta chain."
"""

from __future__ import annotations

import numpy as np

from paper.harness import fmt_bytes, fmt_seconds, print_table, timed
from repro.compression import LempelZivCodec
from repro.datasets import (
    panorama_series,
    paper_n2_series,
    paper_n3_series,
)
from repro.delta import HybridDeltaCodec
from repro.materialize import Layout, MaterializationMatrix, optimal_layout


def layout_encoded_size(layout: Layout,
                        contents: dict[int, np.ndarray]) -> int:
    """Actual on-disk bytes of a layout under hybrid+LZ encoding.

    Materialized versions are LZ-compressed; deltas use hybrid+LZ —
    the paper's best configuration for these experiments.
    """
    compressor = LempelZivCodec()
    codec = HybridDeltaCodec(lz=True)
    total = 0
    for version, parent in layout.parent_of.items():
        if parent is None:
            total += len(compressor.encode(contents[version]))
        else:
            total += len(codec.encode(contents[version],
                                      contents[parent]))
    return total


def _series_to_contents(series: list[np.ndarray]) -> dict[int, np.ndarray]:
    return {index: frame for index, frame in enumerate(series, 1)}


def compare_layouts(series: list[np.ndarray]) -> dict:
    """Optimal layout vs the linear delta chain for one version series."""
    contents = _series_to_contents(series)
    matrix = MaterializationMatrix.build(contents)
    optimal = optimal_layout(matrix)
    linear = Layout.linear_chain(contents)
    return {
        "versions": len(series),
        "raw_bytes": sum(frame.nbytes for frame in series),
        "optimal_layout": optimal,
        "linear_layout": linear,
        "optimal_bytes": layout_encoded_size(optimal, contents),
        "linear_bytes": layout_encoded_size(linear, contents),
    }


# ----------------------------------------------------------------------
# M1: Switch Panorama
# ----------------------------------------------------------------------
def run_panorama(count: int = 32, shape: tuple[int, int] = (96, 96), *,
                 period: int = 8, quiet: bool = False) -> dict:
    """Optimal vs linear chain on periodic webcam frames."""
    series = panorama_series(count, shape=shape, period=period)
    result = compare_layouts(series)
    result["name"] = "Switch Panorama"
    # The signature behaviour: "complex deltas between non-consecutive
    # versions" — at least one delta edge must skip over neighbours.
    non_adjacent = sum(
        1 for v, p in result["optimal_layout"].parent_of.items()
        if p is not None and abs(v - p) > 1)
    result["non_adjacent_deltas"] = non_adjacent
    if not quiet:
        _print_comparison("Section V-D (M1): Switch Panorama", [result])
        print(f"non-adjacent delta edges in optimal layout: "
              f"{non_adjacent}")
    return result


# ----------------------------------------------------------------------
# M2: synthetic periodic data
# ----------------------------------------------------------------------
def run_periodic(total: int = 40, shape: tuple[int, int] = (64, 64), *,
                 quiet: bool = False) -> list[dict]:
    """The n=2 and n=3 synthetic configurations."""
    results = []
    for name, series in (("n=2 (3 patterns)", paper_n2_series(total, shape)),
                         ("n=3 (4 patterns)", paper_n3_series(total, shape))):
        result = compare_layouts(series)
        result["name"] = name
        # "Finding the correct encoding": every delta edge must connect
        # two versions holding the same pattern (period apart).
        period = 3 if name.startswith("n=2") else 4
        correct = all(
            (v - p) % period == 0
            for v, p in result["optimal_layout"].parent_of.items()
            if p is not None)
        result["correct_encoding"] = correct
        results.append(result)
    if not quiet:
        _print_comparison("Section V-D (M2): synthetic periodic data",
                          results)
        for result in results:
            print(f"{result['name']}: correct encoding found = "
                  f"{result['correct_encoding']}")
    return results


# ----------------------------------------------------------------------
# M3: load time and the sampled estimator
# ----------------------------------------------------------------------
def run_loadtime(total: int = 40, shape: tuple[int, int] = (64, 64), *,
                 sample_fraction: float = 0.05,
                 quiet: bool = False) -> dict:
    """Optimal-load vs linear-load cost; sampled matrix mitigation."""
    series = paper_n2_series(total, shape)
    contents = _series_to_contents(series)

    with timed() as linear_timer:
        linear = Layout.linear_chain(contents)
        layout_encoded_size(linear, contents)

    with timed() as exact_timer:
        matrix = MaterializationMatrix.build(contents)
        optimal = optimal_layout(matrix)
        layout_encoded_size(optimal, contents)

    with timed() as sampled_timer:
        sampled_matrix = MaterializationMatrix.build(
            contents, sample_fraction=sample_fraction,
            rng=np.random.default_rng(0))
        sampled_layout = optimal_layout(sampled_matrix)
        layout_encoded_size(sampled_layout, contents)

    result = {
        "versions": total,
        "linear_seconds": linear_timer.seconds,
        "optimal_seconds": exact_timer.seconds,
        "sampled_seconds": sampled_timer.seconds,
        # What each matrix priced — pairs x cells compared — is the
        # machine-independent form of the sampled estimator's saving.
        "optimal_cells_priced": matrix.cells_priced,
        "sampled_cells_priced": sampled_matrix.cells_priced,
        "sampled_matches_exact": sampled_layout.total_size(matrix)
        <= optimal.total_size(matrix) * 1.05,
    }
    if not quiet:
        print_table(
            "Section V-D (M3): load time for 40 arrays",
            ["Strategy", "Load Time", "Cells Priced"],
            [["Linear chain", fmt_seconds(result["linear_seconds"]), "-"],
             ["Optimal (exact n^2 matrix)",
              fmt_seconds(result["optimal_seconds"]),
              f"{result['optimal_cells_priced']:,}"],
             [f"Optimal (sampled {sample_fraction:.0%} matrix)",
              fmt_seconds(result["sampled_seconds"]),
              f"{result['sampled_cells_priced']:,}"]])
        print(f"sampled layout within 5% of exact optimum: "
              f"{result['sampled_matches_exact']}")
    return result


# ----------------------------------------------------------------------
# M4: linear chain confirmation
# ----------------------------------------------------------------------
def run_linear_confirm(versions: int = 10,
                       shape: tuple[int, int] = (64, 64), *,
                       quiet: bool = False) -> dict:
    """Smoothly-evolving data: the optimum degenerates to a chain.

    The series is a cumulative random walk — each version adds a small
    sparse increment to its predecessor — so the delta cost between two
    versions grows strictly with their separation, the regime the paper
    describes as "consecutive versions are quite similar".
    """
    rng = np.random.default_rng(2012)
    current = rng.integers(0, 1000, size=shape).astype(np.int32)
    series = [current]
    for _ in range(versions - 1):
        increment = np.zeros(shape, dtype=np.int32)
        cells = rng.choice(current.size, size=current.size // 20,
                           replace=False)
        increment.ravel()[cells] = rng.integers(1, 4, size=len(cells))
        current = current + increment
        series.append(current)
    contents = _series_to_contents(series)
    matrix = MaterializationMatrix.build(contents)
    layout = optimal_layout(matrix)
    adjacent = all(parent is None or abs(version - parent) == 1
                   for version, parent in layout.parent_of.items())
    result = {
        "versions": versions,
        "all_edges_adjacent": adjacent,
        "materialized": layout.materialized,
    }
    if not quiet:
        print("Section V-D (M4): linear-chain confirmation on NOAA")
        print(f"  optimal layout has only adjacent delta edges: "
              f"{adjacent}")
        print(f"  materialized versions: {list(layout.materialized)}")
    return result


def _print_comparison(title: str, results: list[dict]) -> None:
    print_table(
        title,
        ["Data", "Raw", "Linear Chain", "Optimal", "Improvement"],
        [[result["name"], fmt_bytes(result["raw_bytes"]),
          fmt_bytes(result["linear_bytes"]),
          fmt_bytes(result["optimal_bytes"]),
          f"{result['linear_bytes'] / result['optimal_bytes']:.2f}x"]
         for result in results])


if __name__ == "__main__":  # pragma: no cover
    run_panorama()
    run_periodic()
    run_loadtime()
    run_linear_confirm()
