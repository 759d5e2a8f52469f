"""Design-choice ablations (docs/paper.md, §III rows)."""

from paper import ablations


def bench_chunk_size_sweep(run_once):
    rows = run_once(ablations.run_chunk_sweep)

    # Subselect bytes grow with chunk size (coarser access granularity)…
    assert rows[-1]["subselect_bytes"] > rows[0]["subselect_bytes"]
    # …while full selects benefit from fewer, larger chunks.
    assert rows[-1]["select_seconds"] < rows[0]["select_seconds"]


def bench_delta_placement(run_once):
    rows = run_once(ablations.run_placement)
    by_name = {row["placement"]: row for row in rows}

    # Co-location concentrates a chunk's chain into one file.
    assert by_name["colocated"]["files"] < \
        by_name["per-version"]["files"]
    # Section VI: co-location "did not improve performance
    # significantly" — the two placements are within 3x of each other.
    ratio = by_name["colocated"]["range_seconds"] / \
        by_name["per-version"]["range_seconds"]
    assert 1 / 3 < ratio < 3


def bench_hybrid_threshold(run_once):
    rows = run_once(ablations.run_hybrid_threshold)

    optimal = next(row for row in rows
                   if row["strategy"] == "optimal threshold")
    fixed = [row for row in rows if row is not optimal]
    # The exact cost search must beat every fixed width.
    assert all(optimal["size_bytes"] <= row["size_bytes"]
               for row in fixed)
