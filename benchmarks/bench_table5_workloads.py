"""Experiment T5 — Table V: NOAA/ConceptNet under the five workloads."""

from paper import table5


def bench_table5_workloads(run_once):
    rows = run_once(table5.run, versions=8)

    def size(dataset, compression):
        return next(row["size_bytes"] for row in rows
                    if row["dataset"] == dataset
                    and row["compression"] == compression)

    # "Our delta algorithms, even without LZ, achieve very high
    # compression ratios (3::1 on NOAA, and 35::1 on CNet)."
    assert size("NOAA", "None") / size("NOAA", "H") > 1.2
    assert size("CNet", "None") / size("CNet", "H") > 5
    # "CNet compresses so well because the data is very sparse": the
    # sparse data set compresses far better than the dense one.
    cnet_ratio = size("CNet", "None") / size("CNet", "H+LZ")
    noaa_ratio = size("NOAA", "None") / size("NOAA", "H+LZ")
    assert cnet_ratio > noaa_ratio
    # H+LZ always yields the smallest footprint.
    for dataset in ("NOAA", "CNet"):
        assert size(dataset, "H+LZ") == min(
            size(dataset, c) for c in ("H+LZ", "H", "None"))
    # "In general, compressing the data slows down performance":
    # the uncompressed store answers Head queries with the fewest
    # chunks read — the paper's I/O cost proxy (§IV-D), which unlike
    # wall clock does not swing with the host's load.  The seconds
    # are printed beside it.
    for dataset in ("NOAA", "CNet"):
        head = {row["compression"]: row["head_chunks"] for row in rows
                if row["dataset"] == dataset}
        assert head["None"] <= min(head["H"], head["H+LZ"])
