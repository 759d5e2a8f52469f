"""Experiment S1 — deep-chain scan throughput.

The sweep reads one seeded store per (depth, codec, backend) cell
under each native setting.  ``run()`` itself asserts every select
returns the inserted bytes before recording a row; this wrapper gates
the structural claims — which cells fused, how many levels scattered,
and that the native axis never changes a stored byte.  (The fused
decode is held to the level-by-level walk in
``tests/storage/test_fused_reads.py``.)  Fingerprints are frozen by
the regression gate against the committed artifact.
"""

from repro.bench import scan
from repro.bench.harness import native_axis

#: Local files plus the S3-style object store — the committed artifact
#: must cover both, so the wrapper pins the axis (the module default is
#: local-only for quick interactive runs).
BACKENDS = ("local", "object")


def bench_scan_throughput(run_once):
    rows = run_once(scan.run, backends=BACKENDS,
                    json_path="BENCH_scan.json")

    assert len(rows) == (len(scan.DEFAULT_DEPTHS)
                         * len(scan.DEFAULT_CODECS)
                         * len(BACKENDS) * len(native_axis()))
    stores = {}
    for row in rows:
        assert len(row["fingerprint"]) == 64
        assert row["mb_per_sec"] > 0
        codec, depth = row["delta_codec"], row["chain_depth"]
        stores.setdefault((row["backend"], codec, depth), set()) \
            .add(row["fingerprint"])
        # A select folds exactly the depth's chain, one level or many.
        assert row["chains_fused"] == 1
        assert row["fused_levels"] == depth - 1
        if codec in ("sparse", "hybrid"):
            assert row["scatter_levels"] == depth - 1
        else:
            assert row["scatter_levels"] == 0
    for store_key, prints in stores.items():
        assert len(prints) == 1, \
            f"native axis changed stored bytes at {store_key}"
