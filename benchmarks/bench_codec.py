"""Experiment C1 — D-bit pack/unpack kernel throughput.

The sweep runs the word-level kernels over a deterministic bits x
count x native grid against the bit-matrix reference implementation
(the per-bit expansion the kernels replaced).  Wall-clock and speedup
columns are hardware-dependent and asserted loosely; what must hold
everywhere is the format contract: numpy word kernels and compiled
kernels alike produce byte-identical packed streams to the reference
(one SHA-256 fingerprint per cell, identical across the native axis,
gated against the committed ``BENCH_codec.json`` by the fingerprint
regression check).

No compiled kernel sits behind ``repro.core.bitpack`` any more (the
store packs and unpacks inside its one encode call and its one fold
call), so the native axis now runs the numpy word kernels on both
sides.  The gates are unchanged; retargeting the axis at the compiled
calls is a benchmark change of its own.
"""

from paper import codec
from paper.harness import native_axis


def bench_codec_kernels(run_once):
    rows = run_once(codec.run, json_path="BENCH_codec.json")

    assert len(rows) == (len(codec.DEFAULT_BITS)
                         * len(codec.DEFAULT_COUNTS)
                         * len(native_axis()))
    by_cell = {}
    for row in rows:
        # run() itself asserts the packed stream matches the bit-matrix
        # reference byte for byte; the fingerprint column freezes it.
        assert len(row["fingerprint"]) == 64
        assert row["pack_mb_per_sec"] > 0
        assert row["unpack_mb_per_sec"] > 0
        by_cell.setdefault((row["bits"], row["count"]), set()) \
            .add(row["fingerprint"])
    # The compiled kernels may change wall clock only, never a packed
    # byte: one fingerprint per (bits, count) across the native axis.
    for cell, prints in by_cell.items():
        assert len(prints) == 1, \
            f"native axis changed packed bytes at {cell}"

    # The whole point of the word kernels: on chunk-sized cells at
    # word-kernel widths they must beat the per-bit reference outright
    # (the margin is 2-500x in practice; each speedup is the median of
    # alternating rounds' ratios, not one best-of timing per side, and
    # the floors keep the gate robust to a noisy CI host).  The
    # narrowest widths intentionally dispatch to the same per-bit
    # algorithm as the reference, so they only owe parity — except
    # under the compiled kernels, which handle every width 1..63 in one
    # carry-register loop.
    chunk_cells = [row for row in rows if row["count"] == 32768]
    assert chunk_cells
    for row in chunk_cells:
        if row["bits"] >= 8:
            assert row["pack_speedup"] > 1.5, \
                f"pack kernel slower than reference at bits={row['bits']}"
            assert row["unpack_speedup"] > 1.0, \
                f"unpack kernel slower than reference at bits={row['bits']}"
        else:
            assert row["pack_speedup"] > 0.4
            assert row["unpack_speedup"] > 0.4
