"""Codec kernel throughput — D-bit pack/unpack at chunk granularity.

Section III-B.3's D-bit packed deltas are the innermost loop of every
delta encode and decode, so the bit-packing kernels' throughput bounds
the CPU-bound ingest and reconstruction profiles.  This experiment
sweeps a deterministic ``bits`` x ``count`` x ``native`` grid (the
compiled pack/unpack kernels vs the pure-numpy word kernels, swept
in-process via :func:`repro.core.native.disabled`; the axis collapses
to native=0 on hosts without a compiler) and reports, per cell:

* ``pack_mb_per_sec`` / ``unpack_mb_per_sec`` — raw-value throughput
  (uint64 input bytes over the kernel's wall clock, min-of-N);
* ``pack_speedup`` / ``unpack_speedup`` — the word-level kernels
  against an in-bench *bit-matrix reference* (the seed implementation:
  expand every value to single-bit bytes, ``np.packbits`` the matrix),
  so the artifact records how much the word kernels buy on the same
  host that produced the timing: the median, over alternating rounds,
  of the reference's time over the kernel's in the same round, so a
  host that slows down for a moment slows both sides of one ratio
  instead of one side of the only one;
* ``fingerprint`` — SHA-256 of the packed stream, which the regression
  gate compares against the committed artifact: the kernels may change
  wall clock only, never a stored byte.

``count`` defaults to the sizes the storage manager actually runs: a
32768-value cell is one default-chunk int64 payload (``chunk_bytes`` =
256 KiB), and a 4096-value cell exercises the gather unpack below the
blocked-unpack threshold.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
from pathlib import Path

import numpy as np

from paper.harness import native_axis, print_table, timed
from repro.core import bitpack, native

#: Bit widths spanning the fast reinterpret paths (8/16/32/64), both
#: word-straddling odd widths, and a sub-byte width.
DEFAULT_BITS = (3, 7, 8, 13, 16, 29, 32, 47, 64)
#: One sub-threshold (gather/scatter) and one chunk-sized (blocked)
#: cell per width.
DEFAULT_COUNTS = (4096, 32768)


def _bit_matrix_pack(values: np.ndarray, bits: int) -> bytes:
    """The seed's per-bit packer: the reference the speedups are
    measured against (and an independent witness for the fingerprint —
    the word kernels must reproduce its output byte for byte)."""
    if bits == 0 or values.size == 0:
        return b""
    shifts = np.arange(bits, dtype=np.uint64)
    matrix = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(matrix.ravel(), bitorder="little").tobytes()


def _bit_matrix_unpack(data: bytes, bits: int, count: int) -> np.ndarray:
    if bits == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8, count=(count * bits + 7) // 8)
    flat = np.unpackbits(raw, bitorder="little", count=count * bits)
    matrix = flat.reshape(count, bits).astype(np.uint64)
    return matrix @ (np.uint64(1) << np.arange(bits, dtype=np.uint64))


def _codes(bits: int, count: int, seed: int = 2012) -> np.ndarray:
    """Deterministic uniform codes of exactly ``bits`` width."""
    rng = np.random.default_rng(seed + bits * 1000 + count)
    if bits == 64:
        return rng.integers(0, 2**64 - 1, size=count, dtype=np.uint64,
                            endpoint=True)
    return rng.integers(0, 2**bits, size=count, dtype=np.uint64)


#: The fewest alternating rounds a speedup is the median of.
MIN_ROUNDS = 5


def _race(kernel, reference, rounds: int) -> tuple[float, float]:
    """``(kernel seconds, speedup)``: ``kernel`` and ``reference`` timed
    back to back in ``rounds`` (at least :data:`MIN_ROUNDS`) rounds,
    each round running them in the other order from the last.  The
    kernel's time is its fastest pass; the speedup the median of the
    rounds' reference-over-kernel ratios."""
    best, ratios = float("inf"), []
    for round_ in range(max(MIN_ROUNDS, rounds)):
        sides = [("kernel", kernel), ("reference", reference)]
        if round_ % 2:
            sides.reverse()
        seconds = {}
        for name, func in sides:
            with timed() as clock:
                func()
            seconds[name] = clock.seconds
        best = min(best, seconds["kernel"])
        ratios.append(seconds["reference"] / seconds["kernel"])
    return best, statistics.median(ratios)


def run(bits_axis=DEFAULT_BITS, counts=DEFAULT_COUNTS, *,
        repeats: int = 7, json_path: str | Path | None = None,
        quiet: bool = False) -> list[dict]:
    """Measure pack/unpack throughput over the bits x count grid.

    Every cell packs the same seeded codes with both the word kernels
    and the bit-matrix reference, asserts they agree byte for byte,
    and races the two sides in ``repeats`` alternating rounds
    (:func:`_race`).
    """
    rows = []
    for bits in bits_axis:
        for count in counts:
            values = _codes(bits, count)
            raw_mb = values.nbytes / 1e6

            packed = bitpack.pack_unsigned(values, bits)
            reference = _bit_matrix_pack(values, bits)
            if packed != reference:
                raise AssertionError(
                    f"word kernel diverged from bit-matrix reference "
                    f"at bits={bits} count={count}")

            for use_native in native_axis():
                with contextlib.ExitStack() as stack:
                    if not use_native:
                        stack.enter_context(native.disabled())
                    if bitpack.pack_unsigned(values, bits) != packed:
                        raise AssertionError(
                            f"native pack diverged at bits={bits} "
                            f"count={count} native={use_native}")
                    pack_s, pack_speedup = _race(
                        lambda: bitpack.pack_unsigned(values, bits),
                        lambda: _bit_matrix_pack(values, bits), repeats)
                    unpack_s, unpack_speedup = _race(
                        lambda: bitpack.unpack_unsigned(packed, bits,
                                                        count),
                        lambda: _bit_matrix_unpack(packed, bits, count),
                        repeats)

                rows.append({
                    "bits": bits,
                    "count": count,
                    "native": use_native,
                    "packed_bytes": len(packed),
                    "raw_mb": raw_mb,
                    "pack_mb_per_sec": raw_mb / pack_s,
                    "unpack_mb_per_sec": raw_mb / unpack_s,
                    "pack_speedup": pack_speedup,
                    "unpack_speedup": unpack_speedup,
                    "fingerprint": hashlib.sha256(packed).hexdigest(),
                })

    if json_path is not None:
        Path(json_path).write_text(json.dumps(rows, indent=2))
    if not quiet:
        print_table(
            "Codec kernels: D-bit pack/unpack throughput (word kernels"
            " vs bit-matrix reference; packed bytes identical)",
            ["Bits", "Count", "Native", "Pack MB/s", "Unpack MB/s",
             "Pack Speedup", "Unpack Speedup"],
            [[str(row["bits"]), str(row["count"]), str(row["native"]),
              f"{row['pack_mb_per_sec']:.0f}",
              f"{row['unpack_mb_per_sec']:.0f}",
              f"{row['pack_speedup']:.1f}x",
              f"{row['unpack_speedup']:.1f}x"]
             for row in rows])
    return rows


if __name__ == "__main__":  # pragma: no cover
    run(json_path="BENCH_codec.json")
