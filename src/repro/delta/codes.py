"""Shared encodings of delta *code arrays*.

Every delta codec in this package first reduces the cell-wise difference
of two versions to a flat array of unsigned 64-bit *codes* (arithmetic
deltas are zigzag-mapped so small signed differences become small codes;
float XOR deltas are already unsigned).  The three storage strategies of
Section III-B.3 then apply to the code array:

* **dense** — every code at the minimal uniform width D;
* **sparse** — positions and values of the nonzero codes only;
* **hybrid** — "if more than a fraction F of cells can be encoded using
  D' > D bits per cell, we create a separate matrix and store cells that
  require D' bits separately": a D-bit dense array for the small codes
  plus a sparse outlier table, with D chosen by exact cost minimization.

Each strategy has an encoder, a decoder, and a *size estimator* that
predicts the encoded byte count without materializing it — the estimators
feed the Materialization Matrix (Section IV-A).

The encoders come in two forms: ``encode_*`` returns one joined byte
string, and ``encode_*_parts`` returns the list of buffers that byte
string is made of (headers and packed sections).  The parts form is the
zero-copy handoff the write pipeline uses — the delta codecs prepend
their framing parts and the chunk store joins the final payload exactly
once at placement, so encoded sections are never recopied between
stages.  The decoders accept any buffer-protocol object and slice it
through ``memoryview`` (no ``bytes()`` copies on the read path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import bitpack, native, numeric
from repro.core.errors import CodecError
from repro.core.serial import (
    pack_i64,
    pack_u8,
    unpack_i64,
    unpack_u8,
)

_UINT64_MAX = np.uint64(np.iinfo(np.uint64).max)


def delta_to_codes(delta: np.ndarray, mode: str) -> np.ndarray:
    """Map a raw delta array onto unsigned codes."""
    if mode == numeric.ARITHMETIC:
        return bitpack.zigzag_encode(delta.ravel())
    if mode == numeric.XOR:
        return np.ascontiguousarray(delta, dtype=np.uint64).ravel()
    raise CodecError(f"unknown delta mode {mode!r}")


def codes_to_delta(codes: np.ndarray, mode: str) -> np.ndarray:
    """Inverse of :func:`delta_to_codes` (still flat)."""
    if mode == numeric.ARITHMETIC:
        return bitpack.zigzag_decode(codes)
    if mode == numeric.XOR:
        return np.ascontiguousarray(codes, dtype=np.uint64)
    raise CodecError(f"unknown delta mode {mode!r}")


def _view(data) -> memoryview:
    """``data`` as a memoryview so slicing never copies bytes."""
    return data if isinstance(data, memoryview) else memoryview(data)


def _checked_positions(positions: np.ndarray, count: int,
                       what: str) -> np.ndarray:
    """Sparse/hybrid scatter positions as a bounds-checked int64 index.

    Every decoder that scatters ``(position, value)`` pairs shares this
    one conversion + range check, so a corrupt payload fails the same
    way on every path (stepwise, fused, sparse, hybrid outliers).
    """
    index = positions.astype(np.int64)
    if index.size and (index.max() >= count or index.min() < 0):
        raise CodecError(f"{what} position out of range")
    return index


def _code_bit_lengths(codes: np.ndarray) -> np.ndarray:
    """Exact per-element bit length of an unsigned 64-bit code array.

    ``frexp`` on the float64 image yields the bit length directly for
    every value the conversion represents exactly; values that round
    *up* across a power-of-two boundary (possible above 2**53, and at
    the very top where 2**64 - 1 rounds to 2**64) come back one high
    and are corrected with a single shift-compare, so the result equals
    ``int(v).bit_length()`` for every uint64 — no sort, no Python loop.
    """
    exponents = np.frexp(codes.astype(np.float64))[1].astype(np.int64)
    np.minimum(exponents, 64, out=exponents)
    shifts = np.maximum(exponents - 1, 0).astype(np.uint64)
    rounded_up = (codes < (np.uint64(1) << shifts)) & (exponents > 0)
    return exponents - rounded_up


@dataclass(frozen=True)
class CodeStats:
    """Order statistics of one code array, computed in a single pass.

    A counting sort over code *bit widths*: ``width_counts[d]`` is the
    number of codes whose minimal width is exactly ``d``.  Everything
    the write-side estimators ever asked of ``np.sort(codes)`` +
    ``searchsorted`` falls out of its cumulative sums — the dense width
    (highest occupied bucket), the sparse nonzero count (everything
    above bucket 0), and the full hybrid split-cost curve (suffix sums
    are exactly the per-threshold outlier counts) — at O(n) instead of
    O(n log n), shared by every estimator *and* the winning encoder
    instead of being recomputed per candidate.

    ``outliers`` reproduces the sorted-search semantics bit for bit,
    including the width-64 sentinel the seed search produced (its
    ``1 << 64`` threshold wraps to 0, counting every code as an
    outlier), so cost curves — and therefore every argmin tie-break —
    are identical to the sorted search's.
    """

    n: int
    width_counts: np.ndarray
    max_bits: int
    nonzero: int
    outliers: np.ndarray

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "CodeStats":
        n = codes.size
        counts = np.zeros(65, dtype=np.int64)
        if n:
            # Bucket by the float64 exponent field: a normal image
            # f in [2**(w-1), 2**w) has biased exponent 1022 + w, so
            # one shift + one bincount yields the width histogram with
            # no per-element bit-length array at all.  f = 0 only for
            # code 0 (bucket 0), and codes that rounded up to exactly
            # 2**64 (efield 1087) are width 64 by construction.
            bits = codes.astype(np.float64).view(np.uint64)
            efield = (bits >> np.uint64(52)).view(np.int64)
            raw = np.bincount(efield, minlength=1088)
            counts[0] = raw[0]
            counts[1:] = raw[1023:1087]
            counts[64] += raw[1087]
            if raw[1077:1087].any():
                # Codes >= 2**54 landed on exact powers of two; any
                # that *rounded up* across a width boundary (possible
                # only above 2**53, where the conversion is inexact)
                # were bucketed one width high — move them down.  The
                # occupied-bucket guard keeps this correction entirely
                # off the common path.
                exact_pow2 = (bits << np.uint64(12)) == 0
                idx = np.flatnonzero(exact_pow2 & (efield >= 1077)
                                     & (efield <= 1086))
                widths = efield[idx] - 1023
                over = codes[idx] < \
                    (np.uint64(1) << widths.astype(np.uint64))
                moved = widths[over]
                if moved.size:
                    counts += np.bincount(moved, minlength=65)[:65]
                    counts -= np.bincount(moved + 1, minlength=65)[:65]
        return cls.from_width_counts(n, counts)

    @classmethod
    def from_width_counts(cls, n: int,
                          counts: np.ndarray) -> "CodeStats":
        """Stats from a precomputed 65-bucket width histogram.

        The fused native kernel emits the histogram alongside the code
        array; this derives the same order statistics from it that
        :meth:`from_codes` builds, so both construction paths share one
        definition of the cumulative quantities.
        """
        occupied = np.flatnonzero(counts)
        max_bits = int(occupied[-1]) if occupied.size else 0
        # outliers[d] = codes needing more than d bits = suffix sum of
        # the width histogram; the d = 64 entry keeps the seed search's
        # wrapped-threshold value (all codes) so curves match exactly.
        outliers = n - np.cumsum(counts[:max_bits + 1])
        if max_bits == 64:
            outliers[64] = n
        return cls(n=n, width_counts=counts, max_bits=max_bits,
                   nonzero=n - int(counts[0]), outliers=outliers)

    def outliers_at(self, width: int) -> int:
        """Codes the hybrid split at ``width`` stores as outliers."""
        return int(self.outliers[width])

    def split_curve(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The hybrid cost curve of this code array, computed once.

        The planner evaluates the curve twice per chunk — sizing the
        hybrid candidate, then choosing the winning split width at
        encode time — so the result is cached on the instance (stored
        through ``__dict__`` because the dataclass is frozen).
        """
        curve = self.__dict__.get("_split_curve")
        if curve is None:
            curve = _curve_from_outliers(self.n, self.max_bits,
                                         self.outliers)
            self.__dict__["_split_curve"] = curve
        return curve


# ----------------------------------------------------------------------
# Dense strategy
# ----------------------------------------------------------------------
def dense_size(codes: np.ndarray, stats: CodeStats | None = None) -> int:
    """Encoded bytes of the dense strategy (1-byte width header).

    ``stats`` supplies the precomputed width when the planner already
    paid for the shared pass; without it the width is derived here.
    """
    bits = stats.max_bits if stats is not None else \
        bitpack.required_bits_for(codes)
    return 1 + bitpack.packed_size(codes.size, bits)


def encode_dense_parts(codes: np.ndarray,
                       stats: CodeStats | None = None) -> list[bytes]:
    """Dense D-bit encoding as its constituent buffers."""
    bits = stats.max_bits if stats is not None else \
        bitpack.required_bits_for(codes)
    return [pack_u8(bits), bitpack.pack_unsigned(codes, bits)]


def encode_dense(codes: np.ndarray) -> bytes:
    """Dense D-bit encoding: ``u8 bits`` + packed codes."""
    return b"".join(encode_dense_parts(codes))


def decode_dense(data, offset: int, count: int
                 ) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_dense`; returns ``(codes, next_offset)``."""
    data = _view(data)
    bits, offset = unpack_u8(data, offset)
    packed_len = bitpack.packed_size(count, bits)
    codes = bitpack.unpack_unsigned(
        data[offset:offset + packed_len], bits, count)
    return codes, offset + packed_len


def decode_dense_into(data, offset: int, count: int,
                      accumulator: np.ndarray, mode: str) -> int:
    """Fold a dense section into a fused-chain accumulator.

    The fused read path's counterpart of :func:`decode_dense`: the
    decoded level delta is added/xored into ``accumulator`` via the
    ``out=`` kernels instead of materializing an intermediate version.
    Returns the next offset.
    """
    codes, offset = decode_dense(data, offset, count)
    numeric.accumulate_delta(accumulator, codes_to_delta(codes, mode),
                             mode)
    return offset


def ensure_accumulator(accumulator: np.ndarray | None, mode: str,
                       count: int) -> np.ndarray:
    """A fused-chain accumulator matching ``(mode, count)``.

    Allocates on first use; on reuse verifies the chain is uniform —
    every level of one chunk's chain must share the delta mode and
    cell count (the dtype is fixed per attribute), so a mismatch means
    a corrupt chain rather than a composable one.
    """
    if accumulator is None:
        return numeric.delta_accumulator(mode, count)
    if accumulator.dtype != numeric.accumulator_dtype(mode) or \
            accumulator.size != count:
        raise CodecError(
            "fused chain mixes delta modes or cell counts across levels")
    return accumulator


# ----------------------------------------------------------------------
# Split-and-pack (shared by the sparse and hybrid encoders)
# ----------------------------------------------------------------------
def _split_parts(codes: np.ndarray, small_bits: int,
                 stats: CodeStats | None
                 ) -> tuple[bytes, list[bytes]] | None:
    """One compiled pass over ``codes`` split at ``small_bits``, or None.

    Returns the packed small-code section and the outlier table
    (count, position width, value width, positions, values) — the
    sparse encoding *is* that table at ``small_bits = 0``, the hybrid
    encoding the small width byte, the section and the table.  The
    outlier count and value width are read off ``stats`` (the outliers
    include the array maximum whenever there are any), so nothing is
    re-scanned.  None without ``stats`` or the kernel: the numpy
    forms below are the byte-identical fallback.
    """
    if stats is None or not codes.size:
        return None
    # outliers[64] is the cost curve's wrapped-threshold sentinel; no
    # code needs more than 64 bits.
    outliers = stats.outliers_at(small_bits) if small_bits < 64 else 0
    value_bits = stats.max_bits if outliers else 0
    sections = native.split_pack(codes, small_bits, outliers, value_bits)
    if sections is None:
        return None
    small, positions, values = sections
    position_bits = bitpack.required_bits(codes.size - 1)
    return small, [pack_i64(outliers), pack_u8(position_bits),
                   pack_u8(value_bits), positions, values]


# ----------------------------------------------------------------------
# Sparse strategy
# ----------------------------------------------------------------------
def sparse_size(codes: np.ndarray, stats: CodeStats | None = None) -> int:
    """Encoded bytes of the sparse strategy without materializing it.

    Codes are unsigned, so when any is nonzero the array maximum *is*
    the nonzero maximum — no re-masking pass over the array; with
    ``stats`` both the nonzero count and the value width come straight
    from the shared histogram and no array pass runs at all.
    """
    if stats is not None:
        nonzero = stats.nonzero
        value_bits = stats.max_bits
    else:
        nonzero = int(np.count_nonzero(codes))
        value_bits = bitpack.required_bits(int(codes.max())) \
            if nonzero else 0
    position_bits = bitpack.required_bits(max(0, codes.size - 1))
    return (8 + 1 + 1
            + bitpack.packed_size(nonzero, position_bits)
            + bitpack.packed_size(nonzero, value_bits))


def encode_sparse_parts(codes: np.ndarray,
                        stats: CodeStats | None = None) -> list[bytes]:
    """Sparse encoding as its constituent buffers.

    One :func:`np.flatnonzero` pass yields the positions, which gather
    the values directly (no uint64/int64 index round trip); ``stats``
    additionally supplies the value width, skipping the max reduction
    over the gathered values — and lets the compiled split-and-pack
    pass (a split at width 0) replace the numpy form outright.
    """
    split = _split_parts(codes, 0, stats)
    if split is not None:
        return split[1]
    positions = np.flatnonzero(codes)
    values = codes[positions]
    position_bits = bitpack.required_bits(max(0, codes.size - 1))
    if stats is not None:
        value_bits = stats.max_bits if positions.size else 0
    else:
        value_bits = bitpack.required_bits_for(values)
    return [
        pack_i64(len(positions)),
        pack_u8(position_bits),
        pack_u8(value_bits),
        bitpack.pack_unsigned(positions, position_bits),
        bitpack.pack_unsigned(values, value_bits),
    ]


def encode_sparse(codes: np.ndarray) -> bytes:
    """Sparse encoding: nonzero (position, code) pairs, both bit-packed."""
    return b"".join(encode_sparse_parts(codes))


def decode_sparse(data, offset: int, count: int
                  ) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_sparse`."""
    data = _view(data)
    nonzero, offset = unpack_i64(data, offset)
    position_bits, offset = unpack_u8(data, offset)
    value_bits, offset = unpack_u8(data, offset)
    positions_len = bitpack.packed_size(nonzero, position_bits)
    positions = bitpack.unpack_unsigned(
        data[offset:offset + positions_len], position_bits, nonzero)
    offset += positions_len
    values_len = bitpack.packed_size(nonzero, value_bits)
    values = bitpack.unpack_unsigned(
        data[offset:offset + values_len], value_bits, nonzero)
    offset += values_len
    codes = np.zeros(count, dtype=np.uint64)
    index = _checked_positions(positions, count, "sparse delta")
    codes[index] = values
    return codes, offset


def decode_sparse_into(data, offset: int, count: int,
                       accumulator: np.ndarray, mode: str,
                       batch: list | None = None) -> int:
    """Fold a sparse section into a fused-chain accumulator.

    The fused read path's replacement for :func:`decode_sparse`: the
    ``(positions, values)`` pairs scatter-accumulate straight into
    ``accumulator`` — no full-size ``codes`` canvas is ever allocated,
    so a level that changed n cells costs O(n), not O(count).  With
    ``batch`` given, the decoded (bounds-checked) pairs are appended
    to it instead of scattered, so the caller can fold every scatter
    level of a chain in one batched call
    (:func:`repro.core.numeric.scatter_delta_batch`).  Returns the
    next offset.
    """
    data = _view(data)
    nonzero, offset = unpack_i64(data, offset)
    position_bits, offset = unpack_u8(data, offset)
    value_bits, offset = unpack_u8(data, offset)
    positions_len = bitpack.packed_size(nonzero, position_bits)
    positions = bitpack.unpack_unsigned(
        data[offset:offset + positions_len], position_bits, nonzero)
    offset += positions_len
    values_len = bitpack.packed_size(nonzero, value_bits)
    values = bitpack.unpack_unsigned(
        data[offset:offset + values_len], value_bits, nonzero)
    offset += values_len
    index = _checked_positions(positions, count, "sparse delta")
    if index.size:
        if batch is not None:
            batch.append((index, codes_to_delta(values, mode)))
        else:
            numeric.scatter_delta(accumulator, index,
                                  codes_to_delta(values, mode), mode)
    return offset


# ----------------------------------------------------------------------
# Hybrid strategy
# ----------------------------------------------------------------------
def _split_costs(codes: np.ndarray, stats: CodeStats | None = None
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Cost of the hybrid encoding for every candidate small-width d.

    Returns ``(candidate_widths, costs, value_bits)`` where ``costs[k]``
    is the total byte cost of storing codes < 2**widths[k] densely at
    widths[k] bits and the rest as sparse outliers.  With ``stats`` the
    per-threshold outlier counts come from the shared width histogram
    (no sort); the curve arithmetic is one code path either way, so the
    two forms cannot disagree on a single cost or tie-break.
    """
    if stats is not None:
        return stats.split_curve()
    n = codes.size
    max_bits = bitpack.required_bits_for(codes)
    if n == 0:
        return _curve_from_outliers(n, max_bits,
                                    np.zeros(1, dtype=np.int64))
    widths = np.arange(max_bits + 1)
    sorted_codes = np.sort(codes)
    # outliers(d) = number of codes >= 2**d  (d = max_bits -> none).
    thresholds = np.minimum(np.uint64(1) << widths.astype(np.uint64),
                            _UINT64_MAX)
    below = np.searchsorted(sorted_codes, thresholds, side="left")
    return _curve_from_outliers(n, max_bits, n - below)


def _curve_from_outliers(n: int, max_bits: int, outliers: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, int]:
    """The shared curve arithmetic behind :func:`_split_costs`.

    Both outlier-count sources — the sorted search and the width
    histogram's suffix sums — feed this one function, so the two forms
    cannot disagree on a single cost or tie-break.
    """
    widths = np.arange(max_bits + 1)
    if n == 0:
        return widths, np.zeros(len(widths)), 0

    position_bits = bitpack.required_bits(max(0, n - 1))
    value_bits = max_bits
    dense_bytes = (n * widths + 7) // 8
    outlier_bytes = ((outliers * position_bits + 7) // 8
                     + (outliers * value_bits + 7) // 8)
    overhead = 8 + 1 + 1 + 1  # count + small width + pos/val widths
    costs = dense_bytes + outlier_bytes + overhead
    return widths, costs, value_bits


def hybrid_size(codes: np.ndarray, stats: CodeStats | None = None) -> int:
    """Encoded bytes of the optimal hybrid split (estimator)."""
    widths, costs, _ = _split_costs(codes, stats)
    if codes.size == 0:
        return 11
    return int(costs.min())


def hybrid_split_width(codes: np.ndarray,
                       stats: CodeStats | None = None) -> int:
    """The small-code bit width the optimal hybrid split uses."""
    widths, costs, _ = _split_costs(codes, stats)
    return int(widths[int(np.argmin(costs))])


def encode_hybrid_parts(codes: np.ndarray,
                        stats: CodeStats | None = None) -> list[bytes]:
    """Optimal small/large split encoding as its constituent buffers.

    With ``stats`` the cost search reuses the shared width histogram
    instead of re-sorting and the split itself is one compiled pass
    (:func:`_split_parts`).  The numpy form below it is the fallback
    and the oracle: with ``stats`` a split with no outliers packs
    ``codes`` directly — no mask, no ``where`` copy, no nonzero scan —
    and otherwise the mask is built exactly once for both the
    positions and the zeroed small array.  All forms emit identical
    bytes.
    """
    n = codes.size
    widths, costs, value_bits = _split_costs(codes, stats)
    small_bits = int(widths[int(np.argmin(costs))]) if n else 0
    position_bits = bitpack.required_bits(max(0, n - 1))

    split = _split_parts(codes, small_bits, stats)
    if split is not None:
        return [pack_u8(small_bits), split[0], *split[1]]

    if n and stats is not None and not stats.outliers_at(small_bits):
        # The chosen split keeps every code dense: the packed small
        # array is the code array itself (bytes identical to the
        # masked copy the general path would have produced).
        empty = codes[:0]
        return [
            pack_u8(small_bits),
            bitpack.pack_unsigned(codes, small_bits),
            pack_i64(0),
            pack_u8(position_bits),
            pack_u8(0),
            bitpack.pack_unsigned(empty, position_bits),
            bitpack.pack_unsigned(empty, 0),
        ]

    if n:
        threshold = (np.uint64(1) << np.uint64(small_bits)) \
            if small_bits < 64 else _UINT64_MAX
        is_outlier = codes >= threshold if small_bits < 64 else \
            np.zeros(n, dtype=bool)
    else:
        is_outlier = np.zeros(0, dtype=bool)

    small = np.where(is_outlier, np.uint64(0), codes)
    # One nonzero pass over the outlier mask: the positions index the
    # outlier values directly.
    positions = np.flatnonzero(is_outlier)
    values = codes[positions]
    out_value_bits = bitpack.required_bits_for(values)
    return [
        pack_u8(small_bits),
        bitpack.pack_unsigned(small, small_bits),
        pack_i64(len(positions)),
        pack_u8(position_bits),
        pack_u8(out_value_bits),
        bitpack.pack_unsigned(positions, position_bits),
        bitpack.pack_unsigned(values, out_value_bits),
    ]


def encode_hybrid(codes: np.ndarray) -> bytes:
    """Optimal small/large split encoding (Section III-B.3)."""
    return b"".join(encode_hybrid_parts(codes))


def decode_hybrid(data, offset: int, count: int
                  ) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_hybrid`."""
    data = _view(data)
    small_bits, offset = unpack_u8(data, offset)
    small_len = bitpack.packed_size(count, small_bits)
    codes = bitpack.unpack_unsigned(
        data[offset:offset + small_len], small_bits, count)
    offset += small_len

    outlier_count, offset = unpack_i64(data, offset)
    position_bits, offset = unpack_u8(data, offset)
    value_bits, offset = unpack_u8(data, offset)
    positions_len = bitpack.packed_size(outlier_count, position_bits)
    positions = bitpack.unpack_unsigned(
        data[offset:offset + positions_len], position_bits, outlier_count)
    offset += positions_len
    values_len = bitpack.packed_size(outlier_count, value_bits)
    values = bitpack.unpack_unsigned(
        data[offset:offset + values_len], value_bits, outlier_count)
    offset += values_len

    index = _checked_positions(positions, count, "hybrid delta outlier")
    codes[index] = values
    return codes, offset


def decode_hybrid_into(data, offset: int, count: int,
                       accumulator: np.ndarray, mode: str,
                       batch: list | None = None) -> int:
    """Fold a hybrid section into a fused-chain accumulator.

    The small-code array stores code 0 (delta 0, the compose identity)
    at every outlier position, so accumulating the dense part and then
    scatter-accumulating the outliers composes exactly under both
    modes.  A 0-bit small width (every code an outlier, or an all-zero
    level) skips the dense pass entirely.  With ``batch`` given the
    outlier pairs are deferred to the caller's batched scatter exactly
    as in :func:`decode_sparse_into`.  Returns the next offset.
    """
    data = _view(data)
    small_bits, offset = unpack_u8(data, offset)
    small_len = bitpack.packed_size(count, small_bits)
    if small_bits:
        small = bitpack.unpack_unsigned(
            data[offset:offset + small_len], small_bits, count)
        numeric.accumulate_delta(accumulator,
                                 codes_to_delta(small, mode), mode)
    offset += small_len

    outlier_count, offset = unpack_i64(data, offset)
    position_bits, offset = unpack_u8(data, offset)
    value_bits, offset = unpack_u8(data, offset)
    positions_len = bitpack.packed_size(outlier_count, position_bits)
    positions = bitpack.unpack_unsigned(
        data[offset:offset + positions_len], position_bits, outlier_count)
    offset += positions_len
    values_len = bitpack.packed_size(outlier_count, value_bits)
    values = bitpack.unpack_unsigned(
        data[offset:offset + values_len], value_bits, outlier_count)
    offset += values_len

    index = _checked_positions(positions, count, "hybrid delta outlier")
    if index.size:
        if batch is not None:
            batch.append((index, codes_to_delta(values, mode)))
        else:
            numeric.scatter_delta(accumulator, index,
                                  codes_to_delta(values, mode), mode)
    return offset
