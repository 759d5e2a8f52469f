"""Shared encodings of delta *code arrays*, and the plan that feeds them.

Every delta codec in this package first reduces the cell-wise difference
of two versions to a flat array of unsigned 64-bit *codes* (arithmetic
deltas are zigzag-mapped so small signed differences become small codes;
float XOR deltas are already unsigned).  :class:`CodePlan` is the one
place that reduction happens: one pass over a ``(target, base)`` pair
yields the codes — as a run list, only the runs of cells that changed —
and their :class:`CodeStats` width histogram, and everything
downstream — pricing a candidate, pricing a Materialization Matrix
entry (Section IV-A), choosing the hybrid split, emitting a payload —
is arithmetic on that histogram plus at most one pack over the runs.

The three storage strategies of Section III-B.3 apply to the code array:

* **dense** — every code at the minimal uniform width D;
* **sparse** — positions and values of the nonzero codes only;
* **hybrid** — "if more than a fraction F of cells can be encoded using
  D' > D bits per cell, we create a separate matrix and store cells that
  require D' bits separately": a D-bit dense array for the small codes
  plus a sparse outlier table, with D chosen by exact cost minimization.
  Sparse *is* the hybrid split at D = 0 without the dense section, so
  both share one split writer and one outlier-table reader.

Each strategy is three functions and a layout: ``*_size`` (the exact
encoded byte count, without encoding), ``encode_*_parts`` (the list of
buffers the payload is made of — the zero-copy handoff the write
pipeline joins exactly once at placement; ``encode_*`` is the joined
form), ``decode_*`` (the stepwise canvas form the fused read is tested
against), and which of the two section kinds — :data:`SMALL`,
:data:`TABLE` — its payload is made of, which is all :func:`fold_chain`
(the read path: every level of a chain folded straight into the cells
of the version being read) needs to know of it.  The size and encode
functions take the plan's run list and ``stats``; a caller holding a
bare code array passes it and omits ``stats``, paying for the
histogram on the function's first line — there is one body either way.

The decoders accept any buffer-protocol object and slice it through
``memoryview`` (no ``bytes()`` copies on the read path).  They trust
nothing in the bytes: every section length is re-derived from the
``count`` the *caller* supplies, and the one count the payload itself
carries (the outlier table's) is checked against it before anything is
sized from it — a corrupt payload raises
:class:`~repro.core.errors.CodecError`, never allocates by its own say.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.core import bitpack, native, numeric
from repro.core.errors import CodecError, DeltaLevelError
from repro.core.serial import (
    pack_i64,
    pack_u8,
    unpack_i64,
    unpack_u8,
)


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

    def split_curve(self) -> np.ndarray:
        """The hybrid cost curve: ``curve[d]`` is the byte cost of
        storing codes below ``2**d`` densely at ``d`` bits and the rest
        as outliers, for every candidate width ``0..max_bits``.

        The planner reads the curve twice per chunk — sizing the
        hybrid candidate, then choosing the winning split width at
        encode time — so it is cached on the instance (stored through
        ``__dict__`` because the dataclass is frozen).
        """
        curve = self.__dict__.get("_split_curve")
        if curve is None:
            widths = np.arange(self.max_bits + 1)
            position_bits = bitpack.required_bits(max(0, self.n - 1))
            curve = ((self.n * widths + 7) // 8
                     + (self.outliers * position_bits + 7) // 8
                     + (self.outliers * self.max_bits + 7) // 8
                     + 8 + 1 + 1 + 1)  # count, small / pos / val widths
            self.__dict__["_split_curve"] = curve
        return curve


class _Runs(NamedTuple):
    """A flat code array of ``n`` cells as its *run list*: ``spans``
    are ``(first cell, cell count)`` rows, ascending and disjoint, and
    ``codes`` their codes back to back; every cell outside them is
    code 0.  The analysis kernel emits only the runs that differ from
    the base; a bare array is one run over every cell."""

    n: int
    codes: np.ndarray
    spans: np.ndarray

    @classmethod
    def of(cls, codes) -> "_Runs":
        """``codes`` as a run list: itself when it is one, else one
        run over the whole (flattened, uint64) array."""
        if isinstance(codes, _Runs):
            return codes
        codes = np.ascontiguousarray(codes, dtype=np.uint64).ravel()
        return cls(codes.size, codes,
                   np.array([[0, codes.size]], dtype=np.int64))

    def expand(self) -> np.ndarray:
        """The full flat code array (the run's own codes when one run
        covers every cell)."""
        first, count = self.spans[:, 0], self.spans[:, 1]
        if len(self.spans) == 1 and first[0] == 0 and count[0] == self.n:
            return self.codes[:self.n]
        full = np.zeros(self.n, dtype=np.uint64)
        total = int(count.sum())
        # Cell of the k-th code: its run's first cell plus its offset
        # within the run.
        cells = np.arange(total) + np.repeat(first - np.cumsum(count)
                                             + count, count)
        full[cells] = self.codes[:total]
        return full


@dataclass(frozen=True)
class CodePlan:
    """The shared single-pass state of one ``(target, base)`` delta.

    Computed once per pair and handed to every consumer — each
    candidate codec on the write path, the Materialization Matrix, the
    table benches: the compose ``mode``, the code array the strategies
    of Section III-B.3 operate on as its run list ``runs`` (on the
    compiled path only the runs that differ from the base; the numpy
    path's full array is one run), and the code array's
    :class:`CodeStats`.  Dense width, sparse nonzero count and the full
    hybrid split-cost curve all fall out of the same statistics, so
    pricing a representation costs arithmetic on a 65-bucket histogram,
    not a pass over the chunk, and packing the winner walks only the
    runs.  :attr:`codes` is the full flat array, expanded on first use
    (the numpy packers, the table benches, tests).
    """

    target: np.ndarray
    base: np.ndarray
    mode: str
    runs: _Runs
    stats: CodeStats

    @cached_property
    def codes(self) -> np.ndarray:
        return self.runs.expand()

    @classmethod
    def build(cls, target: np.ndarray, base: np.ndarray, *,
              scratch: np.ndarray | None = None,
              adopt: bool = False) -> "CodePlan":
        """Plan ``target`` against ``base``.

        Both arrays may be strided chunk views; the compiled analysis
        pass reads them in place.  ``scratch`` (flat uint64, at least
        :func:`repro.core.native.scratch_cells` of ``target.size``
        long) lends the plan its run list's storage: the plan is then
        only valid until the lender reuses it.  ``adopt`` leaves the
        (writable) ``base`` holding ``target``'s cells — the kernel
        copies just the runs that differ — so ``plan.base`` is the
        target's contents afterwards.  Every store delta codec encodes
        from the run list alone and never reads ``plan.base``, so any
        of them may encode an adopted plan.
        """
        numeric.check_same_layout(target, base)
        if adopt and not base.flags.writeable:
            raise ValueError("adopting a delta base needs it writable")
        mode = numeric.delta_mode_for(target.dtype)
        fused = native.delta_zigzag_stats(target, base, out=scratch,
                                          adopt=adopt)
        if fused is not None:
            codes, spans, counts = fused
            return cls(target, base, mode, _Runs(target.size, codes, spans),
                       CodeStats.from_width_counts(target.size, counts))
        delta, _ = numeric.compute_delta(target, base)
        codes = delta_to_codes(delta, mode)
        if adopt:
            np.copyto(base, target)
        return cls(target, base, mode, _Runs.of(codes),
                   CodeStats.from_codes(codes))


# ----------------------------------------------------------------------
# Dense strategy
# ----------------------------------------------------------------------
def dense_size(codes: np.ndarray | _Runs,
               stats: CodeStats | None = None) -> int:
    """Encoded bytes of the dense strategy (1-byte width header)."""
    stats = stats or CodeStats.from_codes(codes)
    return 1 + bitpack.packed_size(stats.n, stats.max_bits)


def encode_dense_parts(codes: np.ndarray | _Runs,
                       stats: CodeStats | None = None) -> list[bytes]:
    """Dense D-bit encoding as its constituent buffers: the split at
    the widest code, which has no outliers."""
    stats = stats or CodeStats.from_codes(codes)
    small, _, _ = _pack(_Runs.of(codes), stats.max_bits, 0, 0)
    return [pack_u8(stats.max_bits), small]


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


# ----------------------------------------------------------------------
# The split: packed small codes + an outlier table (sparse and hybrid)
# ----------------------------------------------------------------------
def _pack(runs: _Runs, small_bits: int, outliers: int, value_bits: int
          ) -> tuple[bytes, bytes, bytes]:
    """The packed ``(small, positions, values)`` sections of ``runs``
    split at ``small_bits``: every code below ``2**small_bits`` in the
    small section (zero at the outlier positions; none at width 0), the
    ``outliers`` others' positions and values at ``value_bits``.  The
    compiled pack walks the run list; the numpy form over the full
    array is the byte-identical fallback."""
    sections = native.pack_runs(runs.codes, runs.spans, runs.n,
                                small_bits, outliers, value_bits)
    if sections is not None:
        return sections
    codes = runs.expand()
    position_bits = bitpack.required_bits(max(0, runs.n - 1))
    positions = np.flatnonzero(codes >> np.uint64(small_bits)) \
        if outliers else codes[:0]
    small = codes
    if outliers and small_bits:
        small = codes.copy()
        small[positions] = 0
    return (bitpack.pack_unsigned(small, small_bits) if small_bits
            else b"",
            bitpack.pack_unsigned(positions, position_bits),
            bitpack.pack_unsigned(codes[positions], value_bits))


def _split_parts(codes: np.ndarray | _Runs, small_bits: int,
                 stats: CodeStats) -> tuple[bytes, list[bytes]]:
    """``codes`` split at ``small_bits``: the packed small-code section
    (zeros at the outlier positions) and the outlier table (count,
    position width, value width, positions, values).

    The sparse encoding *is* that table at ``small_bits = 0``; the
    hybrid encoding the small width byte, the section and the table.
    The outlier count and value width are read off ``stats`` (the
    outliers include the array maximum whenever there are any), so
    nothing is re-scanned, and one pack writes all three streams.
    ``small_bits`` < 64: the cost curve never selects 64
    (``curve[64] >= curve[63]``), and sparse passes 0.
    """
    outliers = stats.outliers_at(small_bits)
    value_bits = stats.max_bits if outliers else 0
    position_bits = bitpack.required_bits(max(0, stats.n - 1))
    small, positions, values = _pack(_Runs.of(codes), small_bits,
                                     outliers, value_bits)
    return small, [pack_i64(outliers), pack_u8(position_bits),
                   pack_u8(value_bits), positions, values]


def _read_outliers(data: memoryview, offset: int, count: int, what: str
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse one outlier table; returns ``(index, values, next_offset)``.

    The one reader behind every sparse / hybrid decoder, stepwise and
    fused, so a corrupt payload fails the same way on every path: the
    entry count is read from the bytes and must fit the ``count`` cells
    the caller is decoding *before* it sizes anything, and the
    positions come back as a bounds-checked int64 index.
    """
    outliers, offset = unpack_i64(data, offset)
    if not 0 <= outliers <= count:
        raise CodecError(
            f"{what} table claims {outliers} entries for {count} cells")
    position_bits, offset = unpack_u8(data, offset)
    value_bits, offset = unpack_u8(data, offset)
    end = offset + bitpack.packed_size(outliers, position_bits)
    index = bitpack.unpack_unsigned(
        data[offset:end], position_bits, outliers).astype(np.int64)
    offset = end + bitpack.packed_size(outliers, value_bits)
    values = bitpack.unpack_unsigned(
        data[end:offset], value_bits, outliers)
    if index.size and (index.max() >= count or index.min() < 0):
        raise CodecError(f"{what} position out of range")
    return index, values, offset


# ----------------------------------------------------------------------
# Sparse strategy
# ----------------------------------------------------------------------
def sparse_size(codes: np.ndarray | _Runs,
                stats: CodeStats | None = None) -> int:
    """Encoded bytes of the sparse strategy without materializing it.

    Codes are unsigned, so when any is nonzero the array maximum *is*
    the nonzero maximum: both the nonzero count and the value width
    come straight from the histogram.
    """
    stats = stats or CodeStats.from_codes(codes)
    position_bits = bitpack.required_bits(max(0, stats.n - 1))
    return (8 + 1 + 1
            + bitpack.packed_size(stats.nonzero, position_bits)
            + bitpack.packed_size(stats.nonzero, stats.max_bits))


def encode_sparse_parts(codes: np.ndarray | _Runs,
                        stats: CodeStats | None = None) -> list[bytes]:
    """Sparse encoding as its constituent buffers: the outlier table of
    the split at width 0."""
    stats = stats or CodeStats.from_codes(codes)
    return _split_parts(codes, 0, stats)[1]


def encode_sparse(codes: np.ndarray) -> bytes:
    """Sparse encoding: nonzero (position, code) pairs, both bit-packed."""
    return b"".join(encode_sparse_parts(codes))


def decode_sparse(data, offset: int, count: int
                  ) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_sparse`."""
    index, values, offset = _read_outliers(_view(data), offset, count,
                                           "sparse delta")
    codes = np.zeros(count, dtype=np.uint64)
    codes[index] = values
    return codes, offset


# ----------------------------------------------------------------------
# Hybrid strategy
# ----------------------------------------------------------------------
def hybrid_size(codes: np.ndarray | _Runs,
                stats: CodeStats | None = None) -> int:
    """Encoded bytes of the optimal hybrid split, without encoding."""
    stats = stats or CodeStats.from_codes(codes)
    return int(stats.split_curve().min())


def hybrid_split_width(codes: np.ndarray | _Runs,
                       stats: CodeStats | None = None) -> int:
    """The small-code bit width the optimal hybrid split uses (the
    narrowest of the cheapest)."""
    stats = stats or CodeStats.from_codes(codes)
    return int(np.argmin(stats.split_curve()))


def encode_hybrid_parts(codes: np.ndarray | _Runs,
                        stats: CodeStats | None = None) -> list[bytes]:
    """Optimal small/large split encoding as its constituent buffers."""
    stats = stats or CodeStats.from_codes(codes)
    small_bits = hybrid_split_width(codes, stats)
    small, table = _split_parts(codes, small_bits, stats)
    return [pack_u8(small_bits), small, *table]


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
    index, values, offset = _read_outliers(
        data, offset + small_len, count, "hybrid delta outlier")
    codes[index] = values
    return codes, offset


# ----------------------------------------------------------------------
# The chain fold (the read path)
# ----------------------------------------------------------------------
#: The two kinds of section a strategy's payload is made of: the small
#: width byte with every code packed at it (dense; hybrid's small
#: codes, zero at the outlier positions), and the outlier table
#: (sparse; hybrid's outliers).
SMALL = native.FOLD_SMALL
TABLE = native.FOLD_TABLE

#: What the compiled fold found wrong with a level, by reason code.
_FOLD_REASONS = {
    1: "a packed section overruns the payload",
    2: "bit width outside [0, 64]",
    3: "outlier table claims more entries than the chunk has cells",
    4: "outlier position out of range",
    5: "undecoded trailing bytes",
}


def fold_chain(sections: list, layouts: list[int], dest: np.ndarray,
               mode: str) -> None:
    """Fold every level of a delta chain into ``dest`` in place.

    ``dest`` is C-contiguous (anything else raises ``ValueError``) and
    already holds what the chain composes onto: the decoded root in the
    cell's own dtype — the read path folds a chunk in a contiguous
    window of its canvas or in its thread's chunk buffer — or a zeroed
    flat 64-bit accumulator (:func:`repro.core.numeric.delta_accumulator`)
    for ``accumulate``.  ``sections[i]`` is level *i*'s unframed payload
    and ``layouts[i]`` its :data:`SMALL` / :data:`TABLE` parts.  Each level
    is applied as ``cell op= (cell type) delta``: the deltas were
    computed as wrapping int64 differences (xor images for floats) and
    arithmetic mod 2^w is a ring image of arithmetic mod 2^64, so
    folding at the cell's width gives exactly the bytes of widening the
    root, composing in 64 bits and narrowing back — without the two
    conversions.  Both operations commute, so level order is free.

    One compiled call folds the whole chain
    (:func:`repro.core.native.fold_chain`); where its gate declines,
    each level is unpacked and applied with numpy.  A malformed level
    raises :class:`~repro.core.errors.DeltaLevelError` naming its
    index, and ``dest`` is then partly folded: discard it.
    """
    if not dest.flags.c_contiguous:
        raise ValueError("fold_chain needs a C-contiguous destination")
    status = native.fold_chain(dest, sections, layouts,
                               mode == numeric.XOR)
    if status is None:
        _fold_numpy(sections, layouts, dest, mode)
    elif status:
        level, reason = divmod(-status, 8)
        raise DeltaLevelError(
            level, _FOLD_REASONS.get(reason, f"fold reason {reason}"))
    if dest.dtype.kind == "b":
        # Valid chains only ever produce 0 and 1; bytes from a corrupt
        # one must still leave a bool array holding booleans.
        truth = dest.view(np.uint8)
        np.not_equal(truth, 0, out=truth)


def _fold_numpy(sections: list, layouts: list[int], dest: np.ndarray,
                mode: str) -> None:
    """The fold without the kernel: per level, unpack and apply in
    place on the unsigned image of the cells (positions are unique
    within a level, so fancy-indexed in-place ops are exact)."""
    cells = dest.reshape(-1).view(f"{dest.dtype.str[0]}u{dest.itemsize}")
    count = cells.size

    def apply(where, codes: np.ndarray) -> None:
        delta = codes_to_delta(codes, mode).astype(cells.dtype)
        if mode == numeric.ARITHMETIC:
            cells[where] += delta
        else:
            cells[where] ^= delta

    for level, (section, layout) in enumerate(zip(sections, layouts)):
        try:
            data = _view(section)
            offset = 0
            if layout & SMALL:
                bits, offset = unpack_u8(data, offset)
                end = offset + bitpack.packed_size(count, bits)
                if bits:
                    apply(slice(None), bitpack.unpack_unsigned(
                        data[offset:end], bits, count))
                offset = end
            if layout & TABLE:
                index, values, offset = _read_outliers(
                    data, offset, count, "delta outlier")
                apply(index, values)
            if offset != len(data):
                raise CodecError(
                    f"{len(data) - offset} undecoded trailing bytes")
        except CodecError as exc:
            raise DeltaLevelError(level, str(exc)) from exc
