"""Shared encodings of delta *code arrays*, and the numpy forms of the
two compiled entries.

Every delta codec in this package first reduces the cell-wise difference
of two versions to a flat array of unsigned 64-bit *codes* (arithmetic
deltas are zigzag-mapped so small signed differences become small codes;
float XOR deltas are already unsigned).  :class:`CodePlan` is the numpy
form of that reduction: one pass over a ``(target, base)`` pair yields
the codes and their :class:`CodeStats` width histogram, and everything
downstream — pricing a candidate, pricing a Materialization Matrix
entry (Section IV-A), choosing the hybrid split, emitting a payload —
is arithmetic on that histogram plus at most one pack of the codes.

The three storage strategies of Section III-B.3 apply to the code array:

* **dense** — every code at the minimal uniform width D;
* **sparse** — positions and values of the nonzero codes only;
* **hybrid** — "if more than a fraction F of cells can be encoded using
  D' > D bits per cell, we create a separate matrix and store cells that
  require D' bits separately": a D-bit dense array for the small codes
  plus a sparse outlier table, with D chosen by exact cost minimization.

A strategy is nothing but its *layout*: which of the two section kinds
— :data:`SMALL`, :data:`TABLE` — its payload is made of (sparse is the
table of the split at D = 0, without the small section).  So there is
one sizer, :func:`section_size`, one packer, :func:`pack_sections`, and
one reader, :func:`read_sections`, each keyed by layout, as the C
entries' are.  Both directions' numpy forms are built from them:
:func:`_encode_numpy`, the form of the write path's one call
(:class:`~repro.core.native.ChunkEncode`), and :func:`_fold_numpy`, the
form of the read path's (:class:`~repro.core.native.ChunkFold`: every
level of a chain folded straight into the cells of the version being
read).  Each runs where its kernel does not, to the same bytes.

The reader accepts any buffer-protocol object and slices it through
``memoryview`` (no ``bytes()`` copies on the read path).  It trusts
nothing in the bytes: every section length is re-derived from the
``count`` the *caller* supplies, and the one count the payload itself
carries (the outlier table's) is checked against it before anything is
sized from it — a corrupt payload raises
:class:`~repro.core.errors.CodecError`, never allocates by its own say.
"""

from __future__ import annotations

from dataclasses import dataclass

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

        The order statistics :meth:`from_codes` derives from the
        histogram it counts, kept apart so every cumulative quantity has
        one definition.
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
        """
        widths = np.arange(self.max_bits + 1)
        position_bits = bitpack.required_bits(max(0, self.n - 1))
        return ((self.n * widths + 7) // 8
                + (self.outliers * position_bits + 7) // 8
                + (self.outliers * self.max_bits + 7) // 8
                + 8 + 1 + 1 + 1)  # count, small / pos / val widths


@dataclass(frozen=True)
class CodePlan:
    """The shared single-pass state of one ``(target, base)`` delta, in
    numpy: what the encode face's numpy form (:func:`_encode_numpy`)
    prices and packs from, and what the table benches read.

    Computed once per pair and handed to every consumer: the compose
    ``mode``, the flat code array the strategies of Section III-B.3
    operate on, and its :class:`CodeStats`.  Dense width, sparse
    nonzero count and the full hybrid split-cost curve all fall out of
    the same statistics, so pricing a representation costs arithmetic
    on a 65-bucket histogram, not a pass over the chunk.
    """

    target: np.ndarray
    base: np.ndarray
    mode: str
    codes: np.ndarray
    stats: CodeStats

    @classmethod
    def build(cls, target: np.ndarray, base: np.ndarray, *,
              adopt: bool = False) -> "CodePlan":
        """Plan ``target`` against ``base`` (either may be a strided
        chunk view).  ``adopt`` leaves the (writable) ``base`` holding
        ``target``'s cells, so ``plan.base`` is the target's contents
        afterwards; the sections are packed from the codes alone and
        never read ``plan.base``, so an adopted plan packs as any
        other.
        """
        numeric.check_same_layout(target, base)
        if adopt and not base.flags.writeable:
            raise ValueError("adopting a delta base needs it writable")
        mode = numeric.delta_mode_for(target.dtype)
        delta, _ = numeric.compute_delta(target, base)
        codes = delta_to_codes(delta, mode)
        if adopt:
            np.copyto(base, target)
        return cls(target, base, mode, codes, CodeStats.from_codes(codes))


# ----------------------------------------------------------------------
# The sections, by layout
# ----------------------------------------------------------------------
#: The two kinds of section a strategy's payload is made of: the small
#: width byte with every code packed at it (dense; hybrid's small
#: codes, zero at the outlier positions), and the outlier table
#: (sparse; hybrid's outliers).
SMALL = native.FOLD_SMALL
TABLE = native.FOLD_TABLE


def section_size(stats: CodeStats, layout: int) -> tuple[int, int]:
    """``(bytes, small width)`` of the sections of ``layout`` over a
    code array of ``stats``, and the split they pack at: dense
    (:data:`SMALL` alone) at the widest code; sparse (:data:`TABLE`
    alone) the outlier table of the split at width 0; hybrid (both) at
    the narrowest of the cheapest splits.  Exact, and never an encode.
    """
    if not layout & TABLE:
        return 1 + bitpack.packed_size(stats.n, stats.max_bits), \
            stats.max_bits
    if not layout & SMALL:
        position_bits = bitpack.required_bits(max(0, stats.n - 1))
        return (8 + 1 + 1
                + bitpack.packed_size(stats.nonzero, position_bits)
                + bitpack.packed_size(stats.nonzero, stats.max_bits)), 0
    curve = stats.split_curve()
    small_bits = int(np.argmin(curve))
    return int(curve[small_bits]), small_bits


def pack_sections(codes: np.ndarray, stats: CodeStats, layout: int,
                  small_bits: int) -> bytes:
    """The sections of ``layout`` of ``codes`` (of ``stats``), split at
    ``small_bits`` (:func:`section_size`'s): the small width byte and
    every code below ``2**small_bits`` packed at it (zero at the outlier
    positions; no codes at width 0), then the outlier table — entry
    count, position width, value width, the packed positions, the
    packed values.  The outliers are the codes wider than
    ``small_bits`` (none for :data:`SMALL` alone, whose split is the
    widest code), so their count and value width are read off
    ``stats``."""
    codes = np.ascontiguousarray(codes, dtype=np.uint64).ravel()
    outliers = stats.outliers_at(small_bits) if layout & TABLE else 0
    positions = np.flatnonzero(codes >> np.uint64(small_bits)) \
        if outliers else codes[:0]
    parts = []
    if layout & SMALL:
        small = codes
        if outliers and small_bits:
            small = codes.copy()
            small[positions] = 0
        parts += (pack_u8(small_bits),
                  bitpack.pack_unsigned(small, small_bits) if small_bits
                  else b"")
    if layout & TABLE:
        value_bits = stats.max_bits if outliers else 0
        position_bits = bitpack.required_bits(max(0, stats.n - 1))
        parts += (pack_i64(outliers), pack_u8(position_bits),
                  pack_u8(value_bits),
                  bitpack.pack_unsigned(positions, position_bits),
                  bitpack.pack_unsigned(codes[positions], value_bits))
    return b"".join(parts)


def read_sections(data, layout: int, count: int) -> list[tuple]:
    """The sections of ``layout`` in ``data`` (one level's section,
    unframed and unsealed) over ``count`` cells, as ``(where, codes)``
    pairs: every cell's small code (``where`` is ``slice(None)``;
    nothing at width 0), then the outlier table's positions and
    values.  The small codes are zero at the outlier positions, so
    writing the pairs in order over zeros gives the level's code array.

    Nothing in the bytes is trusted: every length is re-derived from
    ``count``, the table's entry count is checked against it before
    anything is sized from it, and bytes past the sections are refused
    — a malformed section raises :class:`~repro.core.errors.CodecError`.
    """
    data = _view(data)
    parts, offset = [], 0
    if layout & SMALL:
        bits, offset = unpack_u8(data, offset)
        end = offset + bitpack.packed_size(count, bits)
        if bits:
            parts.append((slice(None), bitpack.unpack_unsigned(
                data[offset:end], bits, count)))
        offset = end
    if layout & TABLE:
        outliers, offset = unpack_i64(data, offset)
        if not 0 <= outliers <= count:
            raise CodecError(
                f"outlier table claims {outliers} entries for {count} cells")
        position_bits, offset = unpack_u8(data, offset)
        value_bits, offset = unpack_u8(data, offset)
        end = offset + bitpack.packed_size(outliers, position_bits)
        index = bitpack.unpack_unsigned(
            data[offset:end], position_bits, outliers).astype(np.int64)
        offset = end + bitpack.packed_size(outliers, value_bits)
        values = bitpack.unpack_unsigned(data[end:offset], value_bits,
                                         outliers)
        if index.size and (index.max() >= count or index.min() < 0):
            raise CodecError("outlier position out of range")
        parts.append((index, values))
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} undecoded trailing bytes")
    return parts


# ----------------------------------------------------------------------
# The numpy forms of the two C entries
# ----------------------------------------------------------------------
def _encode_numpy(target: np.ndarray, base: np.ndarray, adopt: bool,
                  header: bytes, frame: bytes, layouts, pack: int,
                  materialized: int) -> tuple[int, bytes, tuple[int, ...]]:
    """One chunk's encode, ``target`` against ``base``: the numpy form
    of :class:`~repro.core.native.ChunkEncode`'s call, which runs it
    where no kernel does — ``(winner, payload, sizes)`` byte for byte.

    One :class:`CodePlan` (adopting the target into the base when
    asked) gives the codes and their width histogram; the materialized
    form (``header`` and the cells, unless the caller made it and gives
    its ``materialized`` size) and every candidate are sized off it
    (:func:`section_size`, behind the frame and, for a
    :data:`~repro.core.native.FOLD_SEALED` layout, a seal byte, or
    nothing for a :data:`~repro.core.native.FOLD_BARE` one); the
    cheapest wins, ties to the earlier, the materialized form first.
    ``pack`` says which one is packed: the winner
    (:data:`~repro.core.native.ENCODE_RACE`), candidate ``pack``, or
    none (:data:`~repro.core.native.ENCODE_SIZE`)."""
    plan = CodePlan.build(target, base, adopt=adopt)
    mine = materialized < 0
    if mine:
        materialized = len(header) + target.nbytes
    sizes, splits = [], []
    winner, best = -1, materialized
    for index, layout in enumerate(layouts):
        size, small_bits = section_size(plan.stats, layout)
        if not layout & native.FOLD_BARE:
            size += len(frame) + bool(layout & native.FOLD_SEALED)
        if size < best:
            winner, best = index, size
        sizes.append(size)
        splits.append(small_bits)
    chosen = winner if pack == native.ENCODE_RACE else pack
    if pack == native.ENCODE_SIZE or (chosen < 0 and not mine):
        payload = b""
    elif chosen < 0:
        payload = header + target.tobytes()
    else:
        layout = layouts[chosen]
        prefix = b"" if layout & native.FOLD_BARE \
            else frame + b"\0" if layout & native.FOLD_SEALED else frame
        payload = prefix + pack_sections(plan.codes, plan.stats, layout,
                                         splits[chosen])
    return winner, payload, tuple(sizes)


def _fold_numpy(sections: list, layouts: list[int], dest: np.ndarray,
                use_xor: bool) -> None:
    """Fold every level of a delta chain into ``dest`` in place: the
    numpy form of :class:`~repro.core.native.ChunkFold`'s fold, which
    runs it where no kernel does.

    ``dest`` is C-contiguous and holds what the chain composes onto —
    the base's cells, or a zeroed flat 64-bit accumulator
    (:func:`repro.core.numeric.delta_accumulator`).  ``sections[i]`` is
    level *i*'s unframed payload and ``layouts[i]`` its :data:`SMALL` /
    :data:`TABLE` parts.  Each level is unpacked and applied as
    ``cell op= (cell type) delta`` on the unsigned image of the cells:
    the deltas were computed as wrapping int64 differences (xor images
    for floats) and arithmetic mod 2^w is a ring image of arithmetic
    mod 2^64, so folding at the cell's width gives exactly the bytes of
    widening, composing in 64 bits and narrowing back.  Positions are
    unique within a level, so fancy-indexed in-place ops are exact, and
    both operations commute, so level order is free.  A malformed level
    raises :class:`~repro.core.errors.DeltaLevelError` naming its
    index, and ``dest`` is then partly folded: discard it.
    """
    mode = numeric.XOR if use_xor else numeric.ARITHMETIC
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
            for where, codes in read_sections(section, layout, count):
                apply(where, codes)
        except CodecError as exc:
            raise DeltaLevelError(level, str(exc)) from exc
