"""Vectorized D-bit packing of integer codes.

Section III-B.3 of the paper stores a delta "as a dense collection of
values of length D bits", where D is the smallest bit width that can
encode every cell of the delta.  This module provides the low-level
packing machinery:

* :func:`required_bits` — the minimal D for a maximum code value,
  including the degenerate D = 0 case for all-zero deltas ("the system
  also supports bit depths of 0 ... if Ai and Aj are identical, the delta
  data will use negligible space on disk");
* :func:`pack_unsigned` / :func:`unpack_unsigned` — lossless D-bit
  packing of unsigned codes into a byte string, fully vectorized;
* :func:`zigzag_encode` / :func:`zigzag_decode` — the standard mapping of
  signed deltas onto small unsigned codes (0, -1, 1, -2, ... -> 0, 1, 2,
  3, ...), so that deltas centred on zero pack tightly.

The stream layout is LSB-first: value ``i`` occupies bit positions
``[i*bits, (i+1)*bits)`` of the stream, least significant bit first,
and the stream is stored little-endian — which makes the byte string
exactly the memory image of a little-endian uint64 word array.  The
kernels exploit that: each value contributes one-or-two shifted 64-bit
words to the stream, O(count) word operations instead of the seed's
O(count x bits) per-bit matrix expansion.  They are numpy block
kernels — 64 values of width D span exactly D words, so the shift/word
pattern repeats with period 64 and the whole array packs (or unpacks)
with a fixed number of column operations, run per cache-sized tile of
blocks so the working set stays cache-resident on multi-MB arrays.
The blocked unpack issues ~2 numpy calls per lane, so small inputs
unpack with a constant-call-count gather instead.  For D in {8, 16, 32, 64} the
stream *is* a little-endian fixed-width integer array, so those widths
reduce to pure ``astype``/``view`` reinterprets.  No compiled kernel
sits behind them: the store's write and read paths pack and unpack
inside their own one compiled call each
(:class:`~repro.core.native.ChunkEncode`,
:class:`~repro.core.native.FoldBatch`), and this module is what runs
where those calls do not — the numpy forms, the comparison codecs and
the table benches.

``unpack_unsigned`` is strict about length: the input must be exactly
the packed size — short *and* trailing bytes both raise — so callers
hand it exact-length views (slices of a ``memoryview`` work and avoid
copies; any buffer-protocol object is accepted).

All functions operate on flat arrays; callers reshape as needed.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.errors import CodecError

#: Hard upper bound on bit width — codes are manipulated as uint64.
MAX_BITS = 64

#: Widths whose packed stream is exactly a little-endian fixed-width
#: integer array, served by pure dtype reinterprets.
_FAST_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}

_LITTLE_ENDIAN = sys.byteorder == "little"

#: Element count above which the blocked unpack beats the
#: constant-call-count gather (the lane loop issues ~2 numpy calls per
#: lane, a fixed ~128-call overhead that only pays off once the
#: per-element savings outgrow it).
_BLOCK_THRESHOLD = 8192

#: Values per block: 64 values of width D span exactly D uint64 words,
#: so the (word, shift) pattern repeats with this period.
_BLOCK = 64

#: Blocks per tile of the block kernels.  Each lane pass strides its
#: whole input column-wise; run over a multi-MB array at once that
#: working set is evicted 64 times over, so the lane loops run per
#: tile: ``_TILE_BLOCKS * (bits + 64) * 8`` bytes — ~1 MiB at the
#: widest widths, comfortably L2-resident.
_TILE_BLOCKS = 1024


def required_bits(max_value: int) -> int:
    """Smallest bit width that can represent every value in [0, max_value].

    >>> required_bits(0)
    0
    >>> required_bits(1)
    1
    >>> required_bits(255)
    8
    >>> required_bits(256)
    9
    """
    if max_value < 0:
        raise CodecError(f"max_value must be unsigned, got {max_value}")
    return int(max_value).bit_length()


def required_bits_for(values: np.ndarray) -> int:
    """Smallest bit width covering every code in an unsigned array."""
    values = np.asarray(values)
    if values.size == 0:
        return 0
    return required_bits(int(values.max()))


#: Per-width assembly plans for the blocked pack kernel, built lazily.
_PACK_PLANS: dict[int, tuple] = {}


def _pack_plan(bits: int) -> tuple:
    """The gather/OR schedule packing 64 values of width ``bits``
    (32 < bits < 64) into ``bits`` words, shared by every block.

    Geometry, fixed per width: lane ``l``'s value starts at stream bit
    ``l * bits``, i.e. word ``(l * bits) >> 6`` at shift
    ``(l * bits) & 63``, spilling into the next word when the shift
    pushes it past bit 64.  Every word has at least one lane *starting*
    in it (a 64-bit window always contains a multiple of bits <= 64),
    at most ``ceil(64 / bits)`` of them, and at most one spill (two
    lanes starting in one word cannot both straddle its end), so the
    whole block assembles as: one gather of each word's first starter,
    one OR per additional-starter rank, one OR of the spills.
    """
    plan = _PACK_PLANS.get(bits)
    if plan is None:
        starts = np.arange(_BLOCK, dtype=np.int64) * bits
        word = starts >> 6
        shift = starts & 63
        first = np.searchsorted(word, np.arange(bits))
        counts = np.bincount(word, minlength=bits)
        ranks = []
        for rank in range(1, int(counts.max())):
            dest = np.flatnonzero(counts > rank)
            ranks.append((dest, first[dest] + rank))
        straddlers = np.flatnonzero(shift + bits > 64)
        plan = (shift.astype(np.uint64), first, tuple(ranks),
                straddlers, (64 - shift[straddlers]).astype(np.uint64),
                word[straddlers] + 1)
        _PACK_PLANS[bits] = plan
    return plan


def _pack_words_blocked(values: np.ndarray, bits: int) -> np.ndarray:
    """Pack via the 64-value block kernel.

    64 values of width D span exactly D words, so the (word, shift)
    pattern is identical in every block and the whole array packs with
    a fixed number of *whole-array* operations — no per-lane loop whose
    ~200 small column ops cost more dispatch than compute at the tens-
    of-thousands-of-values sizes real chunks produce:

    * widths <= 32 first *fold*: adjacent pairs merge as
      ``v[2i] | (v[2i+1] << D)`` — exactly the stream's own layout, so
      folding is lossless — halving the value count and doubling the
      width per step until D > 32 (a fold reaching D = 64 *is* the
      finished word array);
    * the remaining 32 < D < 64 widths assemble from the per-width
      :func:`_pack_plan` schedule: shift every lane once, gather each
      word's first starting lane, OR in the few additional-starter
      ranks and the word-boundary spills.

    The trailing partial block is zero-padded — zero contributions are
    no-ops and the caller truncates the byte stream to the exact packed
    size.
    """
    count = values.size
    n_blocks = -(-count // _BLOCK)
    if n_blocks * _BLOCK != count:
        padded = np.zeros(n_blocks * _BLOCK, dtype=np.uint64)
        padded[:count] = values
        values = padded
    while bits <= 32:
        # Padded to a multiple of 64 values, the size stays even
        # through every fold (at most 6 of them).
        values = values[0::2] | (values[1::2] << np.uint64(bits))
        bits *= 2
    if bits == 64:
        return values
    if values.size % _BLOCK:
        # Folding shrank the array below a whole block multiple.
        padded = np.zeros(-(-values.size // _BLOCK) * _BLOCK,
                          dtype=np.uint64)
        padded[:values.size] = values
        values = padded
    plan = _pack_plan(bits)
    lanes = values.reshape(-1, _BLOCK)
    n_blocks = lanes.shape[0]
    words = np.empty((n_blocks, bits), dtype=np.uint64)
    for start in range(0, n_blocks, _TILE_BLOCKS):
        stop = start + _TILE_BLOCKS
        _pack_assemble(lanes[start:stop], words[start:stop], plan)
    return words.reshape(-1)


def _pack_assemble(lanes: np.ndarray, words: np.ndarray,
                   plan: tuple) -> None:
    """Run one :func:`_pack_plan` schedule: ``lanes`` is ``(blocks,
    64)`` input values, ``words`` the matching ``(blocks, bits)``
    output view."""
    shift, first, ranks, straddlers, spill_shift, spill_dest = plan
    lo = lanes << shift
    np.take(lo, first, axis=1, out=words)
    for dest, src in ranks:
        words[:, dest] |= lo[:, src]
    words[:, spill_dest] |= lanes[:, straddlers] >> spill_shift


def pack_unsigned(values: np.ndarray, bits: int) -> bytes:
    """Pack unsigned integer codes into ``bits`` bits each, LSB-first.

    ``values`` must already fit in ``bits`` bits; violations raise
    :class:`~repro.core.errors.CodecError` rather than silently wrapping.
    ``bits`` = 0 returns an empty byte string (valid only when every code
    is zero).
    """
    values = np.ascontiguousarray(values, dtype=np.uint64).ravel()
    if not 0 <= bits <= MAX_BITS:
        raise CodecError(f"bit width {bits} outside [0, {MAX_BITS}]")
    if bits == 0:
        if values.size and int(values.max()) != 0:
            raise CodecError("bit width 0 requires all-zero codes")
        return b""
    if values.size == 0:
        return b""
    if bits < MAX_BITS and int(values.max()) >> bits:
        raise CodecError(
            f"value {int(values.max())} does not fit in {bits} bits")

    fast = _FAST_DTYPES.get(bits)
    if fast is not None:
        return values.astype(fast, copy=False).tobytes()

    words = _pack_words_blocked(values, bits)
    needed = (values.size * bits + 7) // 8
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        words = words.astype("<u8")
    return words.view(np.uint8)[:needed].tobytes()


def unpack_unsigned(data, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_unsigned`; returns a uint64 array of ``count``.

    ``data`` may be any buffer-protocol object (``bytes``,
    ``memoryview``, ...) and must be *exactly* ``packed_size(count,
    bits)`` bytes — both truncated and trailing bytes raise, so framing
    errors surface at the codec layer instead of decoding garbage.
    """
    if not 0 <= bits <= MAX_BITS:
        raise CodecError(f"bit width {bits} outside [0, {MAX_BITS}]")
    if count < 0:
        raise CodecError(f"count must be non-negative, got {count}")
    needed = (count * bits + 7) // 8
    if len(data) < needed:
        raise CodecError(
            f"packed stream too short: need {needed} bytes, have {len(data)}")
    if len(data) > needed:
        raise CodecError(
            f"packed stream has {len(data) - needed} trailing bytes: "
            f"need exactly {needed}, have {len(data)}")
    if bits == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)

    fast = _FAST_DTYPES.get(bits)
    if fast is not None:
        # astype always copies here, so the result is writable even
        # though np.frombuffer returns a read-only view.
        return np.frombuffer(data, dtype=fast).astype(np.uint64)

    mask = np.uint64(0xFFFFFFFFFFFFFFFF) if bits == MAX_BITS \
        else np.uint64((1 << bits) - 1)
    if count >= _BLOCK_THRESHOLD:
        return _unpack_words_blocked(data, bits, count, needed, mask)
    return _unpack_words_gather(data, bits, count, needed, mask)


def _load_words(data, needed: int, n_words: int) -> np.ndarray:
    """The packed stream as uint64 words (zero-padded past the end)."""
    padded = np.zeros(n_words * 8, dtype=np.uint8)
    padded[:needed] = np.frombuffer(data, dtype=np.uint8, count=needed)
    words = padded.view("<u8")
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        words = words.astype(np.uint64)
    return words


def _unpack_words_gather(data, bits: int, count: int, needed: int,
                         mask: np.uint64) -> np.ndarray:
    """Unpack via per-value word gather — a dozen numpy calls total."""
    n_words = (needed + 7) // 8
    words = _load_words(data, needed, n_words)
    bit_start = np.arange(count, dtype=np.uint64) * np.uint64(bits)
    word = (bit_start >> np.uint64(6)).astype(np.intp)
    shift = bit_start & np.uint64(63)
    lo = words[word] >> shift
    # The straddled second word, shifted into place.  Shift-by-64 is
    # undefined, so shift == 0 contributes zero; the clamp keeps the
    # final value's gather in bounds (its contribution is masked off
    # below whenever the clamp engages, since the value then ends
    # inside its first word).
    hi = np.where(shift == np.uint64(0), np.uint64(0),
                  words[np.minimum(word + 1, n_words - 1)]
                  << ((np.uint64(64) - shift) & np.uint64(63)))
    return (lo | hi) & mask


def _unpack_lanes(words: np.ndarray, values: np.ndarray, bits: int,
                  mask: np.uint64) -> None:
    """The 64-lane shift/mask recovery of one tile; ``words`` is
    ``(blocks, bits)`` and ``values`` the matching ``(blocks, 64)``
    output view."""
    for lane in range(_BLOCK):
        start = lane * bits
        word, shift = start >> 6, start & 63
        column = words[:, word] >> np.uint64(shift)
        if shift + bits > 64:
            column = column | (words[:, word + 1]
                               << np.uint64(64 - shift))
        values[:, lane] = column & mask


def _unpack_words_blocked(data, bits: int, count: int, needed: int,
                          mask: np.uint64) -> np.ndarray:
    """Unpack via the 64-value block kernel (see
    :func:`_pack_words_blocked`): one shift/mask per lane recovers that
    lane across every block of a tile at once.  The tiling only
    reorders independent per-row operations.
    """
    n_blocks = -(-count // _BLOCK)
    words = _load_words(data, needed, n_blocks * bits)
    words = words.reshape(n_blocks, bits)
    values = np.empty((n_blocks, _BLOCK), dtype=np.uint64)
    for start in range(0, n_blocks, _TILE_BLOCKS):
        stop = start + _TILE_BLOCKS
        _unpack_lanes(words[start:stop], values[start:stop], bits, mask)
    return values.reshape(-1)[:count]


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed int64 values onto unsigned codes: 0,-1,1,-2 -> 0,1,2,3."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    return ((values << 1) ^ (values >> 63)).view(np.uint64)


def zigzag_decode(codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    return ((codes >> np.uint64(1)).view(np.int64)
            ^ -(codes & np.uint64(1)).view(np.int64))


def packed_size(count: int, bits: int) -> int:
    """Bytes used by ``count`` codes of ``bits`` bits (no header)."""
    return (count * bits + 7) // 8

