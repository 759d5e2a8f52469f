"""The delta codec family: dense, sparse and hybrid (Section III-B.3).

A delta codec encodes a *target* version as a difference against a *base*
version of identical shape and dtype.  Decoding runs one way, base to
target.  Observation 2's "reconstruct the versions in both directions"
is a property of the layout, not of a decoder:
:meth:`~repro.storage.manager.VersionedStorageManager.apply_layout`
re-encodes each version against whichever neighbour the chosen layout
names as its base.

Every stored delta is framed the same way::

    array header (dtype, shape)     - of the target/base arrays
    u8 delta mode                   - arithmetic (ints) or XOR (floats)
    codec-specific payload

:class:`DeltaCodec` is the one body behind the family; its members
differ only in the ``layout`` of their payload — which
:mod:`repro.delta.codes` sections it is made of.  That body encodes a
delta the way the write path does: one call of the encode face packing
that codec (:func:`chunk_encode`), which runs its numpy form itself
where no kernel does, so ``encode`` is never a second path next to it.

Every member composes: a level is a cell-wise difference, wrapping
addition or xor, so the read path never decodes a chain level by
level.  :func:`chunk_fold` gives it the layout of a chunk
(:class:`~repro.core.native.ChunkFold`) for its one call per batch of
chunks (:class:`~repro.core.native.FoldBatch`), which compares the
root's header and each level's frame with the bytes the chunk implies
itself and folds every level straight into the cells of the version
being read.  A level it cannot read as stored — LZ-sealed, or a frame
spelled another way — goes to the same call as its bare section
(:func:`bare_levels`).  The one-level forms go through it too:
``decode_forward`` folds one level into a copy of its base, and
``accumulate`` into a 64-bit accumulator, each a batch of one chunk.

**Corrupt payloads.**  A decoder is handed the array it decodes
against, and the frame must agree with it: ``decode_forward`` checks
the frame's ``(dtype, shape)`` against its ``base`` argument, the
fold against the chunk's layout (one prefix compare with the frame
it implies, else :func:`unpack_frame`), ``accumulate`` its ``(mode,
cell count)`` against the accumulator it is given — always *before*
anything is sized from the bytes — and every codec rejects undecoded
trailing bytes.  Whatever is wrong with a payload, the only exception
that escapes is a :class:`~repro.core.errors.CodecError`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.core import native, numeric
from repro.core.errors import CodecError, DeltaLevelError
from repro.core.serial import (
    pack_array_header,
    pack_u8,
    unpack_array_header,
    unpack_u8,
)

_MODE_TO_TAG = {numeric.ARITHMETIC: 0, numeric.XOR: 1}
_TAG_TO_MODE = {tag: mode for mode, tag in _MODE_TO_TAG.items()}


def pack_frame(like: np.ndarray, mode: str) -> bytes:
    """The frame of a delta between arrays of ``like``'s layout."""
    return layout_frame(like.dtype, like.shape, mode)


def layout_frame(dtype: np.dtype, shape: tuple[int, ...],
                 mode: str) -> bytes:
    """The frame of a delta between arrays of ``(dtype, shape)``."""
    return pack_array_header(dtype, shape) + pack_u8(_MODE_TO_TAG[mode])


def unpack_frame(data, like: np.ndarray | None = None
                 ) -> tuple[np.dtype, tuple[int, ...], str, int]:
    """Parse a frame; returns ``(dtype, shape, mode, offset)``.

    ``like`` is the array the caller decodes against: a frame that
    disagrees with its dtype or shape is corrupt (or belongs to
    another chunk) and must not size or shape anything.
    """
    dtype, shape, offset = unpack_array_header(data)
    tag, offset = unpack_u8(data, offset)
    # The mode is a function of the dtype (which must be one the
    # delta kernels support at all); the tag only records it.
    if _TAG_TO_MODE.get(tag) != numeric.delta_mode_for(dtype):
        raise CodecError(
            f"delta mode tag {tag} does not belong to dtype {dtype}")
    if min(shape, default=0) < 0:
        raise CodecError(f"delta frame has negative extents {shape}")
    if like is not None and (dtype, shape) != (like.dtype, like.shape):
        raise CodecError(
            f"delta frame ({dtype}, {shape}) does not match the "
            f"array it decodes against ({like.dtype}, {like.shape})")
    return dtype, shape, _TAG_TO_MODE[tag], offset


class DeltaCodec:
    """Encodes one array version as a delta against another.

    A member declares the ``layout`` of its payload (which of the
    :data:`~repro.delta.codes.SMALL` / :data:`~repro.delta.codes.TABLE`
    sections it has) and inherits everything else: framing, the
    unframe prelude with its frame-vs-array check, the trailing-bytes
    check, the decode, the fold, and an encode side that is the write
    path's (``encode_parts(t, b)`` is the encode face's forced pack of
    the codec).  :meth:`_seal` / :meth:`_unseal` are the hook for a
    byte-level stage between the frame and the packed sections
    (hybrid's LZ flag).
    """

    #: Registry key and the name recorded in version metadata.
    name: str = "abstract"

    @property
    def fold_layout(self) -> int | None:
        """What a whole stored level of this codec holds past its frame,
        as :class:`~repro.core.native.ChunkFold` reads it: the section's
        ``layout`` parts, plus :data:`~repro.core.native.FOLD_SEALED`
        when a seal byte precedes them.  None: its levels need
        :meth:`_unseal`'s work first, and go to the call bare
        (:func:`bare_levels`)."""
        return self.layout

    def _seal(self, parts: list[bytes]) -> list[bytes]:
        return parts

    def _unseal(self, payload: memoryview):
        return payload

    def encode_parts(self, target: np.ndarray,
                     base: np.ndarray) -> list[bytes]:
        """The encoded delta as its buffers: one call of the encode
        face packing this codec (:func:`chunk_encode`)."""
        target, base = np.asarray(target), np.asarray(base)
        numeric.check_same_layout(target, base)
        encode = chunk_encode(target.dtype, target.shape, (self,))
        return self.packed(encode, 0, target, base)[0]

    def packed(self, encode: native.ChunkEncode, index: int,
               target: np.ndarray, base: np.ndarray, *,
               adopt: bool = False, space: np.ndarray | None = None
               ) -> tuple[list[bytes], tuple[int, ...]]:
        """This codec's payload as candidate ``index`` of ``encode``
        packs it whatever its size, and every candidate's size: a level
        the fold reads as stored comes out whole; one that needs
        :meth:`_seal` (an LZ stage) comes out as its sections, and is
        framed and sealed here."""
        done = encode(target, base, adopt, space, pack=index)
        if encode.bare[index]:
            return [encode.frame, *self._seal([done.payload])], done.sizes
        return [done.payload], done.sizes

    def encode(self, target: np.ndarray, base: np.ndarray) -> bytes:
        """Encode ``target`` as a delta against ``base``."""
        return b"".join(self.encode_parts(target, base))

    # -- decode --------------------------------------------------------
    def _open(self, data, like: np.ndarray | None = None):
        """The shared decode prelude: ``(payload, count, mode, dtype,
        shape)`` of a frame already checked against ``like``."""
        data = memoryview(data)
        dtype, shape, mode, offset = unpack_frame(data, like)
        # A memoryview slice, not a bytes copy — the packed sections
        # are unpacked straight out of the stored payload.
        return (self._unseal(data[offset:]), math.prod(shape), mode,
                dtype, shape)

    def decode_forward(self, data: bytes, base: np.ndarray) -> np.ndarray:
        """Reconstruct the target given the base it was encoded against:
        the level folds into a copy of ``base`` through the read path's
        call (:class:`~repro.core.native.FoldBatch`) as a bare section,
        a batch of one chunk."""
        payload, _, _, dtype, shape = self._open(data, base)
        cells = np.array(base, dtype=dtype, order="C")
        batch = native.FoldBatch()
        batch.add(chunk_fold(dtype, shape), cells, [payload],
                  [self.layout | native.FOLD_BARE], cells)
        batch.run()
        return cells

    def section(self, data, frame: bytes | None, like):
        """The unframed, unsealed payload of a level over ``like``
        (anything with the ``dtype`` and ``shape`` of the chunk).

        ``frame`` is the frame ``like`` implies, built once per layout
        (None for a dtype no delta is defined for): a level that starts
        with exactly those bytes needs no parsing.  One that does not
        is either corrupt — :func:`unpack_frame` says how — or spelled
        differently, and then parsed in full.
        """
        data = memoryview(data)
        if frame is not None and data[:len(frame)] == frame:
            offset = len(frame)
        else:
            native.decline("fold_chain", "frame prefix mismatch")
            offset = unpack_frame(data, like)[3]
        return self._unseal(data[offset:])

    def accumulate(self, data, accumulator: np.ndarray | None
                   ) -> tuple[np.ndarray, str, np.dtype, tuple[int, ...]]:
        """Fold this one delta into a flat 64-bit accumulator
        (:func:`repro.core.numeric.delta_accumulator`).

        Returns ``(accumulator, mode, dtype, shape)``; ``None`` starts
        a fresh accumulator.  The level folds through the read path's
        call (:class:`~repro.core.native.FoldBatch`) as a bare section,
        a batch of one chunk.
        """
        payload, count, mode, dtype, shape = self._open(data)
        if accumulator is None:
            accumulator = numeric.delta_accumulator(mode, count)
        elif accumulator.dtype != numeric.accumulator_dtype(mode) or \
                accumulator.size != count:
            # Nothing is sized on the frame's say: a level whose mode
            # or cell count is not the accumulator's is corrupt.
            raise CodecError(
                f"delta frame ({mode}, {count} cells) does not match "
                f"the accumulator ({accumulator.dtype}, "
                f"{accumulator.size} cells)")
        batch = native.FoldBatch()
        batch.add(native.ChunkFold(accumulator.dtype, accumulator.shape,
                                   b"", b"", mode == numeric.XOR),
                  accumulator, [payload], [self.layout | native.FOLD_BARE],
                  accumulator)
        batch.run()
        return accumulator, mode, dtype, shape

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


@lru_cache(maxsize=256)
def chunk_fold(dtype: np.dtype, shape: tuple[int, ...]) -> native.ChunkFold:
    """The layout of chunks of ``(dtype, shape)`` as the one decode
    call reads them (:class:`~repro.core.native.ChunkFold`), built once
    per layout: it
    expects a root to start with the array header the ``none``
    compressor writes and every level with :func:`pack_frame`'s bytes
    (a dtype no delta is defined for has no frame: its levels can only
    be refused)."""
    try:
        mode = numeric.delta_mode_for(dtype)
    except CodecError:
        mode = frame = None
    else:
        frame = layout_frame(dtype, shape, mode)
    return native.ChunkFold(dtype, shape, pack_array_header(dtype, shape),
                            frame, mode == numeric.XOR)


@lru_cache(maxsize=256)
def chunk_encode(dtype: np.dtype, shape: tuple[int, ...],
                 codecs: tuple[DeltaCodec, ...]) -> native.ChunkEncode:
    """The write path's one encode face
    (:class:`~repro.core.native.ChunkEncode`) for chunks of ``(dtype,
    shape)`` against ``codecs``, in order — each one's level as the
    fold reads it stored, or, for one that needs
    :meth:`DeltaCodec._seal`'s work, its sections alone
    (:data:`~repro.core.native.FOLD_BARE`) — built once per layout,
    kernels on or off.  A cell type no delta is defined for raises
    :class:`~repro.core.errors.CodecError`, as encoding it would."""
    mode = numeric.delta_mode_for(dtype)
    # ascontiguousarray promotes a 0-d chunk to shape (1,) in the
    # materialized header (the identity codec's); its frame keeps ().
    return native.chunk_encode(
        dtype, shape, pack_array_header(dtype, shape or (1,)),
        layout_frame(dtype, shape, mode), codecs,
        tuple(codec.fold_layout or codec.layout | native.FOLD_BARE
              for codec in codecs))


def bare_levels(codecs: list[DeltaCodec], payloads: list,
                fold: native.ChunkFold) -> tuple[list, list[int]]:
    """Stored levels of ``fold``'s chunks, ``payloads[i]`` encoded by
    ``codecs[i]``, as ``fold`` takes them bare: each one's unframed,
    unsealed section (:meth:`DeltaCodec.section`) and its layout with
    :data:`~repro.core.native.FOLD_BARE`.  A level whose frame or seal
    is malformed raises :class:`~repro.core.errors.DeltaLevelError`
    carrying its index."""
    sections = []
    try:
        for codec, payload in zip(codecs, payloads):
            sections.append(codec.section(payload, fold.frame, fold))
    except CodecError as exc:
        raise DeltaLevelError(len(sections), str(exc)) from exc
    return sections, [codec.layout | native.FOLD_BARE for codec in codecs]
