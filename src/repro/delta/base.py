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
differ only in which :mod:`repro.delta.codes` functions they name.
That body computes, prices and encodes every delta through one
:class:`~repro.delta.codes.CodePlan`, so ``encode`` and
``encode_parts`` are the planner's own code, not a second path next
to it.

Every member composes: a level is a cell-wise difference, wrapping
addition or xor, so the read path never decodes a chain level by
level.  :func:`chunk_fold` gives it one native call per chunk, which
compares the root's header and each level's frame with the bytes the
chunk implies itself.  What that call declines goes the long way:
:func:`fold_chain` checks each level's frame, hands the sections of the
whole chain to :func:`repro.delta.codes.fold_chain` and they are
applied straight to the cells of the version being read — all of them
at once, or (a cache warm fill) one at a time.
``decode_forward`` and ``accumulate`` remain as the one-level forms
the tests check the fold against.

**Corrupt payloads.**  A decoder is handed the array it decodes
against, and the frame must agree with it: ``decode_forward`` checks
the frame's ``(dtype, shape)`` against its ``base`` argument,
:func:`fold_chain` against the decoded root (one prefix compare with
the frame the root implies), ``accumulate`` its ``(mode, cell
count)`` against the accumulator it is given — always *before*
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
from repro.delta import codes as code_store
from repro.delta.codes import CodePlan, codes_to_delta

_MODE_TO_TAG = {numeric.ARITHMETIC: 0, numeric.XOR: 1}
_TAG_TO_MODE = {tag: mode for mode, tag in _MODE_TO_TAG.items()}


def pack_frame(like: np.ndarray, mode: str) -> bytes:
    """The frame of a delta between arrays of ``like``'s layout."""
    return pack_array_header(like.dtype, like.shape) \
        + pack_u8(_MODE_TO_TAG[mode])


def frame_size(like: np.ndarray) -> int:
    """Byte length of :func:`pack_frame` without building it: dtype
    string length byte + dtype string + ndim byte + extents + the
    delta mode byte."""
    return 1 + len(np.dtype(like.dtype).str) + 1 + 8 * like.ndim + 1


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

    A member declares three :mod:`repro.delta.codes` functions —
    ``_size(codes, stats)``, ``_encode(codes, stats)`` and
    ``_decode(data, offset, count)`` — plus the ``layout`` of its
    payload (which of the :data:`~repro.delta.codes.SMALL` /
    :data:`~repro.delta.codes.TABLE` sections it has), and inherits
    everything else: framing, the unframe prelude with its
    frame-vs-array check, the trailing-bytes check, the decode, the
    fold, and an encode side that is the planner's
    (``encode_parts(t, b)`` *is*
    ``encode_from_plan(CodePlan.build(t, b))``).  :meth:`_seal` /
    :meth:`_unseal` are the hook for a byte-level stage between the
    frame and the packed sections (hybrid's LZ flag).
    """

    #: Registry key and the name recorded in version metadata.
    name: str = "abstract"
    #: Whether a level folds at O(nnz) via its outlier table rather
    #: than a full dense pass (sparse/hybrid; observability only).
    scatters: bool = False

    @property
    def fold_layout(self) -> int | None:
        """What a whole stored level of this codec holds past its frame,
        as :class:`~repro.core.native.ChunkFold` reads it: the section's
        ``layout`` parts, plus :data:`~repro.core.native.FOLD_SEALED`
        when a seal byte precedes them.  None: its levels need
        :meth:`_unseal`'s work first."""
        return self.layout

    def _seal(self, parts: list[bytes]) -> list[bytes]:
        return parts

    def _unseal(self, payload: memoryview):
        return payload

    # -- encode: always from a plan ------------------------------------
    def encode_from_plan(self, plan: CodePlan) -> list[bytes]:
        """The encoded delta of the plan's ``(target, base)`` pair, as
        the list of buffers the write pipeline joins once, at
        placement."""
        return [pack_frame(plan.target, plan.mode),
                *self._seal(self._encode(plan.runs, plan.stats))]

    def plan_size(self, plan: CodePlan) -> int | None:
        """Exact encoded size, from the plan's statistics alone.

        The single-pass planner sizes every candidate from one delta /
        code-array / width-histogram computation and encodes only the
        winner.  ``None`` means the size is data dependent beyond the
        statistics (an LZ stage) and the planner must encode this
        candidate to learn it.
        """
        return frame_size(plan.target) + self._size(plan.runs, plan.stats)

    def encode_parts(self, target: np.ndarray,
                     base: np.ndarray) -> list[bytes]:
        return self.encode_from_plan(CodePlan.build(target, base))

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
        """Reconstruct the target given the base it was encoded against."""
        payload, count, mode, dtype, shape = self._open(data, base)
        codes, end = self._decode(payload, 0, count)
        if end != len(payload):
            raise CodecError(
                f"{self.name} delta payload has {len(payload) - end} "
                "undecoded trailing bytes")
        return numeric.apply_delta_forward(
            base, codes_to_delta(codes, mode).reshape(shape), mode, dtype)

    def section(self, data, frame: bytes, like: np.ndarray):
        """The unframed, unsealed payload of a level over ``like``.

        ``frame`` is the frame ``like`` implies, built once per chain:
        a level that starts with exactly those bytes needs no parsing.
        One that does not is either corrupt — :func:`unpack_frame`
        says how — or spelled differently, and then parsed the long
        way.
        """
        data = memoryview(data)
        offset = len(frame)
        if data[:offset] != frame:
            native.decline("fold_chain", "frame prefix mismatch")
            offset = unpack_frame(data, like)[3]
        return self._unseal(data[offset:])

    def accumulate(self, data, accumulator: np.ndarray | None
                   ) -> tuple[np.ndarray, str, np.dtype, tuple[int, ...]]:
        """Fold this one delta into a flat 64-bit accumulator
        (:func:`repro.core.numeric.delta_accumulator`).

        Returns ``(accumulator, mode, dtype, shape)``; ``None`` starts
        a fresh accumulator.  A whole chain goes through
        :func:`fold_chain`.
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
        code_store.fold_chain([payload], [self.layout], accumulator, mode)
        return accumulator, mode, dtype, shape

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


@lru_cache(maxsize=256)
def chunk_fold(dtype: np.dtype, shape: tuple[int, ...]
               ) -> native.ChunkFold | None:
    """The one-call decode of chunks of ``(dtype, shape)``
    (:class:`~repro.core.native.ChunkFold`), built once per layout: it
    expects a root to start with the array header the ``none``
    compressor writes and every level with :func:`pack_frame`'s bytes.
    None when no kernel folds the cell type."""
    try:
        mode = numeric.delta_mode_for(dtype)
    except CodecError:
        return None
    header = pack_array_header(dtype, shape)
    return native.chunk_fold(dtype, shape, header,
                             header + pack_u8(_MODE_TO_TAG[mode]),
                             mode == numeric.XOR)


def fold_chain(codecs: list[DeltaCodec], payloads: list,
               like: np.ndarray, dest: np.ndarray) -> None:
    """Fold a chain of delta levels into ``dest`` in place.

    ``payloads[i]`` is a stored delta, encoded by ``codecs[i]``,
    between two arrays of ``like``'s dtype and shape (the chain's
    decoded root); ``dest`` holds ``like.size`` cells — see
    :func:`repro.delta.codes.fold_chain` for what it may be.  Every
    level's frame is checked against ``like`` before anything is
    folded.  A malformed level raises
    :class:`~repro.core.errors.DeltaLevelError` carrying its index.
    """
    mode = numeric.delta_mode_for(like.dtype)
    frame = pack_frame(like, mode)
    sections = []
    try:
        for codec, payload in zip(codecs, payloads):
            sections.append(codec.section(payload, frame, like))
    except CodecError as exc:
        raise DeltaLevelError(len(sections), str(exc)) from exc
    code_store.fold_chain(sections, [codec.layout for codec in codecs],
                          dest, mode)
