"""Delta codec interface.

A delta codec encodes a *target* version as a difference against a *base*
version of identical shape and dtype (Section III-B.3).  Codecs that set
``bidirectional = True`` can reconstruct either endpoint from the other —
the property Observation 2's cycle analysis relies on ("our system can
reconstruct the versions in both directions, by adding or subtracting the
delta").  The MPEG-2-like and BSDiff codecs are inherently directional.

Framing shared by all codecs::

    array header (dtype, shape)     - of the target/base arrays
    u8 delta mode                   - arithmetic (ints) or XOR (floats)
    codec-specific payload

:class:`DeltaCodec` is the interface; :class:`CodeArrayDeltaCodec` is
the one body behind the dense / sparse / hybrid family (Section
III-B.3), whose members differ only in which four
:mod:`repro.delta.codes` functions they name.  That body computes,
prices and encodes every delta through one
:class:`~repro.delta.codes.CodePlan`, so ``encode`` / ``encode_parts``
/ ``encoded_size`` are the planner's own code, not a second path next
to it.

The read path does not decode that family level by level:
:func:`fold_chain` checks each level's frame, hands the sections of the
whole chain to :func:`repro.delta.codes.fold_chain` and they are
applied straight to the cells of the version being read.

**Corrupt payloads.**  A decoder is handed the array it decodes
against, and the frame must agree with it: ``decode_forward`` /
``decode_backward`` check the frame's ``(dtype, shape)`` against the
``base`` / ``target`` argument, :func:`fold_chain` against the decoded
root (one prefix compare with the frame the root implies),
``accumulate`` its ``(mode, cell count)`` against the accumulator it is
given — always *before* anything is sized from the bytes — and every
codec rejects undecoded trailing bytes.  Whatever is wrong with a
payload, the only exception that escapes is a
:class:`~repro.core.errors.CodecError`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

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


class DeltaCodec(ABC):
    """Encodes one array version as a delta against another."""

    #: Registry key and the name recorded in version metadata.
    name: str = "abstract"
    #: Whether decode_backward is supported.
    bidirectional: bool = True
    #: Whether this codec's deltas compose associatively — a chain of
    #: such deltas folds straight into the root's cells
    #: (:func:`fold_chain`, the fused read path).  Codecs that
    #: transform the base rather than difference against it (bsdiff,
    #: mpeg-like) stay False and decode level-by-level.
    composable: bool = False
    #: Whether a level folds at O(nnz) via its outlier table rather
    #: than a full dense pass (sparse/hybrid; observability only).
    scatters: bool = False

    # ------------------------------------------------------------------
    # Framing helpers shared by implementations
    # ------------------------------------------------------------------
    @staticmethod
    def _frame(target: np.ndarray, mode: str) -> bytes:
        return (pack_array_header(target.dtype, target.shape)
                + pack_u8(_MODE_TO_TAG[mode]))

    @staticmethod
    def _frame_size(target: np.ndarray) -> int:
        """Byte length of :meth:`_frame` without building it:
        dtype string length byte + dtype string + ndim byte + extents
        + the delta mode byte."""
        dtype_len = len(np.dtype(target.dtype).str)
        return 1 + dtype_len + 1 + 8 * target.ndim + 1

    @staticmethod
    def _unframe(data: bytes, like: np.ndarray | None = None
                 ) -> tuple[np.dtype, tuple[int, ...], str, int]:
        """Parse the frame; returns ``(dtype, shape, mode, offset)``.

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
        if like is not None and \
                (dtype, shape) != (like.dtype, like.shape):
            raise CodecError(
                f"delta frame ({dtype}, {shape}) does not match the "
                f"array it decodes against ({like.dtype}, {like.shape})")
        return dtype, shape, _TAG_TO_MODE[tag], offset

    def _check_consumed(self, end: int, payload) -> None:
        if end != len(payload):
            raise CodecError(
                f"{self.name} delta payload has {len(payload) - end} "
                "undecoded trailing bytes")

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abstractmethod
    def encode(self, target: np.ndarray, base: np.ndarray) -> bytes:
        """Encode ``target`` as a delta against ``base``."""

    def encode_parts(self, target: np.ndarray,
                     base: np.ndarray) -> list[bytes]:
        """The encoded delta as a list of buffers.

        Joining the parts yields exactly :meth:`encode`'s byte string.
        The write pipeline carries the parts form so the final payload
        is joined once, at placement, instead of once per stage; codecs
        whose encoders naturally produce sections override this —
        the default materializes via :meth:`encode`.
        """
        return [self.encode(target, base)]

    @abstractmethod
    def decode_forward(self, data: bytes, base: np.ndarray) -> np.ndarray:
        """Reconstruct the target given the base it was encoded against."""

    def decode_backward(self, data: bytes, target: np.ndarray) -> np.ndarray:
        """Reconstruct the base given the target (bidirectional codecs)."""
        raise CodecError(
            f"delta codec {self.name!r} is directional; "
            "the base cannot be reconstructed from the target")

    def accumulate(self, data: bytes, accumulator: np.ndarray | None
                   ) -> tuple[np.ndarray, str, np.dtype, tuple[int, ...]]:
        """Fold this one delta into a flat 64-bit accumulator
        (:func:`repro.core.numeric.delta_accumulator`).

        Returns ``(accumulator, mode, dtype, shape)``; ``None`` starts
        a fresh accumulator.  Only meaningful for ``composable``
        codecs; a whole chain goes through :func:`fold_chain`.
        """
        raise CodecError(
            f"delta codec {self.name!r} does not compose; "
            "decode level-by-level instead")

    def encoded_size(self, target: np.ndarray, base: np.ndarray) -> int:
        """Exact encoded size; codecs may override with a cheaper estimate."""
        return len(self.encode(target, base))

    # ------------------------------------------------------------------
    # Planner integration (single-pass encode selection)
    # ------------------------------------------------------------------
    def plan_size(self, plan: CodePlan) -> int | None:
        """Exact encoded size derived from a shared :class:`CodePlan`.

        The single-pass planner sizes every candidate from one delta /
        code-array / width-histogram computation and encodes only the
        winner.  Codecs whose size is a pure function of the plan's
        statistics return it here *without encoding anything*; ``None``
        means the size is data dependent beyond the statistics (LZ
        stages, transform codecs) and the planner must fall back to
        encoding this candidate to learn its size.
        """
        return None

    def encode_from_plan(self, plan: CodePlan) -> list[bytes]:
        """Encode using the plan's precomputed delta, codes and stats.

        Must emit exactly the bytes :meth:`encode_parts` would for the
        plan's ``(target, base)`` pair.  This default serves the
        transform codecs (bsdiff, mpeg-like), which take nothing from a
        code array and encode from the plan's two arrays; the
        code-array family encodes *only* from plans.
        """
        return self.encode_parts(plan.target, plan.base)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class CodeArrayDeltaCodec(DeltaCodec):
    """The one body of the dense / sparse / hybrid family.

    A strategy declares three :mod:`repro.delta.codes` functions —
    ``_size(codes, stats)``, ``_encode(codes, stats)`` and
    ``_decode(data, offset, count)`` — plus the ``layout`` of its
    payload (which of the :data:`~repro.delta.codes.SMALL` /
    :data:`~repro.delta.codes.TABLE` sections it has), and inherits
    everything else: framing, the unframe prelude with its
    frame-vs-array check, the trailing-bytes check, both decode
    directions, the fold, and an encode side that is the planner's
    (``encode_parts(t, b)`` *is*
    ``encode_from_plan(CodePlan.build(t, b))``).  :meth:`_seal` /
    :meth:`_unseal` are the hook for a byte-level stage between the
    frame and the packed sections (hybrid's LZ flag).
    """

    bidirectional = True
    composable = True

    def _seal(self, parts: list[bytes]) -> list[bytes]:
        return parts

    def _unseal(self, payload: memoryview):
        return payload

    # -- encode: always from a plan ------------------------------------
    def encode_from_plan(self, plan: CodePlan) -> list[bytes]:
        return [self._frame(plan.target, plan.mode),
                *self._seal(self._encode(plan.codes, plan.stats))]

    def plan_size(self, plan: CodePlan) -> int | None:
        return self._frame_size(plan.target) + \
            self._size(plan.codes, plan.stats)

    def encode_parts(self, target: np.ndarray,
                     base: np.ndarray) -> list[bytes]:
        return self.encode_from_plan(CodePlan.build(target, base))

    def encode(self, target: np.ndarray, base: np.ndarray) -> bytes:
        return b"".join(self.encode_parts(target, base))

    def encoded_size(self, target: np.ndarray, base: np.ndarray) -> int:
        plan = CodePlan.build(target, base)
        size = self.plan_size(plan)
        if size is None:
            size = sum(map(len, self.encode_from_plan(plan)))
        return size

    # -- decode --------------------------------------------------------
    def _open(self, data, like: np.ndarray | None = None):
        """The shared decode prelude: ``(payload, count, mode, dtype,
        shape)`` of a frame already checked against ``like``."""
        data = memoryview(data)
        dtype, shape, mode, offset = self._unframe(data, like)
        # A memoryview slice, not a bytes copy — the packed sections
        # are unpacked straight out of the stored payload.
        return (self._unseal(data[offset:]), math.prod(shape), mode,
                dtype, shape)

    def _decode_delta(self, data, like: np.ndarray) -> tuple:
        payload, count, mode, dtype, shape = self._open(data, like)
        codes, end = self._decode(payload, 0, count)
        self._check_consumed(end, payload)
        return codes_to_delta(codes, mode).reshape(shape), mode, dtype

    def decode_forward(self, data: bytes, base: np.ndarray) -> np.ndarray:
        return numeric.apply_delta_forward(
            base, *self._decode_delta(data, base))

    def decode_backward(self, data: bytes, target: np.ndarray) -> np.ndarray:
        return numeric.apply_delta_backward(
            target, *self._decode_delta(data, target))

    def section(self, data, frame: bytes, like: np.ndarray):
        """The unframed, unsealed payload of a level over ``like``.

        ``frame`` is the frame ``like`` implies, built once per chain:
        a level that starts with exactly those bytes needs no parsing.
        One that does not is either corrupt — :meth:`_unframe` says
        how — or spelled differently, and then parsed the long way.
        """
        data = memoryview(data)
        offset = len(frame)
        if data[:offset] != frame:
            native.decline("fold_chain", "frame prefix mismatch")
            offset = self._unframe(data, like)[3]
        return self._unseal(data[offset:])

    def accumulate(self, data, accumulator):
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


def fold_chain(codecs: list[CodeArrayDeltaCodec], payloads: list,
               like: np.ndarray, dest: np.ndarray) -> None:
    """Fold a chain of composable levels into ``dest`` in place.

    ``payloads[i]`` is a stored delta, encoded by ``codecs[i]``,
    between two arrays of ``like``'s dtype and shape (the chain's
    decoded root); ``dest`` holds ``like.size`` cells — see
    :func:`repro.delta.codes.fold_chain` for what it may be.  Every
    level's frame is checked against ``like`` before anything is
    folded.  A malformed level raises
    :class:`~repro.core.errors.DeltaLevelError` carrying its index.
    """
    mode = numeric.delta_mode_for(like.dtype)
    frame = DeltaCodec._frame(like, mode)
    sections = []
    try:
        for codec, payload in zip(codecs, payloads):
            sections.append(codec.section(payload, frame, like))
    except CodecError as exc:
        raise DeltaLevelError(len(sections), str(exc)) from exc
    code_store.fold_chain(sections, [codec.layout for codec in codecs],
                          dest, mode)
