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

**Corrupt payloads.**  A decoder is handed the array it decodes
against, and the frame must agree with it: ``decode_forward`` /
``decode_backward`` check the frame's ``(dtype, shape)`` against the
``base`` / ``target`` argument, ``accumulate`` checks its ``(mode,
cell count)`` against the accumulator the read pipeline pre-sized from
the chunk — in both cases *before* anything is sized from the bytes —
and every codec rejects undecoded trailing bytes.  Whatever is wrong
with a payload, the only exception that escapes is a
:class:`~repro.core.errors.CodecError`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.core import numeric
from repro.core.errors import CodecError
from repro.core.serial import (
    pack_array_header,
    pack_u8,
    unpack_array_header,
    unpack_u8,
)
from repro.delta.codes import CodePlan, codes_to_delta, ensure_accumulator

_MODE_TO_TAG = {numeric.ARITHMETIC: 0, numeric.XOR: 1}
_TAG_TO_MODE = {tag: mode for mode, tag in _MODE_TO_TAG.items()}


class DeltaCodec(ABC):
    """Encodes one array version as a delta against another."""

    #: Registry key and the name recorded in version metadata.
    name: str = "abstract"
    #: Whether decode_backward is supported.
    bidirectional: bool = True
    #: Whether this codec's deltas compose associatively — a chain of
    #: such deltas can be folded into one accumulator and applied to
    #: the root once (the fused read path).  Codecs that transform the
    #: base rather than difference against it (bsdiff, mpeg-like) stay
    #: False and decode level-by-level.
    composable: bool = False
    #: Whether :meth:`accumulate` folds at O(nnz) via scatter rather
    #: than a full dense pass (sparse/hybrid; observability only).
    scatters: bool = False
    #: Whether :meth:`plan_size` and :meth:`encode_from_plan` consume
    #: only the plan's shared arrays (target, codes, stats, mode) and
    #: never ``plan.base``.  Plans built by delta-of-delta re-base
    #: carry no base canvas at all, so only plan-sufficient codecs may
    #: be offered one.
    plan_sufficient: bool = False

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

    def accumulate(self, data: bytes, accumulator: np.ndarray | None,
                   batch: list | None = None
                   ) -> tuple[np.ndarray, str, np.dtype, tuple[int, ...]]:
        """Fold this delta's codes into a fused-chain accumulator.

        Returns ``(accumulator, mode, dtype, shape)``; ``None`` starts
        a fresh accumulator.  Only meaningful for ``composable``
        codecs — the decode pipeline calls it once per level and
        applies the folded delta to the materialized root in a single
        pass.  Scattering codecs append their (positions, delta)
        pairs to ``batch`` instead of scattering when it is given, so
        the pipeline can issue one batched scatter per chain.
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

    A strategy declares four :mod:`repro.delta.codes` functions —
    ``_size(codes, stats)``, ``_encode(codes, stats)``,
    ``_decode(data, offset, count)`` and ``_fold(data, offset, count,
    accumulator, mode, batch)`` — and inherits everything else:
    framing, the unframe prelude with its frame-vs-array check, the
    trailing-bytes check, both decode directions, the fused fold, and
    an encode side that is the planner's (``encode_parts(t, b)`` *is*
    ``encode_from_plan(CodePlan.build(t, b))``).  :meth:`_seal` /
    :meth:`_unseal` are the hook for a byte-level stage between the
    frame and the packed sections (hybrid's LZ flag).
    """

    bidirectional = True
    composable = True
    plan_sufficient = True

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

    def accumulate(self, data, accumulator, batch=None):
        payload, count, mode, dtype, shape = self._open(data)
        accumulator = ensure_accumulator(accumulator, mode, count)
        end = self._fold(payload, 0, count, accumulator, mode, batch)
        self._check_consumed(end, payload)
        return accumulator, mode, dtype, shape
