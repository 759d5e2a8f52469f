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
"""

from __future__ import annotations

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
    def _unframe(data: bytes) -> tuple[np.dtype, tuple[int, ...], str, int]:
        dtype, shape, offset = unpack_array_header(data)
        tag, offset = unpack_u8(data, offset)
        if tag not in _TAG_TO_MODE:
            raise CodecError(f"unknown delta mode tag {tag}")
        return dtype, shape, _TAG_TO_MODE[tag], offset

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
    def plan_size(self, plan: "CodePlan") -> int | None:
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

    def encode_from_plan(self, plan: "CodePlan") -> list[bytes]:
        """Encode using the plan's precomputed delta, codes and stats.

        Must emit exactly the bytes :meth:`encode_parts` would for the
        plan's ``(target, base)`` pair — the planner's hard invariant
        is byte identity with encoding from scratch.  The default
        recomputes from the arrays; code-array codecs override to
        reuse the shared work.
        """
        return self.encode_parts(plan.target, plan.base)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
