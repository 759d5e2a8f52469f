"""Automatic encoding choice: materialize vs. delta, and which delta.

Section III-B.3: "if an array would use less space on disk if stored
without delta compression, the system will choose not to use it.  Disk
space usage is calculated by trying both methods and choosing the more
economical one."  Section II-A adds that "delta-ing is performed
automatically by comparing the new version to versions already in the
system" — the user never has to supply the delta-list form to benefit.

:func:`plan_encoding` makes that decision in a single pass: one
:class:`~repro.delta.codes.CodePlan` computes the delta, the unsigned
code array and its width statistics exactly once — the same plan
``codec.encode`` and the Materialization Matrix build, so there is one
way to price or emit a delta; every candidate is *sized* from the
shared plan (exact sizes, not estimates — the codecs'
``plan_size`` is byte-accurate), the materialized size is derived
analytically under the identity compressor, and exactly one encoder
runs: the winner's, fed the already-computed codes.  On the insert
path the same decision is one compiled call per chunk
(:func:`chunk_encode`), and this planner decides what that call
declines.  The literal "try both" form — encode
the materialized representation and every candidate, keep the smallest
— picks the same winner with the same payload bytes; it lives in
``tests/delta/encoding_oracle.py`` as the reference the planner's
property suite asserts equality against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.compression.base import Codec, IdentityCodec
from repro.core import native, numeric
from repro.core.errors import CodecError
from repro.core.serial import pack_array_header
from repro.delta.base import DeltaCodec, layout_frame
from repro.delta.codes import CodePlan
from repro.delta.hybrid import HybridDeltaCodec
from repro.delta.registry import get_delta_codec
from repro.delta.sparse import SparseDeltaCodec


@dataclass(frozen=True)
class EncodingDecision:
    """The outcome of the materialize-or-delta comparison.

    ``delta_codec`` is None when materializing wins; otherwise it names
    the winning delta codec.  ``size`` is the encoded byte count of the
    winning representation and ``parts`` its buffers — the sections the
    encoder produced, carried unjoined so the chunk store can compose
    the payload exactly once at placement.  :attr:`payload` joins them
    for callers that want one byte string; the join is cached, so
    repeated access costs one copy total instead of one per access.
    """

    delta_codec: str | None
    size: int
    parts: tuple[bytes, ...]

    @cached_property
    def payload(self) -> bytes:
        return b"".join(self.parts)

    @property
    def is_delta(self) -> bool:
        return self.delta_codec is not None


@dataclass(frozen=True)
class PlannedEncoding:
    """A planner decision plus what the plan saved over encoding every
    representation: ``encodes_avoided`` counts representations that
    were sized exactly but never encoded (losing candidates, and the
    materialized form when a delta provably wins under the identity
    compressor), and ``bytes_saved`` is the total size of those
    never-produced payloads.
    """

    decision: EncodingDecision
    encodes_avoided: int
    bytes_saved: int


def default_delta_candidates() -> tuple[DeltaCodec, ...]:
    """The delta codecs tried by default on the insert path.

    The hybrid codec subsumes dense and sparse in size (its cost search
    includes both extremes), so trying hybrid plus plain sparse keeps the
    insert path fast while matching the paper's behaviour.
    """
    return (HybridDeltaCodec(), SparseDeltaCodec())


@lru_cache(maxsize=256)
def _identity_header_len(dtype_str: str, shape: tuple[int, ...]) -> int:
    """Length of the identity codec's array header, cached per layout
    (the write pipeline sizes the same chunk geometry thousands of
    times)."""
    return len(pack_array_header(np.dtype(dtype_str), shape))


def materialized_size(target: np.ndarray, compressor: Codec
                      ) -> tuple[int, bytes | None]:
    """Exact materialized size, without encoding when provable.

    Under the identity compressor the encoded form is the array header
    plus the raw cell bytes, so its length is arithmetic — the planner
    can rule materialization in or out without producing the payload.
    Any other compressor's output length is data dependent: encode it
    and return the payload alongside so a materialize win reuses it.
    ``type(...) is IdentityCodec`` deliberately excludes subclasses,
    whose ``encode`` may differ.
    """
    if type(compressor) is IdentityCodec:
        # ascontiguousarray (which IdentityCodec applies) promotes 0-d
        # arrays to shape (1,), so the stored header carries one extent.
        shape = target.shape if target.ndim else (1,)
        return _identity_header_len(target.dtype.str, shape) \
            + target.nbytes, None
    encoded = compressor.encode(target)
    return len(encoded), encoded


def plan_encoding(target: np.ndarray, base: np.ndarray | None,
                  compressor: Codec | None = None,
                  candidates: tuple[DeltaCodec, ...] | None = None,
                  *, adopt: bool = False) -> PlannedEncoding:
    """Pick the cheapest representation of ``target`` in a single pass.

    ``base`` is the version the optimizer proposes to delta against
    (None forces materialization).  ``compressor`` is applied to the
    materialized representation; delta payloads carry their own
    optional LZ stage.  Ties keep the earlier representation
    (materialized first, then candidates in order; a later one must be
    strictly smaller).  The delta, code array and width statistics are
    computed once and shared; candidates
    that can size themselves from the plan are never encoded unless
    they win; candidates that cannot (an LZ stage) are encoded exactly
    once and their parts cached for the win case; and
    the materialized form is sized analytically under the identity
    compressor, so when a delta wins its payload is never produced.

    ``adopt`` leaves ``base`` holding ``target``'s cells (see
    ``CodePlan.build``).  The write pipeline asks :func:`chunk_encode`'s
    one native call first and comes here for what it declines.
    """
    compressor = compressor or IdentityCodec()
    mat_size, mat_payload = materialized_size(target, compressor)
    if base is None:
        if mat_payload is None:
            mat_payload = compressor.encode(target)
        decision = EncodingDecision(delta_codec=None, size=mat_size,
                                    parts=(mat_payload,))
        return PlannedEncoding(decision=decision, encodes_avoided=0,
                               bytes_saved=0)

    candidates = candidates or default_delta_candidates()
    plan = CodePlan.build(target, base, adopt=adopt)
    best_codec: DeltaCodec | None = None
    best_size = mat_size
    best_parts: list[bytes] | None = None
    sized: list[tuple[DeltaCodec, int, list[bytes] | None]] = []
    for codec in candidates:
        size = codec.plan_size(plan)
        parts = None
        if size is None:
            # Data-dependent size: encode once, cache the parts so a
            # win never re-encodes.
            parts = codec.encode_from_plan(plan)
            size = sum(len(part) for part in parts)
        sized.append((codec, size, parts))
        if size < best_size:
            best_codec, best_size, best_parts = codec, size, parts

    encodes_avoided = 0
    bytes_saved = 0
    for codec, size, parts in sized:
        if parts is None and codec is not best_codec:
            encodes_avoided += 1
            bytes_saved += size

    if best_codec is None:
        if mat_payload is None:
            mat_payload = compressor.encode(target)
        decision = EncodingDecision(delta_codec=None, size=mat_size,
                                    parts=(mat_payload,))
    else:
        if mat_payload is None:
            # The cost model proved a delta wins under the identity
            # compressor: the materialized payload is never produced.
            encodes_avoided += 1
            bytes_saved += mat_size
        if best_parts is None:
            best_parts = best_codec.encode_from_plan(plan)
        decision = EncodingDecision(delta_codec=best_codec.name,
                                    size=best_size,
                                    parts=tuple(best_parts))
    return PlannedEncoding(decision=decision,
                           encodes_avoided=encodes_avoided,
                           bytes_saved=bytes_saved)


@lru_cache(maxsize=256)
def chunk_encode(dtype: np.dtype, shape: tuple[int, ...],
                 candidates: tuple[str, ...], compressor: str
                 ) -> native.ChunkEncode | None:
    """The one-call encode (:class:`~repro.core.native.ChunkEncode`) of
    chunks of ``(dtype, shape)`` against the store delta codecs named
    ``candidates``, in order, under the compressor named
    ``compressor``: :func:`plan_encoding`'s decision, payload and
    savings, built once per layout.  None when the call cannot make
    that decision — a compressor other than ``none`` (its size is known
    only by compressing), a candidate whose level the fold cannot read
    (``hybrid+lz``: its size is known only by compressing too), a
    candidate named twice, or a cell type no kernel encodes."""
    layouts = tuple(get_delta_codec(name).fold_layout
                    for name in candidates)
    if compressor != IdentityCodec.name or None in layouts \
            or len(set(candidates)) != len(candidates):
        return None
    try:
        mode = numeric.delta_mode_for(dtype)
    except CodecError:
        return None
    # ascontiguousarray promotes a 0-d chunk to shape (1,) in the
    # materialized header (see materialized_size); its frame keeps ().
    return native.chunk_encode(
        dtype, shape, pack_array_header(dtype, shape or (1,)),
        layout_frame(dtype, shape, mode), candidates, layouts)
