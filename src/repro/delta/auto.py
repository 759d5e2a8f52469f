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
``codec.encode`` and the Materialization Matrix build where no kernel
runs; every candidate is *sized* from the
shared plan (exact sizes, not estimates — the codecs'
``plan_size`` is byte-accurate), the materialized size is derived
analytically under the identity compressor, and exactly one encoder
runs: the winner's, fed the already-computed codes.  That is the
numpy form, which runs where no kernel does: with the kernels on, the
same decision is one compiled call per chunk (:func:`encode_chunk`,
two where a ``hybrid+lz`` candidate must be compressed to be sized).
The literal "try both" form — encode
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
from repro.core import native
from repro.core.serial import pack_array_header
from repro.delta.base import DeltaCodec
from repro.delta.codes import CodePlan
from repro.delta.hybrid import HybridDeltaCodec
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
    ``CodePlan.build``).  This is the kernels-off form of
    :func:`encode_chunk`, which the write pipeline runs wherever a
    kernel does.
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
    sizes: list[int] = []
    made: list[list[bytes] | None] = []
    for codec in candidates:
        size = codec.plan_size(plan)
        parts = None
        if size is None:
            # Data-dependent size: encode once, cache the parts so a
            # win never re-encodes.
            parts = codec.encode_from_plan(plan)
            size = sum(len(part) for part in parts)
        sizes.append(size)
        made.append(parts)
    winner, encodes_avoided, bytes_saved = _decide(
        candidates, sizes, [parts is not None for parts in made], mat_size,
        mat_payload is not None)
    if winner < 0:
        if mat_payload is None:
            mat_payload = compressor.encode(target)
        decision = EncodingDecision(delta_codec=None, size=mat_size,
                                    parts=(mat_payload,))
    else:
        best_parts = made[winner]
        if best_parts is None:
            best_parts = candidates[winner].encode_from_plan(plan)
        decision = EncodingDecision(delta_codec=candidates[winner].name,
                                    size=sizes[winner],
                                    parts=tuple(best_parts))
    return PlannedEncoding(decision=decision,
                           encodes_avoided=encodes_avoided,
                           bytes_saved=bytes_saved)


def _decide(codecs, sizes, encoded, mat_size: int, mat_encoded: bool
            ) -> tuple[int, int, int]:
    """``(winner, encodes_avoided, bytes_saved)`` of one chunk's race:
    the index of the cheapest candidate (-1: the materialized form,
    which comes first; a later one must be strictly smaller), and the
    representations sized exactly but never encoded — every candidate
    not ``encoded`` and not the winner's codec, and the materialized
    form when a delta wins and it was not ``mat_encoded`` (the identity
    compressor's, sized by arithmetic) — with their total size.  The
    one rule of :func:`plan_encoding` and :func:`encode_chunk`."""
    winner, best = -1, mat_size
    for index, size in enumerate(sizes):
        if size < best:
            winner, best = index, size
    best_codec = codecs[winner] if winner >= 0 else None
    encodes_avoided = bytes_saved = 0
    for codec, made, size in zip(codecs, encoded, sizes):
        if not made and codec is not best_codec:
            encodes_avoided += 1
            bytes_saved += size
    if winner >= 0 and not mat_encoded:
        # The cost model proved a delta wins under the identity
        # compressor: the materialized payload is never produced.
        encodes_avoided += 1
        bytes_saved += mat_size
    return winner, encodes_avoided, bytes_saved


def encode_chunk(encode: native.ChunkEncode, target: np.ndarray,
                 base: np.ndarray, compressor: Codec | None = None, *,
                 adopt: bool = False, space: np.ndarray | None = None
                 ) -> PlannedEncoding:
    """:func:`plan_encoding`'s decision, payload and savings for
    ``target`` against ``base``, through ``encode``
    (:func:`~repro.delta.base.chunk_encode` of the chunk's layout and
    the candidate codecs): the form that runs wherever a kernel does.

    One analysis pass packs the cheapest representation.  A compressor
    other than ``none`` has its materialized form made first, and races
    at that size.  A ``hybrid+lz`` candidate sizes only by compressing:
    the first pass packs its sections, sealed here (:meth:`~repro.delta
    .base.DeltaCodec.packed`), and a plain winner packs in a second
    pass.  The winner and the savings are :func:`_decide`'s, as the
    planner's are.  ``space`` and ``adopt`` are
    :class:`~repro.core.native.ChunkEncode`'s."""
    codecs, sealed = encode.candidates, encode.bare
    identity = compressor is None or type(compressor) is IdentityCodec
    if identity:
        mat_size, mat_payload = encode.materialized, None
    else:
        mat_size, mat_payload = materialized_size(target, compressor)
    if True not in sealed:
        # The call's race is _decide's: it packed the winner, or under
        # the identity compressor the materialized form.
        _, payload, sizes = encode(target, base, adopt, space,
                                   materialized=-1 if identity
                                   else mat_size)
        winner, encodes_avoided, bytes_saved = _decide(
            codecs, sizes, sealed, mat_size, not identity)
    else:
        first = sealed.index(True)
        parts, sizes = codecs[first].packed(encode, first, target, base,
                                            space=space)
        sealed_size = sum(map(len, parts))
        sizes = [sealed_size if seal else size
                 for seal, size in zip(sealed, sizes)]
        winner, encodes_avoided, bytes_saved = _decide(
            codecs, sizes, sealed, mat_size, not identity)
        payload = b""
        if winner >= 0 and not sealed[winner]:
            payload = encode(target, base, adopt, space, pack=winner).payload
        else:
            if winner >= 0:
                payload = b"".join(parts)
            if adopt:
                np.copyto(base, target)
    if winner < 0:
        if mat_payload is None:
            mat_payload = payload or IdentityCodec().encode(target)
        payload = mat_payload
    decision = EncodingDecision(
        delta_codec=None if winner < 0 else codecs[winner].name,
        size=len(payload), parts=(payload,))
    return PlannedEncoding(decision=decision,
                           encodes_avoided=encodes_avoided,
                           bytes_saved=bytes_saved)
