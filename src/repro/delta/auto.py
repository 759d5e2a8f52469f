"""Automatic encoding choice: materialize vs. delta, and which delta.

Section III-B.3: "if an array would use less space on disk if stored
without delta compression, the system will choose not to use it.  Disk
space usage is calculated by trying both methods and choosing the more
economical one."  Section II-A adds that "delta-ing is performed
automatically by comparing the new version to versions already in the
system" — the user never has to supply the delta-list form to benefit.

:func:`encode_chunk` makes that decision for a chunk with a delta base
through the write path's one encode face
(:class:`~repro.core.native.ChunkEncode`, built by
:func:`~repro.delta.base.chunk_encode`): one analysis pass computes the
delta codes and their width histogram once, every candidate and the
materialized form are *sized* from it exactly (not estimated), and
only the winner is packed — in C, or in the face's numpy form where no
kernel runs, to the same bytes.  A chunk with no base is the
compressor's encode (:func:`materialize`).  The literal "try both"
form — encode the materialized representation and every candidate,
keep the smallest — picks the same winner with the same payload bytes;
it lives in ``tests/delta/encoding_oracle.py`` as the reference the
encode suites assert equality against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.compression.base import Codec, IdentityCodec
from repro.core import native
from repro.delta.base import DeltaCodec
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
    """An encoding decision plus what sizing saved over encoding every
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


def materialize(target: np.ndarray, compressor: Codec | None = None
                ) -> PlannedEncoding:
    """``target`` as the ``compressor``'s encode (the identity codec's
    when None): the representation of a chunk with no delta base."""
    payload = (compressor or IdentityCodec()).encode(target)
    return PlannedEncoding(
        decision=EncodingDecision(delta_codec=None, size=len(payload),
                                  parts=(payload,)),
        encodes_avoided=0, bytes_saved=0)


def _decide(codecs, sizes, encoded, mat_size: int, mat_encoded: bool
            ) -> tuple[int, int, int]:
    """``(winner, encodes_avoided, bytes_saved)`` of one chunk's race:
    the index of the cheapest candidate (-1: the materialized form,
    which comes first; a later one must be strictly smaller), and the
    representations sized exactly but never encoded — every candidate
    not ``encoded`` and not the winner's codec, and the materialized
    form when a delta wins and it was not ``mat_encoded`` (the identity
    compressor's, sized by arithmetic) — with their total size."""
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
    """The cheapest representation of ``target`` against ``base`` —
    decision, payload and savings — through ``encode``
    (:func:`~repro.delta.base.chunk_encode` of the chunk's layout and
    the candidate codecs, in order; ties keep the earlier, the
    materialized form first).

    One analysis pass packs the cheapest representation.  A compressor
    other than ``none`` has its materialized form made first, and races
    at that size (``type(...) is IdentityCodec`` deliberately excludes
    subclasses, whose ``encode`` may differ).  A ``hybrid+lz``
    candidate sizes only by compressing: the first pass packs its
    sections, sealed here (:meth:`~repro.delta.base.DeltaCodec.packed`),
    and a plain winner packs in a second pass — two analysis passes,
    which no store candidate list pays: ``chain`` names one codec and
    ``auto`` hybrid and sparse.  The winner and the savings are
    :func:`_decide`'s.  ``space`` and ``adopt`` are
    :class:`~repro.core.native.ChunkEncode`'s."""
    codecs, sealed = encode.candidates, encode.bare
    identity = compressor is None or type(compressor) is IdentityCodec
    if identity:
        mat_size, mat_payload = encode.materialized, None
    else:
        mat_payload = compressor.encode(target)
        mat_size = len(mat_payload)
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
