"""The paper's "try both" encoding decision, kept as a test oracle.

Section III-B.3: "Disk space usage is calculated by trying both methods
and choosing the more economical one."  This is that sentence as code —
fully encode the materialized representation *and* every candidate
delta codec, keep the smallest — exactly as the store's write path ran
it before the single-pass planner replaced it.  Every loser's payload
is thrown away and each candidate recomputes the same delta and width
statistics, which is why it left ``src/``; it stays here as the
reference :func:`repro.delta.auto.plan_encoding` must equal, winner,
size and payload bytes.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, IdentityCodec
from repro.delta.auto import EncodingDecision, default_delta_candidates
from repro.delta.base import DeltaCodec


def choose_encoding(target: np.ndarray, base: np.ndarray | None,
                    compressor: Codec | None = None,
                    candidates: tuple[DeltaCodec, ...] | None = None,
                    ) -> EncodingDecision:
    """Pick the cheapest representation of ``target`` (two-pass form).

    ``base`` is the version the optimizer proposes to delta against
    (None forces materialization).  ``compressor`` is applied to the
    materialized representation; delta payloads carry their own optional
    LZ stage.
    """
    compressor = compressor or IdentityCodec()
    materialized = compressor.encode(target)
    best = EncodingDecision(delta_codec=None, size=len(materialized),
                            parts=(materialized,))
    if base is None:
        return best

    for codec in candidates or default_delta_candidates():
        parts = codec.encode_parts(target, base)
        size = sum(len(part) for part in parts)
        if size < best.size:
            best = EncodingDecision(delta_codec=codec.name,
                                    size=size, parts=tuple(parts))
    return best
