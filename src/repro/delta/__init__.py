"""Delta encoding of array versions (Section III).

Provides the store's differencing family — dense, sparse and hybrid
(with optional LZ) — plus automatic materialize-vs-delta selection.
Table I's other algorithms, the MPEG-2-like block matcher and the
BSDiff-style binary differ, are comparison baselines in
:mod:`repro.baselines`.
"""

from repro.delta.auto import (
    CodePlan,
    EncodingDecision,
    PlannedEncoding,
    default_delta_candidates,
    plan_encoding,
)
from repro.delta.base import DeltaCodec
from repro.delta.codes import CodeStats
from repro.delta.dense import DenseDeltaCodec
from repro.delta.hybrid import HybridDeltaCodec
from repro.delta.registry import delta_codec_names, get_delta_codec
from repro.delta.sparse import SparseDeltaCodec

__all__ = [
    "CodePlan",
    "CodeStats",
    "DeltaCodec",
    "DenseDeltaCodec",
    "EncodingDecision",
    "HybridDeltaCodec",
    "PlannedEncoding",
    "SparseDeltaCodec",
    "default_delta_candidates",
    "plan_encoding",
    "delta_codec_names",
    "get_delta_codec",
]
