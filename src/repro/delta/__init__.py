"""Delta encoding of array versions (Section III).

Provides the store's differencing family — dense, sparse and hybrid
(with optional LZ) — plus automatic materialize-vs-delta selection.
Table I's other algorithms, the MPEG-2-like block matcher and the
BSDiff-style binary differ, are comparison baselines in
``benchmarks/paper/baselines/``, outside the package.
"""

from repro.delta.auto import (
    EncodingDecision,
    PlannedEncoding,
    default_delta_candidates,
)
from repro.delta.base import DeltaCodec
from repro.delta.codes import CodePlan, CodeStats
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
    "delta_codec_names",
    "get_delta_codec",
]
