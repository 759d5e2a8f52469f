"""Tests for automatic materialize-vs-delta selection (Section III-B.3)."""

from __future__ import annotations

import numpy as np

from repro.compression import LempelZivCodec
from repro.delta import HybridDeltaCodec, get_delta_codec
from repro.delta.auto import (
    default_delta_candidates,
    encode_chunk,
    materialize,
)
from repro.delta.base import chunk_encode


def _encode(target, base, compressor=None, candidates=None):
    """:func:`encode_chunk` through the face of the pair's layout."""
    codecs = candidates or default_delta_candidates()
    encode = chunk_encode(target.dtype, target.shape, codecs)
    return encode_chunk(encode, target, base, compressor)


class TestEncodingChoice:
    def test_no_base_materializes(self, rng):
        target = rng.normal(0, 1, size=(16, 16)).astype(np.float64)
        decision = materialize(target).decision
        assert not decision.is_delta
        assert decision.size == len(decision.payload)

    def test_similar_base_deltas(self, rng):
        base = rng.integers(0, 2**24, size=(32, 32)).astype(np.int32)
        target = base.copy()
        target[0, 0] += 1
        decision = _encode(target, base).decision
        assert decision.is_delta
        assert decision.size < base.nbytes / 10

    def test_dissimilar_base_materializes(self, rng):
        # When versions share nothing, delta coding cannot beat LZ'd
        # materialization by construction: deltas are as random as cells.
        target = rng.integers(0, 2**31, size=(32, 32)).astype(np.int32)
        base = rng.integers(0, 2**31, size=(32, 32)).astype(np.int32)
        decision = _encode(target, base,
                           compressor=LempelZivCodec()).decision
        # The decision must simply pick the smaller of the two.
        materialized = len(LempelZivCodec().encode(target))
        assert decision.size <= materialized

    def test_payload_reconstructs(self, rng):
        base = rng.integers(0, 100, size=(16, 16)).astype(np.int32)
        target = base + 1
        decision = _encode(target, base).decision
        assert decision.is_delta
        codec = get_delta_codec(decision.delta_codec)
        out = codec.decode_forward(decision.payload, base)
        assert out.tobytes() == target.tobytes()

    def test_custom_candidates(self, rng):
        base = rng.integers(0, 100, size=(8, 8)).astype(np.int32)
        target = base + 2
        decision = _encode(
            target, base,
            candidates=(HybridDeltaCodec(lz=True),)).decision
        assert decision.delta_codec == "hybrid+lz"
