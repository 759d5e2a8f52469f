"""Tests for adaptive LZ (Table IV's "future work" implemented)."""

from __future__ import annotations

import numpy as np
import pytest

from paper.baselines import AdaptiveLZCodec
from repro.compression import get_codec
from repro.core.errors import CodecError


class TestAdaptiveLZ:
    def test_not_a_store_compressor(self):
        assert AdaptiveLZCodec().name == "adaptive-lz"
        with pytest.raises(CodecError, match="adaptive-lz"):
            get_codec("adaptive-lz")

    def test_small_payloads_stay_raw(self):
        codec = AdaptiveLZCodec(min_bytes=4096)
        array = np.zeros(100, dtype=np.int32)  # 400 B, compressible
        encoded = codec.encode(array)
        # Raw + header: no LZ despite perfect compressibility.
        assert len(encoded) >= array.nbytes
        assert codec.decode(encoded).tobytes() == array.tobytes()

    def test_compressible_large_payloads_get_lz(self):
        codec = AdaptiveLZCodec(min_bytes=1024)
        array = np.zeros(65536, dtype=np.int32)
        encoded = codec.encode(array)
        assert len(encoded) < array.nbytes / 50
        assert codec.decode(encoded).tobytes() == array.tobytes()

    def test_incompressible_large_payloads_stay_raw(self, rng):
        codec = AdaptiveLZCodec(min_bytes=1024)
        array = rng.integers(0, 2**62, size=8192).astype(np.uint64)
        encoded = codec.encode(array)
        # Within a few bytes of raw: LZ was predicted useless and skipped.
        assert len(encoded) <= array.nbytes + 64
        assert codec.decode(encoded).tobytes() == array.tobytes()

    def test_anticipated_ratio_bounds(self, rng):
        codec = AdaptiveLZCodec()
        assert codec.anticipated_ratio(b"") == 1.0
        compressible = bytes(10000)
        assert codec.anticipated_ratio(compressible) < 0.1
        random_bytes = rng.integers(0, 256, 10000).astype(np.uint8) \
            .tobytes()
        assert codec.anticipated_ratio(random_bytes) > 0.9

    def test_prediction_uses_prefix_only(self, rng):
        # A payload whose head is random but whose tail is zeros: the
        # prefix sample predicts poorly, so the codec stays raw — the
        # documented trade-off of sampling.
        codec = AdaptiveLZCodec(min_bytes=1024, sample_bytes=1024)
        head = rng.integers(0, 256, 1024).astype(np.uint8)
        tail = np.zeros(64 * 1024, dtype=np.uint8)
        array = np.concatenate([head, tail])
        encoded = codec.encode(array)
        assert codec.decode(encoded).tobytes() == array.tobytes()

    def test_roundtrip_dtypes(self, rng):
        codec = AdaptiveLZCodec(min_bytes=0)
        for dtype in (np.uint8, np.int32, np.float64):
            if np.dtype(dtype).kind == "f":
                array = rng.normal(0, 1, (32, 32)).astype(dtype)
            else:
                array = rng.integers(0, 100, (32, 32)).astype(dtype)
            out = codec.decode(codec.encode(array))
            assert out.tobytes() == array.tobytes()
            assert out.shape == array.shape

    def test_nan_inf_bit_exact(self):
        codec = AdaptiveLZCodec(min_bytes=0)
        array = np.array([np.nan, np.inf, -0.0] * 100, dtype=np.float64)
        assert codec.decode(codec.encode(array)).tobytes() == \
            array.tobytes()

    def test_invalid_parameters(self):
        with pytest.raises(CodecError):
            AdaptiveLZCodec(min_bytes=-1)
        with pytest.raises(CodecError):
            AdaptiveLZCodec(sample_bytes=0)
        with pytest.raises(CodecError):
            AdaptiveLZCodec(min_ratio=0)

    def test_corrupt_stream_rejected(self):
        codec = AdaptiveLZCodec(min_bytes=0)
        data = bytearray(codec.encode(np.zeros(65536, dtype=np.int64)))
        data[-8:] = b"\x01" * 8
        with pytest.raises(CodecError):
            codec.decode(bytes(data))
