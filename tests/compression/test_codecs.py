"""Round-trip and behaviour tests for the store's compressors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codec_cases import CompressorRoundTrips
from repro.compression import (
    IdentityCodec,
    LempelZivCodec,
    codec_names,
    get_codec,
    lz_bytes,
    unlz_bytes,
)
from repro.core.errors import CodecError


@pytest.mark.parametrize("codec", [IdentityCodec(), LempelZivCodec()],
                         ids=lambda c: c.name)
class TestRoundTripAllCodecs(CompressorRoundTrips):
    pass


class TestCompressionEffectiveness:
    def test_lz_crushes_repetitive_bytes(self):
        array = np.tile(np.arange(64, dtype=np.uint8), 512)
        codec = LempelZivCodec()
        assert len(codec.encode(array)) < array.nbytes / 20


class TestRegistry:
    def test_names_are_the_store_codecs(self):
        assert codec_names() == ("lz", "none")

    def test_get_codec(self):
        assert get_codec("lz").name == "lz"

    def test_unknown_codec(self):
        with pytest.raises(CodecError):
            get_codec("brotli")

    @pytest.mark.parametrize("name", ["rle", "null-suppression", "lzw",
                                      "png", "jpeg2000", "adaptive-lz"])
    def test_comparison_codecs_are_not_store_codecs(self, name):
        with pytest.raises(CodecError, match=name):
            get_codec(name)


class TestByteHelpers:
    def test_lz_bytes_roundtrip(self):
        blob = b"versioned arrays" * 100
        assert unlz_bytes(lz_bytes(blob)) == blob

    def test_corrupt_stream_rejected(self):
        with pytest.raises(CodecError):
            unlz_bytes(b"not a zlib stream")


class TestCorruptionHandling:
    def test_lz_corrupt_payload(self, rng):
        codec = LempelZivCodec()
        data = bytearray(
            codec.encode(rng.integers(0, 5, size=100).astype(np.int32)))
        data[-10:] = b"\x00" * 10
        with pytest.raises(CodecError):
            codec.decode(bytes(data))

    def test_invalid_zlib_level(self):
        with pytest.raises(CodecError):
            LempelZivCodec(level=0)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), codec_name=st.sampled_from(["none", "lz"]))
def test_roundtrip_property(data, codec_name):
    codec = get_codec(codec_name)
    dtype = data.draw(st.sampled_from([np.uint8, np.int32, np.float64]))
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=12))
    elements = (
        st.floats(allow_nan=False, width=64)
        if np.dtype(dtype).kind == "f"
        else st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max)
    )
    array = data.draw(hnp.arrays(dtype, shape, elements=elements))
    out = codec.decode(codec.encode(array))
    assert out.tobytes() == array.tobytes()
    assert out.shape == array.shape
