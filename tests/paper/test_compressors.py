"""Round-trip and behaviour tests for Table II's comparison codecs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codec_cases import CompressorRoundTrips
from paper.baselines import (
    JPEG2000LikeCodec,
    NullSuppressionCodec,
    PNGLikeCodec,
    RunLengthCodec,
)
from repro.compression import LempelZivCodec
from repro.core.errors import CodecError

CODECS = [
    RunLengthCodec(),
    NullSuppressionCodec(),
    PNGLikeCodec(),
    JPEG2000LikeCodec(),
]


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
class TestRoundTripAllCodecs(CompressorRoundTrips):
    pass


class TestCompressionEffectiveness:
    """Codecs must actually compress the data they were designed for."""

    def test_rle_crushes_runs(self):
        array = np.repeat(np.arange(10, dtype=np.int64), 1000)
        codec = RunLengthCodec()
        assert len(codec.encode(array)) < array.nbytes / 50

    def test_null_suppression_crushes_small_ints(self, rng):
        array = rng.integers(0, 100, size=5000).astype(np.int64)
        codec = NullSuppressionCodec()
        assert len(codec.encode(array)) < array.nbytes / 3

    def test_png_beats_plain_lz_on_gradients(self):
        # Smooth gradients are exactly what the filters decorrelate.
        gradient = np.add.outer(np.arange(128), np.arange(128)) \
            .astype(np.uint8)
        png_size = len(PNGLikeCodec().encode(gradient))
        lz_size = len(LempelZivCodec().encode(gradient))
        assert png_size <= lz_size

    def test_wavelet_crushes_smooth_integers(self):
        x = np.linspace(0, 8 * np.pi, 256)
        smooth = (1000 * np.sin(x)[None, :] * np.sin(x)[:, None]) \
            .astype(np.int32)
        codec = JPEG2000LikeCodec()
        assert len(codec.encode(smooth)) < smooth.nbytes / 2


class TestCorruptionHandling:
    def test_rle_truncated(self, rng):
        codec = RunLengthCodec()
        data = codec.encode(rng.integers(0, 5, size=100).astype(np.int32))
        with pytest.raises(CodecError):
            codec.decode(data[:8])

    def test_invalid_zlib_level(self):
        with pytest.raises(CodecError):
            PNGLikeCodec(level=10)

    def test_invalid_wavelet_levels(self):
        with pytest.raises(CodecError):
            JPEG2000LikeCodec(levels=0)


@settings(max_examples=25, deadline=None)
@given(data=st.data(),
       codec=st.sampled_from([RunLengthCodec(), PNGLikeCodec(),
                              JPEG2000LikeCodec(), NullSuppressionCodec()]))
def test_roundtrip_property(data, codec):
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
