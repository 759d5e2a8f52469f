"""Round-trip and behaviour tests for Table I's comparison differs: the
MPEG-2-like block matcher and the BSDiff-style binary differ."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_cases import (
    DeltaBackwardRoundTrips,
    DeltaForwardRoundTrips,
    check_corrupt_decode_forward,
)
from repro.baselines import BSDiffDeltaCodec, MPEGLikeDeltaCodec, suffix_array
from repro.core import native
from repro.delta import HybridDeltaCodec

CODECS = [MPEGLikeDeltaCodec(block=8, radius=2), BSDiffDeltaCodec()]


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
class TestForwardRoundTrip(DeltaForwardRoundTrips):
    pass


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
class TestBackwardRoundTrip(DeltaBackwardRoundTrips):
    pass


class TestSizes:
    def test_mpeg_detects_shift(self, rng):
        # A pure translation must produce a much smaller residual with
        # motion compensation than with the plain hybrid delta.
        base = rng.integers(0, 255, size=(64, 64)).astype(np.uint8)
        target = np.roll(base, shift=(3, 2), axis=(0, 1))
        mpeg = MPEGLikeDeltaCodec(block=16, radius=4)
        hybrid = HybridDeltaCodec()
        mpeg_size = len(mpeg.encode(target, base))
        hybrid_size = len(hybrid.encode(target, base))
        assert mpeg_size < hybrid_size / 4
        out = mpeg.decode_forward(mpeg.encode(target, base), base)
        assert out.tobytes() == target.tobytes()

    def test_bsdiff_compresses_mostly_equal_bytes(self, rng):
        base = rng.integers(0, 255, size=4096).astype(np.uint8)
        target = base.copy()
        target[100:120] += 1
        size = len(BSDiffDeltaCodec().encode(target, base))
        assert size < base.nbytes / 4


class TestSuffixArray:
    def test_small_known(self):
        data = np.frombuffer(b"banana", dtype=np.uint8)
        sa = suffix_array(data)
        suffixes = [bytes(data[i:]).decode() for i in sa]
        assert suffixes == sorted("banana"[i:] for i in range(6))

    def test_empty(self):
        assert suffix_array(np.zeros(0, dtype=np.uint8)).size == 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(min_size=1, max_size=200))
    def test_sorted_property(self, data):
        array = np.frombuffer(data, dtype=np.uint8)
        sa = suffix_array(array)
        suffixes = [data[i:] for i in sa]
        assert suffixes == sorted(data[i:] for i in range(len(data)))


@pytest.mark.parametrize("kernels", [True, False],
                         ids=["native", "numpy"])
@pytest.mark.parametrize("dtype", [np.int32, np.float32], ids=str)
@pytest.mark.parametrize("codec", [MPEGLikeDeltaCodec(), BSDiffDeltaCodec()],
                         ids=lambda c: c.name)
def test_corrupt_payloads(codec, dtype, kernels, rng):
    """Only a typed error escapes a corrupt payload; mpeg-like unpacks
    its motion vectors and residual through the bit-pack kernels."""
    with contextlib.nullcontext() if kernels else native.disabled():
        check_corrupt_decode_forward(codec, dtype, rng, trials=40)
