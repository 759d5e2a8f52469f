"""Micro-benchmarks: codec encode/decode throughput on NOAA chunks.

Unlike the table experiments (single-shot macro runs), these use
pytest-benchmark's statistical timing across rounds — the numbers behind
Table I/II's per-algorithm costs at the single-chunk granularity the
storage manager actually operates on.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    AdaptiveLZCodec,
    NullSuppressionCodec,
    PNGLikeCodec,
    RunLengthCodec,
)
from repro.compression import IdentityCodec, LempelZivCodec
from repro.datasets import noaa_series
from repro.delta import get_delta_codec


@pytest.fixture(scope="module")
def chunk_pair():
    frames = noaa_series(2, shape=(128, 128))["humidity"]
    return frames[1], frames[0]


@pytest.mark.parametrize("codec_name",
                         ["dense", "sparse", "hybrid", "hybrid+lz"])
def bench_delta_encode(benchmark, chunk_pair, codec_name):
    target, base = chunk_pair
    codec = get_delta_codec(codec_name)
    blob = benchmark(codec.encode, target, base)
    assert codec.decode_forward(blob, base).tobytes() == target.tobytes()


@pytest.mark.parametrize("codec_name",
                         ["dense", "sparse", "hybrid", "hybrid+lz"])
def bench_delta_decode(benchmark, chunk_pair, codec_name):
    target, base = chunk_pair
    codec = get_delta_codec(codec_name)
    blob = codec.encode(target, base)
    out = benchmark(codec.decode_forward, blob, base)
    assert out.tobytes() == target.tobytes()


@pytest.mark.parametrize("codec",
                         [IdentityCodec(), LempelZivCodec(),
                          AdaptiveLZCodec(), RunLengthCodec(),
                          NullSuppressionCodec(), PNGLikeCodec()],
                         ids=lambda codec: codec.name)
def bench_compression_encode(benchmark, chunk_pair, codec):
    target, _ = chunk_pair
    blob = benchmark(codec.encode, target)
    assert codec.decode(blob).tobytes() == target.tobytes()


@pytest.mark.parametrize("codec",
                         [IdentityCodec(), LempelZivCodec(),
                          AdaptiveLZCodec()],
                         ids=lambda codec: codec.name)
def bench_compression_decode(benchmark, chunk_pair, codec):
    target, _ = chunk_pair
    blob = codec.encode(target)
    out = benchmark(codec.decode, blob)
    assert out.tobytes() == target.tobytes()
