"""Chunk compression (Section III-B.2).

The store compresses materialized chunks with one of two codecs: none,
or Lempel-Ziv, the winner of Table II.  Both are lossless for every
supported dtype.  The other codecs the paper evaluates — run-length
encoding, null suppression, the PNG-like and JPEG2000-like codecs
and adaptive LZ — are comparison baselines in
``benchmarks/paper/baselines/``, outside the package.
"""

from repro.compression.base import Codec, IdentityCodec
from repro.compression.lz import LempelZivCodec, lz_bytes, unlz_bytes
from repro.compression.registry import codec_names, get_codec

__all__ = [
    "Codec",
    "IdentityCodec",
    "LempelZivCodec",
    "codec_names",
    "get_codec",
    "lz_bytes",
    "unlz_bytes",
]
