"""Adaptive compression: enable LZ only where it pays.

Table IV's discussion: "These results suggest that it might be
interesting to adaptively enable LZ compression based on the data set
size and the anticipated compression ratios; we leave this to future
work."  This codec implements that future work:

* payloads smaller than ``min_bytes`` are stored raw — at small sizes
  decompression CPU dominates any I/O savings (the Table VII effect
  where "uncompressed access was the most efficient");
* otherwise the LZ ratio is *anticipated* from a prefix sample of the
  raw bytes; only when the predicted ratio beats ``min_ratio`` is the
  whole payload compressed, and the final encoding keeps whichever
  representation actually turned out smaller.

Each payload carries a one-byte tag so decoding is self-describing.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.compression.base import Codec
from repro.core.errors import CodecError
from repro.core.serial import (
    pack_array_header,
    pack_u8,
    unpack_array_header,
    unpack_u8,
)

_RAW = 0
_LZ = 1


class AdaptiveLZCodec(Codec):
    """LZ that turns itself off when it would not help."""

    name = "adaptive-lz"

    def __init__(self, *, min_bytes: int = 4096,
                 sample_bytes: int = 8192,
                 min_ratio: float = 0.9,
                 level: int = 6):
        if min_bytes < 0 or sample_bytes <= 0:
            raise CodecError("thresholds must be positive")
        if not 0 < min_ratio <= 1:
            raise CodecError("min_ratio must be in (0, 1]")
        self.min_bytes = min_bytes
        self.sample_bytes = sample_bytes
        self.min_ratio = min_ratio
        self.level = level

    # ------------------------------------------------------------------
    def anticipated_ratio(self, raw: bytes) -> float:
        """Predicted compressed/raw ratio from a prefix sample."""
        sample = raw[:self.sample_bytes]
        if not sample:
            return 1.0
        return len(zlib.compress(sample, self.level)) / len(sample)

    def encode(self, array: np.ndarray) -> bytes:
        array = np.ascontiguousarray(array)
        header = pack_array_header(array.dtype, array.shape)
        raw = array.tobytes()

        use_lz = len(raw) >= self.min_bytes and \
            self.anticipated_ratio(raw) <= self.min_ratio
        if use_lz:
            compressed = zlib.compress(raw, self.level)
            # Keep whichever representation actually won.
            if len(compressed) < len(raw):
                return header + pack_u8(_LZ) + compressed
        return header + pack_u8(_RAW) + raw

    def decode(self, data: bytes) -> np.ndarray:
        dtype, shape, offset = unpack_array_header(data)
        tag, offset = unpack_u8(data, offset)
        payload = data[offset:]
        if tag == _LZ:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as exc:
                raise CodecError(f"adaptive-lz stream corrupt: {exc}") \
                    from exc
        elif tag != _RAW:
            raise CodecError(f"unknown adaptive-lz tag {tag}")
        count = int(np.prod(shape)) if shape else 1
        flat = np.frombuffer(payload, dtype=dtype, count=count)
        return flat.reshape(shape).copy()
