"""Lempel-Ziv compression.

The paper's LZ codec (Ziv & Lempel 1977, reference [7]) "compresses by
accumulating a dictionary of known patterns".  We expose the DEFLATE
implementation from the standard library (LZ77 + Huffman), which is the
same family of algorithm the SciDB compression library used, wrapped so
that the output is self-describing.

On-disk layout::

    array header (dtype, shape)
    u8   zlib level
    zlib-compressed raw cell bytes
"""

from __future__ import annotations

import math
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


class LempelZivCodec(Codec):
    """LZ77/DEFLATE over the raw row-major cell bytes."""

    name = "lz"

    def __init__(self, level: int = 6):
        if not 1 <= level <= 9:
            raise CodecError(f"zlib level must be in [1, 9], got {level}")
        self.level = level

    def encode(self, array: np.ndarray) -> bytes:
        array = np.ascontiguousarray(array)
        header = pack_array_header(array.dtype, array.shape)
        compressed = zlib.compress(array.tobytes(), self.level)
        return header + pack_u8(self.level) + compressed

    def decode(self, data: bytes) -> np.ndarray:
        dtype, shape, offset = unpack_array_header(data)
        _level, offset = unpack_u8(data, offset)
        try:
            raw = zlib.decompress(data[offset:])
        except zlib.error as exc:
            raise CodecError(f"LZ stream corrupt: {exc}") from exc
        try:
            flat = np.frombuffer(raw, dtype=dtype, count=math.prod(shape))
            return flat.reshape(shape).copy()
        except (ValueError, OverflowError) as exc:
            raise CodecError(f"corrupt array payload: {exc}") from exc


def lz_bytes(blob: bytes, level: int = 6) -> bytes:
    """Compress an opaque byte string (used by the storage layer)."""
    return zlib.compress(blob, level)


def unlz_bytes(blob) -> bytes:
    """Inverse of :func:`lz_bytes`; accepts any bytes-like buffer.

    Strict about stream length: a truncated stream and trailing bytes
    after the stream's end both raise (one-shot ``zlib.decompress``
    would silently ignore the latter), so addressing bugs in the
    storage layer surface instead of vanishing."""
    decomp = zlib.decompressobj()
    try:
        out = decomp.decompress(blob) + decomp.flush()
    except zlib.error as exc:
        raise CodecError(f"LZ stream corrupt: {exc}") from exc
    if not decomp.eof:
        raise CodecError("LZ stream corrupt: truncated stream")
    if decomp.unused_data:
        raise CodecError(f"LZ stream has {len(decomp.unused_data)} "
                         "trailing bytes")
    return out
