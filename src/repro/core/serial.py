"""Tiny self-describing binary headers shared by all codecs.

Every codec in this library produces byte strings that can be decoded
without out-of-band information: the byte string begins with a header
recording the original dtype and shape, followed by codec-specific
sections.  This module centralizes that header format so that all codecs
agree and the chunk store can remain a dumb byte container.

Header layout (little endian)::

    u8   dtype-string length L
    L    dtype string (numpy ``dtype.str``, e.g. ``<f8``)
    u8   ndim
    i64  shape[0] ... shape[ndim-1]
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.errors import CodecError

_U8 = struct.Struct("<B")
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")


def pack_array_header(dtype: np.dtype, shape: tuple[int, ...]) -> bytes:
    """Serialize a dtype + shape header."""
    dtype_str = np.dtype(dtype).str.encode("ascii")
    if len(dtype_str) > 255:
        raise CodecError("dtype string too long")
    if len(shape) > 255:
        raise CodecError("too many dimensions")
    parts = [_U8.pack(len(dtype_str)), dtype_str, _U8.pack(len(shape))]
    parts.extend(_I64.pack(int(extent)) for extent in shape)
    return b"".join(parts)


def unpack_array_header(data: bytes, offset: int = 0
                        ) -> tuple[np.dtype, tuple[int, ...], int]:
    """Parse a header; returns ``(dtype, shape, next_offset)``."""
    try:
        (dtype_len,) = _U8.unpack_from(data, offset)
        offset += _U8.size
        # bytes() materializes only the tiny dtype string, so ``data``
        # may be a memoryview (the codecs' zero-copy read path).
        dtype = np.dtype(
            bytes(data[offset:offset + dtype_len]).decode("ascii"))
        offset += dtype_len
        (ndim,) = _U8.unpack_from(data, offset)
        offset += _U8.size
        shape = []
        for _ in range(ndim):
            (extent,) = _I64.unpack_from(data, offset)
            offset += _I64.size
            shape.append(extent)
    except (struct.error, ValueError, TypeError, SyntaxError) as exc:
        # np.dtype() on corrupt bytes fails in every one of these ways
        # (comma strings even reach ast.literal_eval).
        raise CodecError(f"corrupt array header: {exc}") from exc
    return dtype, tuple(shape), offset


def pack_bytes(blob: bytes) -> bytes:
    """Length-prefix a byte string (u32 length)."""
    if len(blob) > 0xFFFFFFFF:
        raise CodecError("blob too large for u32 length prefix")
    return _U32.pack(len(blob)) + blob


def unpack_bytes(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Inverse of :func:`pack_bytes`; returns ``(blob, next_offset)``."""
    try:
        (length,) = _U32.unpack_from(data, offset)
    except struct.error as exc:
        raise CodecError(f"corrupt length prefix: {exc}") from exc
    offset += _U32.size
    blob = data[offset:offset + length]
    if len(blob) != length:
        raise CodecError(
            f"truncated blob: expected {length} bytes, got {len(blob)}")
    return blob, offset + length


def pack_u8(value: int) -> bytes:
    """Serialize one unsigned byte."""
    return _U8.pack(value)


def unpack_u8(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Parse one unsigned byte; returns ``(value, next_offset)``."""
    try:
        (value,) = _U8.unpack_from(data, offset)
    except struct.error as exc:
        raise CodecError(f"corrupt u8 field: {exc}") from exc
    return value, offset + _U8.size


def pack_i64(value: int) -> bytes:
    """Serialize one signed 64-bit integer."""
    return _I64.pack(value)


def unpack_i64(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Parse one signed 64-bit integer; returns ``(value, next_offset)``."""
    try:
        (value,) = _I64.unpack_from(data, offset)
    except struct.error as exc:
        raise CodecError(f"corrupt i64 field: {exc}") from exc
    return value, offset + _I64.size
