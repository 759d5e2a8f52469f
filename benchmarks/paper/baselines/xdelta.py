"""A block-hash binary delta (the xdelta family).

Both Subversion and Git encode file history with generic binary deltas
of this family: index the base at fixed block boundaries by hash, scan
the target greedily, and emit copy/literal instructions.  This
implementation is shared by the :mod:`paper.baselines.svn_like` and
:mod:`paper.baselines.git_like` repositories so that the comparison
systems of Tables VI/VII have a competent, realistic delta engine — the
point of those tables is not that generic VCS deltas are naive, but that
they are *array-oblivious*.

Stream format (zlib-compressed): a sequence of ``(opcode, a, b)`` i64
triples — COPY(base offset, length) or LITERAL(length) followed by the
literal bytes collected in a trailing section.
"""

from __future__ import annotations

import numpy as np

from repro.compression.lz import lz_bytes, unlz_bytes
from repro.core.errors import CodecError
from repro.core.serial import pack_bytes, pack_i64, unpack_bytes, unpack_i64

_COPY = 0
_LITERAL = 1
DEFAULT_BLOCK = 16


def xdelta_encode(target: bytes, base: bytes,
                  block: int = DEFAULT_BLOCK) -> bytes:
    """Encode ``target`` as copy/literal ops against ``base``."""
    index: dict[bytes, int] = {}
    for position in range(0, max(0, len(base) - block + 1), block):
        index.setdefault(base[position:position + block], position)

    ops: list[tuple[int, int, int]] = []
    literals = bytearray()
    literal_run = 0
    scan = 0
    n = len(target)
    base_view = np.frombuffer(base, dtype=np.uint8)
    target_view = np.frombuffer(target, dtype=np.uint8)

    def flush_literal():
        nonlocal literal_run
        if literal_run:
            ops.append((_LITERAL, literal_run, 0))
            literal_run = 0

    while scan < n:
        probe = target[scan:scan + block]
        position = index.get(probe) if len(probe) == block else None
        if position is None:
            literals.append(target[scan])
            literal_run += 1
            scan += 1
            continue
        # Extend the match forward as far as bytes agree.
        limit = min(n - scan, len(base) - position)
        window_t = target_view[scan:scan + limit]
        window_b = base_view[position:position + limit]
        mismatch = np.flatnonzero(window_t != window_b)
        length = int(mismatch[0]) if mismatch.size else limit
        if length < block:
            literals.append(target[scan])
            literal_run += 1
            scan += 1
            continue
        flush_literal()
        ops.append((_COPY, position, length))
        scan += length
    flush_literal()

    stream = b"".join(pack_i64(op) + pack_i64(a) + pack_i64(b)
                      for op, a, b in ops)
    return pack_bytes(lz_bytes(stream)) + pack_bytes(lz_bytes(bytes(literals)))


def xdelta_decode(data: bytes, base: bytes) -> bytes:
    """Inverse of :func:`xdelta_encode`."""
    stream_blob, offset = unpack_bytes(data, 0)
    literal_blob, _ = unpack_bytes(data, offset)
    stream = unlz_bytes(stream_blob)
    literals = unlz_bytes(literal_blob)

    output = bytearray()
    literal_at = 0
    position = 0
    while position < len(stream):
        opcode, position = unpack_i64(stream, position)
        a, position = unpack_i64(stream, position)
        b, position = unpack_i64(stream, position)
        if opcode == _COPY:
            if a < 0 or a + b > len(base):
                raise CodecError("xdelta copy outside base bounds")
            output.extend(base[a:a + b])
        elif opcode == _LITERAL:
            output.extend(literals[literal_at:literal_at + a])
            literal_at += a
        else:
            raise CodecError(f"unknown xdelta opcode {opcode}")
    return bytes(output)
