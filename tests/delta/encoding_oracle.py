"""The paper's "try both" encoding decision, kept as a test oracle.

Section III-B.3: "Disk space usage is calculated by trying both methods
and choosing the more economical one."  This is that sentence as code —
fully encode the materialized representation *and* every candidate
delta codec, keep the smallest — exactly as the store's write path ran
it before the single-pass planner replaced it.  Every loser's payload
is thrown away and each candidate recomputes the same delta and width
statistics, which is why it left ``src/``; it stays here as the
reference :func:`repro.delta.auto.plan_encoding` must equal, winner,
size and payload bytes.

The oracle shares *no* encode-side code with the planner: the three
code-array strategies are re-derived here by :func:`reference_encode`
the way the seed wrote them — ``compute_delta`` → zigzag, a **sorted**
code array searched per candidate width for the hybrid cost curve, and
boolean-mask splits — where ``src/`` reads everything off one width
histogram and one compiled split pass.  (``codec.encode_parts`` is now
the planner's own code, so calling it here would compare the planner
with itself.)  Only the leaf bit-packer and the frame serializers are
shared.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, IdentityCodec
from repro.compression.lz import lz_bytes
from repro.core import bitpack, numeric
from repro.core.serial import pack_array_header, pack_i64, pack_u8
from repro.delta.auto import EncodingDecision, default_delta_candidates
from repro.delta.base import DeltaCodec

_UINT64_MAX = np.uint64(np.iinfo(np.uint64).max)


def reference_codes(target: np.ndarray, base: np.ndarray
                    ) -> tuple[np.ndarray, str]:
    """The flat unsigned code array of ``target - base`` and its mode."""
    delta, mode = numeric.compute_delta(target, base)
    if mode == numeric.ARITHMETIC:
        return bitpack.zigzag_encode(delta.ravel()), mode
    return np.ascontiguousarray(delta, dtype=np.uint64).ravel(), mode


def split_costs(codes: np.ndarray) -> np.ndarray:
    """Sort-based hybrid cost of every candidate small width
    ``0..max_bits``: outliers(d) = codes >= 2**d, by binary search in
    the sorted array.  ``1 << 64`` wraps to 0, so the d = 64 entry
    counts every code as an outlier — the sentinel the histogram
    reproduces."""
    n = codes.size
    max_bits = bitpack.required_bits_for(codes)
    widths = np.arange(max_bits + 1)
    thresholds = np.minimum(np.uint64(1) << widths.astype(np.uint64),
                            _UINT64_MAX)
    outliers = n - np.searchsorted(np.sort(codes), thresholds,
                                   side="left")
    position_bits = bitpack.required_bits(max(0, n - 1))
    return ((n * widths + 7) // 8
            + (outliers * position_bits + 7) // 8
            + (outliers * max_bits + 7) // 8
            + 8 + 1 + 1 + 1)


def hybrid_size(codes: np.ndarray) -> int:
    """Bytes of the optimal hybrid split, by the sorted search."""
    return int(split_costs(codes).min())


def _masked_split(codes: np.ndarray, is_outlier: np.ndarray,
                  small_bits: int) -> list[bytes]:
    """Small section + outlier table, via mask / where / flatnonzero."""
    positions = np.flatnonzero(is_outlier)
    values = codes[positions]
    position_bits = bitpack.required_bits(max(0, codes.size - 1))
    value_bits = bitpack.required_bits_for(values)
    return [
        bitpack.pack_unsigned(np.where(is_outlier, np.uint64(0), codes),
                              small_bits),
        pack_i64(len(positions)),
        pack_u8(position_bits),
        pack_u8(value_bits),
        bitpack.pack_unsigned(positions, position_bits),
        bitpack.pack_unsigned(values, value_bits),
    ]


def reference_encode(name: str, target: np.ndarray,
                     base: np.ndarray) -> bytes:
    """The payload of code-array codec ``name`` (``dense``, ``sparse``,
    ``hybrid``, ``hybrid+lz``), derived independently of ``src/``'s
    plan → histogram → split-pack path."""
    codes, mode = reference_codes(target, base)
    frame = pack_array_header(target.dtype, target.shape) \
        + pack_u8({numeric.ARITHMETIC: 0, numeric.XOR: 1}[mode])
    if name == "dense":
        bits = bitpack.required_bits_for(codes)
        return frame + pack_u8(bits) + bitpack.pack_unsigned(codes, bits)
    if name == "sparse":
        return frame + b"".join(_masked_split(codes, codes != 0, 0)[1:])
    small_bits = int(np.argmin(split_costs(codes)))
    is_outlier = codes >= (np.uint64(1) << np.uint64(small_bits)) \
        if small_bits < 64 else np.zeros(codes.size, dtype=bool)
    packed = pack_u8(small_bits) + b"".join(
        _masked_split(codes, is_outlier, small_bits))
    if name == "hybrid+lz":
        return frame + pack_u8(1) + lz_bytes(packed)
    assert name == "hybrid", name
    return frame + pack_u8(0) + packed


_REFERENCE_ENCODED = ("dense", "sparse", "hybrid", "hybrid+lz")


def choose_encoding(target: np.ndarray, base: np.ndarray | None,
                    compressor: Codec | None = None,
                    candidates: tuple[DeltaCodec, ...] | None = None,
                    ) -> EncodingDecision:
    """Pick the cheapest representation of ``target`` (two-pass form).

    ``base`` is the version the optimizer proposes to delta against
    (None forces materialization).  ``compressor`` is applied to the
    materialized representation; delta payloads carry their own optional
    LZ stage.
    """
    compressor = compressor or IdentityCodec()
    materialized = compressor.encode(target)
    best = EncodingDecision(delta_codec=None, size=len(materialized),
                            parts=(materialized,))
    if base is None:
        return best

    for codec in candidates or default_delta_candidates():
        parts = [reference_encode(codec.name, target, base)] \
            if codec.name in _REFERENCE_ENCODED \
            else codec.encode_parts(target, base)
        size = sum(len(part) for part in parts)
        if size < best.size:
            best = EncodingDecision(delta_codec=codec.name,
                                    size=size, parts=tuple(parts))
    return best
