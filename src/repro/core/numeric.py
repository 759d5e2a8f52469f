"""Lossless numeric differencing for arbitrary cell types.

The paper defines a delta as "the cell-wise difference between two
versions" (Section III-B.3).  For integer attributes the arithmetic
difference is exact and reversible in both directions ("our system can
reconstruct the versions in both directions, by adding or subtracting the
delta").  For floating point attributes the arithmetic difference is *not*
lossless (catastrophic cancellation / rounding), so we difference the IEEE
bit patterns with XOR instead — similar floats share sign, exponent and
high mantissa bits, so the XOR of close values is a small unsigned code,
and XOR is its own inverse, which preserves the bidirectional property.

The two strategies are tagged so a stored delta knows how to invert
itself:

* ``ARITHMETIC`` — ``delta = a - b`` as wrap-around int64;
  ``a = b + delta``; ``b = a - delta``.
* ``XOR`` — ``delta = bits(a) ^ bits(b)`` as uint64;
  either side is recovered by XORing the delta with the other.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import CodecError, DeltaShapeMismatchError

ARITHMETIC = "arith"
XOR = "xor"

#: Map a float dtype onto the same-width unsigned dtype for bit casting.
_FLOAT_TO_UINT = {
    np.dtype(np.float16): np.dtype(np.uint16),
    np.dtype(np.float32): np.dtype(np.uint32),
    np.dtype(np.float64): np.dtype(np.uint64),
}


def delta_mode_for(dtype: np.dtype) -> str:
    """The differencing strategy used for a cell dtype."""
    dtype = np.dtype(dtype)
    if dtype.kind in ("i", "u", "b"):
        return ARITHMETIC
    if dtype in _FLOAT_TO_UINT:
        return XOR
    raise CodecError(f"unsupported cell dtype {dtype}")


def check_same_layout(a: np.ndarray, b: np.ndarray) -> None:
    """Deltas are only defined between arrays of identical shape and dtype."""
    if a.shape != b.shape:
        raise DeltaShapeMismatchError(
            f"shape mismatch: {a.shape} vs {b.shape}")
    if a.dtype != b.dtype:
        raise DeltaShapeMismatchError(
            f"dtype mismatch: {a.dtype} vs {b.dtype}")


def compute_delta(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, str]:
    """Cell-wise difference of ``a`` against base ``b``.

    Returns ``(delta, mode)`` where ``delta`` is int64 (ARITHMETIC) or
    uint64 (XOR), flattened to the input shape, and identical inputs give
    an all-zero delta regardless of mode.
    """
    check_same_layout(a, b)
    mode = delta_mode_for(a.dtype)
    if mode == ARITHMETIC:
        with np.errstate(over="ignore"):
            delta = (a.astype(np.int64, copy=False)
                     - b.astype(np.int64, copy=False))
        return delta, mode
    # _bits_of promotes 0-d inputs to shape (1,); restore the shape.
    return (_bits_of(a) ^ _bits_of(b)).reshape(a.shape), mode


def apply_delta_forward(base: np.ndarray, delta: np.ndarray,
                        mode: str, dtype: np.dtype) -> np.ndarray:
    """Recover ``a`` from ``b`` (= ``base``) and ``delta = diff(a, b)``."""
    dtype = np.dtype(dtype)
    if mode == ARITHMETIC:
        with np.errstate(over="ignore"):
            result = base.astype(np.int64, copy=False) + delta
        return _wrap_to(result, dtype, copy=False)
    if mode == XOR:
        bits = _bits_of(base) ^ delta.astype(np.uint64, copy=False)
        return _bits_to_float(bits, dtype)
    raise CodecError(f"unknown delta mode {mode!r}")


def apply_delta_backward(derived: np.ndarray, delta: np.ndarray,
                         mode: str, dtype: np.dtype) -> np.ndarray:
    """Recover ``b`` from ``a`` (= ``derived``) and ``delta = diff(a, b)``.

    This is what lets the optimizer treat layout graphs as undirected:
    a stored delta can be "unwound" from either endpoint.
    """
    dtype = np.dtype(dtype)
    if mode == ARITHMETIC:
        with np.errstate(over="ignore"):
            result = derived.astype(np.int64, copy=False) - delta
        return _wrap_to(result, dtype, copy=False)
    if mode == XOR:
        # XOR is an involution: forward and backward application coincide.
        return apply_delta_forward(derived, delta, mode, dtype)
    raise CodecError(f"unknown delta mode {mode!r}")


#: Accumulator dtype per delta mode: ARITHMETIC sums wrap in int64
#: (mod 2**64, exactly the group the per-level deltas live in), XOR
#: folds in uint64.  Both operations are associative and commutative,
#: which is what lets a chain of k deltas collapse into one apply.
_ACCUMULATOR_DTYPES = {ARITHMETIC: np.dtype(np.int64),
                       XOR: np.dtype(np.uint64)}


def accumulator_dtype(mode: str) -> np.dtype:
    """The dtype a fused-chain accumulator uses for a delta mode."""
    try:
        return _ACCUMULATOR_DTYPES[mode]
    except KeyError:
        raise CodecError(f"unknown delta mode {mode!r}") from None


def delta_accumulator(mode: str, count: int) -> np.ndarray:
    """A zeroed flat accumulator for fused delta-chain composition.

    Zero is the identity of both compose operations (wrapping add and
    xor), so a fresh accumulator folded with any number of level
    deltas holds exactly their composition.
    """
    return np.zeros(count, dtype=accumulator_dtype(mode))


def _bits_of(values: np.ndarray) -> np.ndarray:
    """uint64 view of a float array's IEEE bit patterns (widened)."""
    dtype = np.dtype(values.dtype)
    if dtype not in _FLOAT_TO_UINT:
        raise CodecError(f"not a supported float dtype: {dtype}")
    uint_dtype = _FLOAT_TO_UINT[dtype]
    return np.ascontiguousarray(values).view(uint_dtype).astype(np.uint64)


def _bits_to_float(bits: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`_bits_of`.

    ``bits`` is always a freshly-computed xor image here, so the
    already-64-bit case may reinterpret it in place instead of
    copying.
    """
    uint_dtype = _FLOAT_TO_UINT[np.dtype(dtype)]
    narrowed = bits.astype(uint_dtype, copy=False)
    return narrowed.view(dtype)


def _wrap_to(values_int64: np.ndarray, dtype: np.dtype, *,
             copy: bool = True) -> np.ndarray:
    """Wrap int64 arithmetic results back into a narrower integer dtype.

    ``copy=False`` lets an already-int64 result pass through untouched;
    callers use it only on buffers they own (a narrower dtype always
    allocates regardless).
    """
    with np.errstate(over="ignore"):
        return values_int64.astype(dtype, copy=copy)
