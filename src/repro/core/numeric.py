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

from repro.core import native
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
                        mode: str, dtype: np.dtype, *,
                        reuse_delta: bool = False) -> np.ndarray:
    """Recover ``a`` from ``b`` (= ``base``) and ``delta = diff(a, b)``.

    ``reuse_delta=True`` declares that the caller owns ``delta`` and
    never reads it again, so the apply may run in place on its buffer
    (the fused chain path hands over its composed accumulator this
    way: the apply then allocates nothing, and the compiled add kernel
    takes it when the layout fits).  The returned bytes are identical
    either way.
    """
    dtype = np.dtype(dtype)
    if mode == ARITHMETIC:
        base64 = base.astype(np.int64, copy=False)
        if reuse_delta and isinstance(delta, np.ndarray) \
                and delta.dtype == np.int64 and delta.flags.writeable:
            # Contiguity first: reshape(-1) of a non-contiguous array
            # would hand the kernel a *copy* to write into.
            if not (base64.shape == delta.shape
                    and base64.flags.c_contiguous
                    and delta.flags.c_contiguous
                    and native.apply_add64(base64.reshape(-1),
                                           delta.reshape(-1))):
                with np.errstate(over="ignore"):
                    np.add(base64, delta, out=delta)
            result = delta
        else:
            with np.errstate(over="ignore"):
                result = base64 + delta
        # ``result`` is freshly allocated or caller-ceded either way,
        # so the no-op wrap (dtype already int64) can skip its copy.
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


def seeded_accumulator(base: np.ndarray, mode: str) -> np.ndarray:
    """A fused-chain accumulator pre-loaded with ``base``'s cells.

    For chains whose every level scatters, seeding the accumulator
    with the widened root means the O(nnz) scatters land directly on
    the reconstructed cells — the final full-array apply (and the
    zeroed canvas it needs) disappears entirely.  Exact because a
    scatter into ``root + 0`` is the same wrapping-add/xor group as
    ``root + (0 + delta)``.  Finish with :func:`finalize_seeded`.
    """
    if mode == ARITHMETIC:
        if (base.dtype == np.int64 and base.flags.c_contiguous
                and not base.flags.aligned):
            # Zero-copy roots are views into a framed payload whose
            # header skews 8-byte alignment; element-wise astype of a
            # misaligned source is slow, a byte-level copy is not.
            return base.reshape(-1).view(np.uint8).copy().view(np.int64)
        with np.errstate(over="ignore"):
            return base.astype(np.int64).reshape(-1)
    if mode == XOR:
        return _bits_of(base).reshape(-1)
    raise CodecError(f"unknown delta mode {mode!r}")


def finalize_seeded(accumulator: np.ndarray, mode: str,
                    dtype: np.dtype, shape: tuple[int, ...]
                    ) -> np.ndarray:
    """The reconstructed version held by a seeded accumulator.

    The inverse widening of :func:`seeded_accumulator`: wrap (or
    reinterpret) the 64-bit cells back into the attribute dtype.  The
    accumulator is consumed — for 64-bit dtypes the result shares its
    buffer.
    """
    if mode == ARITHMETIC:
        return _wrap_to(accumulator.reshape(shape), np.dtype(dtype),
                        copy=False)
    if mode == XOR:
        return _bits_to_float(accumulator.reshape(shape), dtype)
    raise CodecError(f"unknown delta mode {mode!r}")


def accumulate_delta(accumulator: np.ndarray, delta: np.ndarray,
                     mode: str) -> None:
    """Fold one dense level delta into ``accumulator`` in place.

    The ``out=`` form is the point: a k-level fused read reuses one
    accumulator buffer instead of allocating k intermediate arrays.
    ARITHMETIC wraps mod 2**64 — the same group :func:`compute_delta`
    produced the per-level deltas in, so the fused sum telescopes to
    exactly the stepwise result for every integer dtype.
    """
    if mode == ARITHMETIC:
        with np.errstate(over="ignore"):
            np.add(accumulator, delta, out=accumulator)
    elif mode == XOR:
        np.bitwise_xor(accumulator, delta, out=accumulator)
    else:
        raise CodecError(f"unknown delta mode {mode!r}")


def scatter_delta(accumulator: np.ndarray, positions: np.ndarray,
                  delta: np.ndarray, mode: str) -> None:
    """Fold a sparse level delta — ``delta[i]`` at ``positions[i]`` —
    into ``accumulator`` in place, at O(nnz) for the level.

    Positions within one level are unique (they come from a
    ``flatnonzero`` over that level's codes), so fancy-indexed in-place
    ops are exact — no ``ufunc.at`` needed.  The compiled scatter
    kernel takes the call when the layout fits; being a sequential
    loop it is additionally exact under duplicates, which only
    :func:`scatter_delta_batch` relies on.
    """
    if mode == ARITHMETIC:
        if native.scatter_add(accumulator, positions, delta):
            return
        with np.errstate(over="ignore"):
            accumulator[positions] += delta
    elif mode == XOR:
        if native.scatter_xor(accumulator, positions, delta):
            return
        accumulator[positions] ^= delta
    else:
        raise CodecError(f"unknown delta mode {mode!r}")


def scatter_delta_batch(accumulator: np.ndarray,
                        parts: list[tuple[np.ndarray, np.ndarray]],
                        mode: str) -> None:
    """Fold several scatter levels — ``(positions, delta)`` pairs, one
    per level — into ``accumulator`` in place.

    Positions may repeat *across* levels (the same cell touched at
    several chain depths), so the concatenated pair list is only
    handed to the compiled kernel, whose sequential loop accumulates
    duplicates exactly like consecutive per-level scatters.  Without
    the kernel each level scatters separately — numpy fancy indexing
    would silently drop duplicate contributions if batched.  Both
    orders compose the same values (wrapping add and xor are
    associative and commutative), so the result is byte-identical.
    """
    if len(parts) > 1 and native.available():
        positions = np.concatenate([index for index, _ in parts])
        delta = np.concatenate([delta for _, delta in parts])
        scattered = native.scatter_add(accumulator, positions, delta) \
            if mode == ARITHMETIC \
            else native.scatter_xor(accumulator, positions, delta)
        if scattered:
            return
    for positions, delta in parts:
        scatter_delta(accumulator, positions, delta, mode)


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
