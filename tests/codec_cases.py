"""Round-trip and corrupt-payload cases shared by every codec's tests.

The store's codecs (``tests/compression``, ``tests/delta``) and the
paper's comparison codecs (``tests/baselines``) are held to the same
contract.  A test module runs a suite by subclassing it under a
``Test`` name, parametrized over its ``codec``s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    CodecError,
    DeltaShapeMismatchError,
    ReproError,
)
from repro.core.serial import unpack_array_header

DTYPES = [np.uint8, np.int16, np.int32, np.int64, np.float32, np.float64]


def sample_array(dtype, shape, rng):
    if np.dtype(dtype).kind == "f":
        return rng.normal(0, 100, size=shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=shape,
                        endpoint=True).astype(dtype)


def delta_pair(dtype, shape, rng, similarity=0.95):
    """Two versions that agree on ~similarity of their cells."""
    if np.dtype(dtype).kind == "f":
        base = rng.normal(0, 100, size=shape).astype(dtype)
        noise = rng.normal(0, 1, size=shape).astype(dtype)
    else:
        info = np.iinfo(dtype)
        lo, hi = max(info.min, -1000), min(info.max, 1000)
        base = rng.integers(lo, hi, size=shape).astype(dtype)
        noise = rng.integers(-3, 4, size=shape).astype(dtype)
    mask = rng.random(size=shape) > similarity
    with np.errstate(over="ignore"):
        target = np.where(mask, base + noise, base).astype(dtype)
    return target, base


def corruptions(rng, payload: bytes, trials: int):
    """Seeded hostile variants of ``payload``: truncations, single bit
    flips anywhere, and whole-byte smashes in the header region (frame,
    width bytes, the outlier count) — the fields that size things."""
    for _ in range(trials):
        yield payload[:int(rng.integers(0, len(payload)))]
        flipped = bytearray(payload)
        flipped[int(rng.integers(0, len(payload)))] ^= \
            1 << int(rng.integers(0, 8))
        yield bytes(flipped)
        smashed = bytearray(payload)
        smashed[int(rng.integers(0, min(48, len(payload))))] = \
            int(rng.integers(0, 256))
        yield bytes(smashed)


def frame_agrees(payload: bytes, base: np.ndarray) -> bool:
    try:
        dtype, shape, _ = unpack_array_header(payload)
    except CodecError:
        return False
    return (dtype, shape) == (base.dtype, base.shape)


class CompressorRoundTrips:
    """``decode(encode(a))`` is ``a``, bit for bit, for every dtype and
    shape."""

    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    def test_random_2d(self, codec, dtype, rng):
        array = sample_array(dtype, (13, 17), rng)
        out = codec.decode(codec.encode(array))
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert out.tobytes() == array.tobytes()

    def test_1d(self, codec, rng):
        array = sample_array(np.int32, (101,), rng)
        out = codec.decode(codec.encode(array))
        assert out.tobytes() == array.tobytes()

    def test_3d(self, codec, rng):
        array = sample_array(np.int16, (5, 7, 9), rng)
        out = codec.decode(codec.encode(array))
        assert out.tobytes() == array.tobytes()

    def test_constant_array(self, codec):
        array = np.full((20, 20), 42, dtype=np.int32)
        out = codec.decode(codec.encode(array))
        assert out.tobytes() == array.tobytes()

    def test_zeros(self, codec):
        array = np.zeros((16, 16), dtype=np.int64)
        out = codec.decode(codec.encode(array))
        assert out.tobytes() == array.tobytes()

    def test_single_cell(self, codec):
        array = np.array([[123.5]], dtype=np.float64)
        out = codec.decode(codec.encode(array))
        assert out.tobytes() == array.tobytes()

    def test_odd_extents(self, codec, rng):
        array = sample_array(np.int32, (3, 5), rng)
        out = codec.decode(codec.encode(array))
        assert out.tobytes() == array.tobytes()

    def test_nan_and_inf_bit_exact(self, codec):
        array = np.array([[np.nan, np.inf], [-np.inf, -0.0]],
                         dtype=np.float64)
        out = codec.decode(codec.encode(array))
        assert out.tobytes() == array.tobytes()

    def test_smooth_field(self, codec, smooth_field):
        out = codec.decode(codec.encode(smooth_field))
        assert out.tobytes() == smooth_field.tobytes()


class DeltaForwardRoundTrips:
    """``decode_forward(encode(t, b), b)`` is ``t``, bit for bit."""

    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    def test_similar_versions(self, codec, dtype, rng):
        target, base = delta_pair(dtype, (24, 32), rng)
        data = codec.encode(target, base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == target.tobytes()
        assert out.shape == target.shape
        assert out.dtype == target.dtype

    def test_identical_versions(self, codec, rng):
        base = rng.normal(0, 10, size=(16, 16)).astype(np.float32)
        data = codec.encode(base.copy(), base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == base.tobytes()

    def test_completely_different(self, codec, rng):
        target = rng.integers(0, 2**31, size=(8, 8)).astype(np.int32)
        base = rng.integers(0, 2**31, size=(8, 8)).astype(np.int32)
        data = codec.encode(target, base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == target.tobytes()

    def test_1d(self, codec, rng):
        target, base = delta_pair(np.int32, (100,), rng)
        data = codec.encode(target, base)
        assert codec.decode_forward(data, base).tobytes() == target.tobytes()

    def test_3d(self, codec, rng):
        target, base = delta_pair(np.int16, (4, 6, 8), rng)
        data = codec.encode(target, base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == target.tobytes()
        assert out.shape == target.shape

    def test_shape_mismatch_rejected(self, codec):
        with pytest.raises(DeltaShapeMismatchError):
            codec.encode(np.zeros((2, 2), dtype=np.int32),
                         np.zeros((2, 3), dtype=np.int32))

    def test_nan_inf_bit_exact(self, codec):
        base = np.array([[1.0, np.nan], [np.inf, -0.0]], dtype=np.float64)
        target = np.array([[np.nan, np.nan], [np.inf, 2.0]],
                          dtype=np.float64)
        data = codec.encode(target, base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == target.tobytes()


class DeltaBackwardRoundTrips:
    """Observation 2's "reconstruct ... in both directions": a layout
    may store the older version as a delta against the newer one, and
    the store then re-encodes the pair the other way round."""

    @pytest.mark.parametrize("dtype", [np.int32, np.float64], ids=str)
    def test_base_from_target(self, codec, dtype, rng):
        target, base = delta_pair(dtype, (20, 20), rng)
        forward = codec.encode(target, base)
        backward = codec.encode(base, target)
        assert codec.decode_forward(forward, base).tobytes() == \
            target.tobytes()
        assert codec.decode_forward(backward, target).tobytes() == \
            base.tobytes()


def check_corrupt_decode_forward(codec, dtype, rng, trials: int) -> None:
    """A payload is bytes from disk: whatever is wrong with it,
    ``decode_forward`` raises a typed :class:`ReproError` — never a
    MemoryError from an allocation the bytes sized, never numpy's
    ValueError from a shape the bytes chose — and never hands back an
    array for a frame that disagrees with the array it was asked to
    decode against."""
    target, base = delta_pair(dtype, (12, 16), rng, similarity=0.8)
    target[3, 5] = 1 << 20  # an outlier: hybrid keeps a real table
    payload = codec.encode(target, base)
    assert codec.decode_forward(payload, base).tobytes() == \
        target.tobytes()
    wrong = np.zeros((16, 12), dtype=base.dtype)
    with pytest.raises(ReproError):
        codec.decode_forward(payload, wrong)
    for bad in corruptions(rng, payload, trials):
        try:
            out = codec.decode_forward(bad, base)
        except ReproError:
            continue
        assert frame_agrees(bad, base)
        assert (out.dtype, out.shape) == (base.dtype, base.shape)
