"""Unit and property tests for D-bit packing (Section III-B.3 substrate)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitpack, native
from repro.core.errors import CodecError


class TestRequiredBits:
    def test_zero_needs_zero_bits(self):
        assert bitpack.required_bits(0) == 0

    def test_one_needs_one_bit(self):
        assert bitpack.required_bits(1) == 1

    def test_byte_boundary(self):
        assert bitpack.required_bits(255) == 8
        assert bitpack.required_bits(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            bitpack.required_bits(-1)

    def test_required_bits_for_empty_array(self):
        assert bitpack.required_bits_for(np.array([], dtype=np.uint64)) == 0

    def test_required_bits_for_array(self):
        values = np.array([0, 3, 17], dtype=np.uint64)
        assert bitpack.required_bits_for(values) == 5


class TestPackUnsigned:
    def test_roundtrip_simple(self):
        values = np.array([1, 2, 3, 4, 5], dtype=np.uint64)
        packed = bitpack.pack_unsigned(values, 3)
        out = bitpack.unpack_unsigned(packed, 3, 5)
        np.testing.assert_array_equal(out, values)

    def test_zero_bits_all_zero(self):
        values = np.zeros(10, dtype=np.uint64)
        assert bitpack.pack_unsigned(values, 0) == b""
        out = bitpack.unpack_unsigned(b"", 0, 10)
        np.testing.assert_array_equal(out, values)

    def test_zero_bits_rejects_nonzero(self):
        with pytest.raises(CodecError):
            bitpack.pack_unsigned(np.array([1], dtype=np.uint64), 0)

    def test_value_too_wide_rejected(self):
        with pytest.raises(CodecError):
            bitpack.pack_unsigned(np.array([8], dtype=np.uint64), 3)

    def test_empty_input(self):
        assert bitpack.pack_unsigned(np.array([], dtype=np.uint64), 7) == b""
        out = bitpack.unpack_unsigned(b"", 7, 0)
        assert out.size == 0

    def test_truncated_stream_rejected(self):
        values = np.arange(100, dtype=np.uint64)
        packed = bitpack.pack_unsigned(values, 7)
        with pytest.raises(CodecError):
            bitpack.unpack_unsigned(packed[:-1], 7, 100)

    def test_64_bit_values(self):
        values = np.array([2**64 - 1, 0, 2**63], dtype=np.uint64)
        packed = bitpack.pack_unsigned(values, 64)
        out = bitpack.unpack_unsigned(packed, 64, 3)
        np.testing.assert_array_equal(out, values)

    def test_packed_size_matches_output(self):
        values = np.arange(33, dtype=np.uint64)
        bits = bitpack.required_bits_for(values)
        packed = bitpack.pack_unsigned(values, bits)
        assert len(packed) == bitpack.packed_size(33, bits)

    def test_invalid_bits_rejected(self):
        with pytest.raises(CodecError):
            bitpack.pack_unsigned(np.array([1], dtype=np.uint64), 65)
        with pytest.raises(CodecError):
            bitpack.unpack_unsigned(b"", -1, 0)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=2**40 - 1),
                        max_size=200),
    )
    def test_roundtrip_property(self, values):
        array = np.array(values, dtype=np.uint64)
        bits = bitpack.required_bits_for(array)
        packed = bitpack.pack_unsigned(array, bits)
        out = bitpack.unpack_unsigned(packed, bits, len(values))
        np.testing.assert_array_equal(out, array)


def _oracle_pack(values: np.ndarray, bits: int) -> bytes:
    """The seed's bit-matrix packer, kept verbatim as a test oracle.

    Expands every value to a row of ``bits`` single-bit bytes and packs
    the flattened matrix LSB-first — slow but transparently correct, so
    the word-level kernels are checked against it byte for byte.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64).ravel()
    if bits == 0 or values.size == 0:
        return b""
    shifts = np.arange(bits, dtype=np.uint64)
    bit_matrix = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bit_matrix.ravel(), bitorder="little").tobytes()


def _oracle_unpack(data: bytes, bits: int, count: int) -> np.ndarray:
    """The seed's bit-matrix unpacker, kept verbatim as a test oracle."""
    if bits == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8, count=(count * bits + 7) // 8)
    flat_bits = np.unpackbits(raw, bitorder="little", count=count * bits)
    bit_matrix = flat_bits.reshape(count, bits).astype(np.uint64)
    weights = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    return bit_matrix @ weights


def _random_codes(rng, bits: int, size: int) -> np.ndarray:
    """Uniform random codes of exactly ``bits`` width (0..2**bits - 1)."""
    if bits == 0:
        return np.zeros(size, dtype=np.uint64)
    if bits == 64:
        return rng.integers(0, 2**64 - 1, size=size, dtype=np.uint64,
                            endpoint=True)
    return rng.integers(0, 2**bits, size=size, dtype=np.uint64)


#: Sizes that straddle every kernel boundary: empty, sub-word, word
#: edges (7/8/9 values and the 63/64/65 lane block), and both sides of
#: the gather-vs-blocked unpack threshold (8192).
_ORACLE_SIZES = (0, 1, 7, 8, 9, 63, 64, 65, 4096, 8191, 8192, 8193)


class TestWordKernelsAgainstBitMatrixOracle:
    """The word-level kernels must match the seed's bit-matrix packing
    byte for byte — the stored format is frozen by committed benchmark
    fingerprints, so this is an equivalence proof, not a round-trip."""

    @pytest.mark.parametrize("bits", range(0, 65))
    def test_all_widths_random_values(self, bits):
        rng = np.random.default_rng(bits)
        for size in _ORACLE_SIZES:
            values = _random_codes(rng, bits, size)
            packed = bitpack.pack_unsigned(values, bits)
            assert packed == _oracle_pack(values, bits), \
                f"pack mismatch at bits={bits} size={size}"
            out = bitpack.unpack_unsigned(packed, bits, size)
            np.testing.assert_array_equal(
                out, _oracle_unpack(packed, bits, size),
                err_msg=f"unpack mismatch at bits={bits} size={size}")
            np.testing.assert_array_equal(out, values)

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_boundary_values(self, bits):
        """All-max-value streams exercise every carry/spill path."""
        top = np.uint64(2**bits - 1)
        for size in (1, 9, 65, 8193):
            values = np.full(size, top, dtype=np.uint64)
            packed = bitpack.pack_unsigned(values, bits)
            assert packed == _oracle_pack(values, bits)
            np.testing.assert_array_equal(
                bitpack.unpack_unsigned(packed, bits, size), values)

    @settings(max_examples=100, deadline=None)
    @given(bits=st.integers(min_value=1, max_value=64),
           size=st.sampled_from((0, 1, 7, 8, 9, 4096)),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_width_equivalence_property(self, bits, size, seed):
        rng = np.random.default_rng(seed)
        values = _random_codes(rng, bits, size)
        packed = bitpack.pack_unsigned(values, bits)
        assert packed == _oracle_pack(values, bits)
        out = bitpack.unpack_unsigned(packed, bits, size)
        np.testing.assert_array_equal(out, values)

    def test_unpack_accepts_memoryview(self):
        for bits in (7, 10, 16, 64):
            values = np.arange(1000, dtype=np.uint64) \
                % np.uint64(1 << min(bits, 63))
            packed = bitpack.pack_unsigned(values, bits)
            out = bitpack.unpack_unsigned(memoryview(packed), bits, 1000)
            np.testing.assert_array_equal(out, values)

    @pytest.mark.parametrize("bits", (7, 8, 13, 32, 64))
    @pytest.mark.parametrize("size", (5, 9000))
    def test_unpack_returns_writable_array(self, bits, size):
        """Callers may patch unpacked codes in place, so every
        unpack path — fast, gather, blocked — must return an array it
        owns, never a read-only frombuffer view."""
        values = np.ones(size, dtype=np.uint64)
        packed = bitpack.pack_unsigned(values, bits)
        out = bitpack.unpack_unsigned(packed, bits, size)
        assert out.flags.writeable
        out[0] = 0  # must not raise
        assert bitpack.unpack_unsigned(packed, bits, size)[0] == 1


class TestStrictStreamLength:
    @pytest.mark.parametrize("bits", (1, 7, 8, 13, 64))
    def test_trailing_bytes_rejected(self, bits):
        values = np.arange(50, dtype=np.uint64) % (1 << min(bits, 40))
        packed = bitpack.pack_unsigned(values, bits)
        with pytest.raises(CodecError, match="trailing"):
            bitpack.unpack_unsigned(packed + b"\x00", bits, 50)

    def test_trailing_bytes_rejected_zero_bits(self):
        with pytest.raises(CodecError, match="trailing"):
            bitpack.unpack_unsigned(b"\x00", 0, 10)

    def test_exact_length_accepted(self):
        values = np.arange(50, dtype=np.uint64)
        packed = bitpack.pack_unsigned(values, 6)
        assert len(packed) == bitpack.packed_size(50, 6)
        np.testing.assert_array_equal(
            bitpack.unpack_unsigned(packed, 6, 50), values)


class TestZigzag:
    def test_small_values(self):
        values = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        codes = bitpack.zigzag_encode(values)
        np.testing.assert_array_equal(codes,
                                      np.array([0, 1, 2, 3, 4],
                                               dtype=np.uint64))

    def test_roundtrip_extremes(self):
        values = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0],
                          dtype=np.int64)
        out = bitpack.zigzag_decode(bitpack.zigzag_encode(values))
        np.testing.assert_array_equal(out, values)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.integers(min_value=-2**62, max_value=2**62),
                           max_size=100))
    def test_roundtrip_property(self, values):
        array = np.array(values, dtype=np.int64)
        out = bitpack.zigzag_decode(bitpack.zigzag_encode(array))
        np.testing.assert_array_equal(out, array)

    def test_zigzag_pack_roundtrip(self):
        values = np.array([-5, 0, 5, 1000, -1000], dtype=np.int64)
        codes = bitpack.zigzag_encode(values)
        bits = bitpack.required_bits_for(codes)
        data = bitpack.pack_unsigned(codes, bits)
        out = bitpack.zigzag_decode(bitpack.unpack_unsigned(data, bits, 5))
        np.testing.assert_array_equal(out, values)

    def test_identical_values_pack_to_zero_bits(self):
        codes = bitpack.zigzag_encode(np.zeros(100, dtype=np.int64))
        bits = bitpack.required_bits_for(codes)
        assert bits == 0
        assert bitpack.pack_unsigned(codes, bits) == b""


class TestNumpyKernelsAgainstBitMatrixOracle:
    """With the compiled kernels off, the numpy fallbacks — the one
    blocked pack, the gather and blocked unpacks — carry every width on
    their own, so they are held to the seed oracle directly: every
    width 1-63 at sizes straddling the 64-value block, the
    gather-vs-blocked threshold, and one tile boundary."""

    _TILE = bitpack._TILE_BLOCKS * bitpack._BLOCK
    SIZES = (63, 64, 65,
             bitpack._BLOCK_THRESHOLD - 1, bitpack._BLOCK_THRESHOLD,
             bitpack._BLOCK_THRESHOLD + 1,
             _TILE - 1, _TILE, _TILE + 1)

    @pytest.mark.parametrize("bits", range(1, 64))
    def test_native_off_round_trip(self, bits):
        rng = np.random.default_rng(1000 + bits)
        with native.disabled():
            for size in self.SIZES:
                values = _random_codes(rng, bits, size)
                packed = bitpack.pack_unsigned(values, bits)
                assert packed == _oracle_pack(values, bits), \
                    f"pack mismatch at bits={bits} size={size}"
                out = bitpack.unpack_unsigned(packed, bits, size)
                assert out.tobytes() == \
                    _oracle_unpack(packed, bits, size).tobytes(), \
                    f"unpack mismatch at bits={bits} size={size}"
                assert out.tobytes() == values.tobytes()

    @pytest.mark.parametrize("bits", (1, 13, 21, 47, 63))
    def test_partial_tiles(self, monkeypatch, bits):
        """A tiny tile makes the lane loops run over many tiles with a
        ragged last one; tiling only reorders independent per-row
        operations, so the bytes may not move."""
        rng = np.random.default_rng(bits)
        size = max(bitpack._BLOCK_THRESHOLD, 64 * 3 * 50) + 17
        values = _random_codes(rng, bits, size)
        monkeypatch.setattr(bitpack, "_TILE_BLOCKS", 3)
        with native.disabled():
            packed = bitpack.pack_unsigned(values, bits)
            assert packed == _oracle_pack(values, bits)
            out = bitpack.unpack_unsigned(packed, bits, size)
        assert out.tobytes() == values.tobytes()
