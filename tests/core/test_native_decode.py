"""Native decode kernels vs their numpy references, byte for byte.

The encode-side kernels are covered next to the planner
(``tests/delta/test_planner.py``); this file owns the decode side:
zigzag decode, D-bit unpack across every width and the chain fold.
Every kernel's contract is the same — byte-identical to the numpy
fallback, returning ``None`` (so the caller falls back) on any dtype,
layout, or size it does not handle — and every test here asserts both
halves of it.  The fold additionally parses bytes from disk and writes
through caller strides: whatever the bytes say, it reports a malformed
level and never touches a cell outside its destination.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitpack, native
from repro.delta import codes as code_store

pytestmark = pytest.mark.skipif(not native.available(),
                                reason="native kernels did not compile")


class TestZigzagDecode:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000))
    def test_matches_numpy(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        codes = bitpack.zigzag_encode(values)
        got = native.zigzag_decode(codes)
        assert got is not None
        assert got.dtype == np.int64
        assert np.array_equal(got, values)
        assert np.array_equal(got, bitpack.zigzag_decode(codes))

    def test_boundary_values(self):
        values = np.array([0, 1, -1, 2**63 - 1, -2**63, 2**62,
                           -2**62], dtype=np.int64)
        codes = bitpack.zigzag_encode(values)
        got = native.zigzag_decode(codes)
        assert got is not None
        assert np.array_equal(got, values)

    def test_rejects_layouts(self):
        codes = np.arange(16, dtype=np.uint64)
        assert native.zigzag_decode(codes[::2]) is None
        assert native.zigzag_decode(codes.astype(np.int64)) is None
        assert native.zigzag_decode(
            np.zeros(0, dtype=np.uint64)) is None
        assert native.zigzag_decode(codes.tolist()) is None


class TestUnpackBits:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(1, 63),
           n=st.integers(1, 3000))
    def test_every_width_matches_numpy(self, seed, bits, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << bits, n, dtype=np.uint64)
        packed = bitpack.pack_unsigned(values, bits)
        got = native.unpack_bits(packed, bits, n)
        assert got is not None
        assert np.array_equal(got, values)
        with native.disabled():
            assert np.array_equal(
                got, bitpack.unpack_unsigned(packed, bits, n))

    def test_rejects_widths_outside_carry_loop(self):
        # Width 0 and 64 are handled upstream (no payload / dtype
        # reinterpret); the kernel must refuse them.
        assert native.unpack_bits(b"", 0, 4) is None
        assert native.unpack_bits(b"\x00" * 32, 64, 4) is None
        assert native.unpack_bits(b"\x00" * 8, 7, 0) is None

    def test_full_pipeline_is_gated(self):
        # End to end: bitpack.unpack_unsigned dispatches to the kernel
        # when active and to the word kernels inside disabled(), with
        # identical results.
        rng = np.random.default_rng(2012)
        values = rng.integers(0, 1 << 29, 4096, dtype=np.uint64)
        packed = bitpack.pack_unsigned(values, 29)
        hot = bitpack.unpack_unsigned(packed, 29, values.size)
        with native.disabled():
            cold = bitpack.unpack_unsigned(packed, 29, values.size)
        assert np.array_equal(hot, cold)
        assert np.array_equal(hot, values)


#: Cell dtypes by the fold kernel they reach (width x operation).
FOLD_DTYPES = [np.int8, np.uint8, np.bool_, np.int16, np.uint16, np.int32,
               np.uint32, np.int64, np.uint64, np.float16, np.float32,
               np.float64]
#: A strategy's section encoder and the layout that names its parts.
FOLD_SECTIONS = {
    "dense": (code_store.encode_dense, native.FOLD_SMALL),
    "sparse": (code_store.encode_sparse, native.FOLD_TABLE),
    "hybrid": (code_store.encode_hybrid,
               native.FOLD_SMALL | native.FOLD_TABLE),
}
CANARY = 0xA5


def _use_xor(dtype) -> bool:
    return np.dtype(dtype).kind == "f"


def _level_codes(rng, n: int, use_xor: bool) -> np.ndarray:
    """Codes of one plausible level: mostly zero, some small, three of
    them wide — so every strategy has something in every part."""
    codes = np.zeros(n, dtype=np.uint64)
    small = rng.choice(n, n // 3, replace=False)
    codes[small] = rng.integers(1, 8, small.size, dtype=np.uint64)
    wide = rng.choice(n, 3, replace=False)
    top = 64 if use_xor else 63
    codes[wide] = rng.integers(1 << 20, 1 << top, wide.size,
                               dtype=np.uint64)
    return codes


def _fold_reference(cells: np.ndarray, codes: np.ndarray,
                    use_xor: bool) -> np.ndarray:
    """``cells`` after one level, computed the long way: widen to 64
    bits, compose, truncate back to the cell width."""
    image = cells.reshape(-1).view(f"u{cells.itemsize}").astype(np.uint64)
    if use_xor:
        image ^= codes
    else:
        image += bitpack.zigzag_decode(codes).view(np.uint64)
    return image.astype(f"u{cells.itemsize}").view(cells.dtype) \
        .reshape(cells.shape)


def _in_canary_frame(shape, dtype):
    """A destination of ``shape`` carved out of a larger array filled
    with canary bytes; returns ``(frame, window)``."""
    itemsize = np.dtype(dtype).itemsize
    frame = np.full((shape[0] + 4, (shape[1] + 4) * itemsize), CANARY,
                    dtype=np.uint8).view(dtype)
    window = frame[2:-2, 2:-2]
    assert window.shape == shape
    return frame, window


def _canaries_intact(frame: np.ndarray) -> bool:
    outside = np.ones(frame.shape, dtype=bool)
    outside[2:-2, 2:-2] = False
    return bool((frame.view(np.uint8).reshape(frame.shape[0], -1)
                 [np.repeat(outside, frame.itemsize, axis=1)]
                 == CANARY).all())


class TestFoldChain:
    @pytest.mark.parametrize("strategy", FOLD_SECTIONS)
    @pytest.mark.parametrize("dtype", FOLD_DTYPES, ids=str)
    def test_matches_wide_compose(self, dtype, strategy):
        """Every width x operation x section layout, three levels, in a
        strided window: the narrow in-place fold equals widening,
        composing in 64 bits and truncating — and stays in its window."""
        rng = np.random.default_rng(2012)
        encode, layout = FOLD_SECTIONS[strategy]
        use_xor = _use_xor(dtype)
        frame, window = _in_canary_frame((6, 9), dtype)
        start = rng.integers(0, 256, 54 * np.dtype(dtype).itemsize,
                             dtype=np.uint8).view(dtype).reshape(6, 9)
        window[...] = start
        expected = start.copy()
        sections = []
        for _ in range(3):
            codes = _level_codes(rng, 54, use_xor)
            sections.append(encode(codes))
            expected = _fold_reference(expected, codes, use_xor)
        assert native.fold_chain(window, sections, [layout] * 3,
                                 use_xor) == 0
        assert window.tobytes() == expected.tobytes()
        assert _canaries_intact(frame)

    def test_wraps_in_the_cell_width(self):
        """int8 crossing +127 and -128; uint64 with the top bit set."""
        cells = np.array([127, -128, 5], dtype=np.int8)
        deltas = np.array([3, -3, 0], dtype=np.int64)
        section = code_store.encode_dense(bitpack.zigzag_encode(deltas))
        assert native.fold_chain(cells, [section], [native.FOLD_SMALL],
                                 False) == 0
        assert cells.tolist() == [-126, 125, 5]
        wide = np.array([2**64 - 1, 2**63], dtype=np.uint64)
        deltas = np.array([1, -1], dtype=np.int64)
        section = code_store.encode_sparse(bitpack.zigzag_encode(deltas))
        assert native.fold_chain(wide, [section], [native.FOLD_TABLE],
                                 False) == 0
        assert wide.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("shape, index", [
        ((4, 5, 6), np.s_[1:3, 1:4, 2:5]),      # rows two strides apart
        ((8, 1), np.s_[2:6, :]),                # one column
        ((7,), np.s_[1:6]),                     # a contiguous run
    ])
    def test_destination_layouts(self, shape, index):
        rng = np.random.default_rng(7)
        canvas = rng.integers(-100, 100, shape).astype(np.int32)
        before = canvas.copy()
        window = canvas[index]
        codes = _level_codes(rng, window.size, False)
        section = code_store.encode_hybrid(codes)
        expected = _fold_reference(np.ascontiguousarray(window), codes,
                                   False)
        assert native.fold_chain(
            window, [section], [native.FOLD_SMALL | native.FOLD_TABLE],
            False) == 0
        assert np.array_equal(window, expected)
        # Nothing outside the window moved.
        before[index] = expected
        assert np.array_equal(canvas, before)

    def test_unsorted_and_repeated_positions_are_exact(self):
        """Encoders emit ascending unique positions; the kernel does
        not rely on it (it only ever trusts what it bounds-checked)."""
        positions = np.array([7, 2, 7, 0], dtype=np.uint64)
        values = bitpack.zigzag_encode(np.array([5, 1, -2, 9]))
        table = b"".join([
            (4).to_bytes(8, "little"), bytes([3, 5]),
            bitpack.pack_unsigned(positions, 3),
            bitpack.pack_unsigned(values, 5)])
        _, window = _in_canary_frame((2, 4), np.int32)
        window[...] = 0
        assert native.fold_chain(window, [table], [native.FOLD_TABLE],
                                 False) == 0
        assert window.reshape(-1).tolist() == [9, 0, 1, 0, 0, 0, 0, 3]

    @pytest.mark.parametrize("strategy", FOLD_SECTIONS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32,
                                       np.int64], ids=str)
    def test_every_truncation_is_refused(self, dtype, strategy):
        rng = np.random.default_rng(11)
        encode, layout = FOLD_SECTIONS[strategy]
        use_xor = _use_xor(dtype)
        section = encode(_level_codes(rng, 24, use_xor))
        frame, window = _in_canary_frame((4, 6), dtype)
        for cut in range(len(section)):
            window[...] = 0
            status = native.fold_chain(window, [section[:cut]], [layout],
                                       use_xor)
            assert status is not None and status < 0, cut
            assert -status % 8 == 1      # "section overruns the payload"
        assert native.fold_chain(window, [section + b"\0"], [layout],
                                 use_xor) == -5     # trailing bytes
        assert _canaries_intact(frame)

    @pytest.mark.parametrize("use_xor", [False, True], ids=["add", "xor"])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_hostile_header_fields(self, width, use_xor):
        """Small width, entry count, position width and value width set
        to everything a byte (or eight) can say: a status, never a
        write outside the window."""
        rng = np.random.default_rng(5)
        dtype = np.dtype(f"u{width}")
        codes = _level_codes(rng, 24, use_xor)
        hybrid = bytearray(code_store.encode_hybrid(codes))
        small_bits = hybrid[0]
        table_at = 1 + bitpack.packed_size(24, small_bits)
        frame, window = _in_canary_frame((4, 6), dtype)
        layout = native.FOLD_SMALL | native.FOLD_TABLE

        def status_of(section) -> int:
            window[...] = 0
            status = native.fold_chain(window, [bytes(section)], [layout],
                                       use_xor)
            assert status is not None
            assert _canaries_intact(frame)
            return status

        assert status_of(hybrid) == 0
        for at in (0, table_at + 8, table_at + 9):   # the three widths
            for value in (65, 66, 128, 255):
                bad = bytearray(hybrid)
                bad[at] = value
                assert status_of(bad) == -2          # width above 64
            for value in range(65):
                bad = bytearray(hybrid)
                bad[at] = value
                assert status_of(bad) <= 0
        for entries in (-1, 25, 1 << 40, (1 << 63) - 1, -(1 << 63)):
            bad = bytearray(hybrid)
            bad[table_at:table_at + 8] = entries.to_bytes(
                8, "little", signed=True)
            assert status_of(bad) == -3              # entries > cells
        # A count the cells allow but the payload cannot hold.
        bad = bytearray(hybrid)
        bad[table_at:table_at + 8] = (24).to_bytes(8, "little")
        assert status_of(bad) == -1

    def test_position_past_the_chunk_is_refused(self):
        # 24 cells need 5 position bits, which can say up to 31.
        for position in (24, 31):
            table = b"".join([
                (2).to_bytes(8, "little"), bytes([5, 3]),
                bitpack.pack_unsigned(
                    np.array([3, position], dtype=np.uint64), 5),
                bitpack.pack_unsigned(np.array([1, 1], dtype=np.uint64),
                                      3)])
            frame, window = _in_canary_frame((4, 6), np.int16)
            window[...] = 0
            assert native.fold_chain(window, [table], [native.FOLD_TABLE],
                                     False) == -4
            assert _canaries_intact(frame)
        # 64-bit positions: the sign bit must not index backwards.
        table = b"".join([
            (1).to_bytes(8, "little"), bytes([64, 1]),
            (2**64 - 8).to_bytes(8, "little"), b"\x01"])
        assert native.fold_chain(window, [table], [native.FOLD_TABLE],
                                 False) == -4
        assert _canaries_intact(frame)

    def test_failing_level_is_named(self):
        good = code_store.encode_dense(np.ones(6, dtype=np.uint64))
        cells = np.zeros(6, dtype=np.int32)
        status = native.fold_chain(
            cells, [good, good, good[:-1], good],
            [native.FOLD_SMALL] * 4, False)
        assert divmod(-status, 8) == (2, 1)

    def test_declines_say_why(self, caplog, monkeypatch):
        monkeypatch.setattr(native, "_declined", set())
        section = code_store.encode_dense(np.ones(8, dtype=np.uint64))
        layouts = [native.FOLD_SMALL]
        cells = np.zeros(16, dtype=np.int32)
        read_only = np.zeros(8, dtype=np.int32)
        read_only.flags.writeable = False
        with caplog.at_level("DEBUG", logger="repro.native"):
            assert native.fold_chain(cells[::2], [section], layouts,
                                     False) is None
            assert native.fold_chain(np.zeros(8, dtype=">i4"), [section],
                                     layouts, False) is None
            assert native.fold_chain(np.zeros(8, dtype=np.complex64),
                                     [section], layouts, False) is None
            assert native.fold_chain(read_only, [section], layouts,
                                     False) is None
            with native.disabled():
                assert native.fold_chain(cells[:8], [section], layouts,
                                         False) is None
        said = [record.getMessage() for record in caplog.records]
        for reason in ("non-unit inner stride", "byte-swapped dtype >i4",
                       "unsupported dtype complex64",
                       "not a writable ndarray",
                       "kernels disabled or unavailable"):
            assert any("fold_chain" in line and reason in line
                       for line in said), reason
        assert not cells.any() and not read_only.any()


class TestDisabledScope:
    def test_disabled_turns_every_kernel_off(self):
        codes = np.arange(8, dtype=np.uint64)
        acc = np.zeros(8, dtype=np.int64)
        section = code_store.encode_dense(codes)
        with native.disabled():
            assert native.zigzag_decode(codes) is None
            assert native.unpack_bits(b"\x00" * 8, 7, 4) is None
            assert native.fold_chain(acc, [section], [native.FOLD_SMALL],
                                     False) is None
            assert native.delta_zigzag_stats(acc, acc) is None
        assert native.zigzag_decode(codes) is not None

    def test_disabled_nests(self):
        codes = np.arange(8, dtype=np.uint64)
        with native.disabled():
            with native.disabled():
                assert native.zigzag_decode(codes) is None
            assert native.zigzag_decode(codes) is None
        assert native.zigzag_decode(codes) is not None

    def test_env_gate(self):
        # REPRO_NATIVE is latched at first load, so the =0 path needs
        # a fresh interpreter: every wrapper must report the fallback.
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_NATIVE="0")
        probe = (
            "import numpy as np\n"
            "from repro.core import native\n"
            "codes = np.arange(8, dtype=np.uint64)\n"
            "assert not native.available()\n"
            "assert native.zigzag_decode(codes) is None\n"
            "assert native.unpack_bits(b'\\x00' * 8, 7, 4) is None\n"
            "acc = np.zeros(8, dtype=np.int64)\n"
            "assert native.fold_chain(acc, [b'\\x00'], [1], False) is None\n"
            "assert native.delta_zigzag_stats(acc, acc) is None\n"
        )
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env=env)
