"""Direct unit tests for the layout-keyed sizer, packer and reader."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import numeric
from repro.core.errors import CodecError
from repro.delta import codes


class TestDeltaToCodes:
    def test_arith_zigzag(self):
        delta = np.array([0, -1, 1, 100], dtype=np.int64)
        out = codes.delta_to_codes(delta, numeric.ARITHMETIC)
        np.testing.assert_array_equal(
            out, np.array([0, 1, 2, 200], dtype=np.uint64))

    def test_xor_passthrough(self):
        delta = np.array([0, 7, 2**40], dtype=np.uint64)
        out = codes.delta_to_codes(delta, numeric.XOR)
        np.testing.assert_array_equal(out, delta)

    def test_roundtrip_both_modes(self, rng):
        arith = rng.integers(-1000, 1000, 50).astype(np.int64)
        back = codes.codes_to_delta(
            codes.delta_to_codes(arith, numeric.ARITHMETIC),
            numeric.ARITHMETIC)
        np.testing.assert_array_equal(back, arith)

    def test_unknown_mode(self):
        with pytest.raises(CodecError):
            codes.delta_to_codes(np.zeros(1, dtype=np.int64), "nope")
        with pytest.raises(CodecError):
            codes.codes_to_delta(np.zeros(1, dtype=np.uint64), "nope")


#: Each strategy's layout: the parts of its sections.
LAYOUTS = {"dense": codes.SMALL, "sparse": codes.TABLE,
           "hybrid": codes.SMALL | codes.TABLE}
HYBRID = LAYOUTS["hybrid"]


def _packed(array: np.ndarray, layout: int) -> tuple[int, int, bytes]:
    """``(size, small width, sections)`` of ``array`` as ``layout``:
    the sizer's price and split, and the packer's bytes at that split."""
    stats = codes.CodeStats.from_codes(array)
    size, small_bits = codes.section_size(stats, layout)
    return size, small_bits, codes.pack_sections(array, stats, layout,
                                                 small_bits)


def _read(blob, layout: int, count: int) -> np.ndarray:
    """The code array the reader finds in ``layout``'s sections."""
    out = np.zeros(count, dtype=np.uint64)
    for where, part in codes.read_sections(blob, layout, count):
        out[where] = part
    return out


class TestSizeEstimators:
    """The sizer feeds the race and the Materialization Matrix: it must
    equal the packed sections' length, not approximate it."""

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.integers(0, 2**40), min_size=1,
                           max_size=300),
           name=st.sampled_from(sorted(LAYOUTS)))
    def test_size_exact(self, values, name):
        array = np.array(values, dtype=np.uint64)
        size, _, blob = _packed(array, LAYOUTS[name])
        assert size == len(blob)
        np.testing.assert_array_equal(
            _read(blob, LAYOUTS[name], array.size), array)

    @pytest.mark.parametrize("width", range(65))
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_every_width_packs_and_reads_back(self, rng, name, width):
        # Codes of every exact bit length up to ``width``, zero runs
        # included: sized exactly, read back exactly.
        widths = rng.integers(0, width + 1, 300)
        widths[rng.random(300) < 0.5] = 0
        widths[0] = width
        array = np.array(
            [int(rng.integers(1 << (w - 1), 1 << w, dtype=np.uint64))
             if w else 0 for w in widths.tolist()], dtype=np.uint64)
        size, small_bits, blob = _packed(array, LAYOUTS[name])
        assert size == len(blob)
        assert small_bits < 64 or name == "dense"
        np.testing.assert_array_equal(
            _read(blob, LAYOUTS[name], array.size), array)

    def test_hybrid_never_worse_than_dense_or_sparse_estimates(self, rng):
        for _ in range(20):
            mix = np.concatenate([
                rng.integers(0, 8, 200).astype(np.uint64),
                rng.integers(0, 2**50, rng.integers(0, 50))
                .astype(np.uint64),
            ])
            hybrid = _packed(mix, HYBRID)[0]
            assert hybrid <= _packed(mix, codes.SMALL)[0] + 16
            assert hybrid <= _packed(mix, codes.TABLE)[0] + 16


class TestHybridSplit:
    @staticmethod
    def _split_width(array: np.ndarray) -> int:
        return _packed(array, HYBRID)[1]

    def test_all_zero_width_zero(self):
        array = np.zeros(100, dtype=np.uint64)
        assert self._split_width(array) == 0

    def test_uniform_small_codes_no_outliers(self):
        array = np.full(1000, 6, dtype=np.uint64)  # 3-bit codes
        assert self._split_width(array) == 3

    def test_outliers_split_off(self):
        # 990 tiny codes + 10 huge ones: the split width must track the
        # tiny population, not the maximum.
        array = np.concatenate([
            np.full(990, 3, dtype=np.uint64),
            np.full(10, 2**50, dtype=np.uint64),
        ])
        assert self._split_width(array) <= 8

    def test_roundtrip_with_outliers(self, rng):
        array = np.concatenate([
            rng.integers(0, 16, 500).astype(np.uint64),
            rng.integers(2**30, 2**45, 25).astype(np.uint64),
        ])
        rng.shuffle(array)
        blob = _packed(array, HYBRID)[2]
        np.testing.assert_array_equal(_read(blob, HYBRID, len(array)),
                                      array)

    def test_decode_rejects_bad_positions(self):
        array = np.array([1, 2**40], dtype=np.uint64)
        blob = _packed(array, HYBRID)[2]
        # Claim fewer cells than the outlier positions reference.
        with pytest.raises(CodecError):
            codes.read_sections(blob, HYBRID, 1)


class TestCorruptTables:
    """The reader trusts nothing in an outlier table: a count the cells
    cannot hold, a position past them or bytes past the sections raise
    :class:`CodecError` before anything is sized from them."""

    @staticmethod
    def _table() -> bytearray:
        array = np.zeros(24, dtype=np.uint64)
        array[[3, 17]] = [9, 2**33]
        return bytearray(_packed(array, codes.TABLE)[2])

    @pytest.mark.parametrize("entries", [-1, 25, 1 << 40, -(1 << 63)])
    def test_entry_count_outside_the_cells(self, entries):
        table = self._table()
        table[:8] = entries.to_bytes(8, "little", signed=True)
        with pytest.raises(CodecError, match="claims"):
            codes.read_sections(bytes(table), codes.TABLE, 24)

    def test_position_past_the_cells(self):
        table = self._table()
        # 24 cells take 5 position bits: the second position (17) is
        # bits 5-9 of the positions' first two bytes; make it 31.
        positions = int.from_bytes(table[10:12], "little") | 0b11111 << 5
        table[10:12] = positions.to_bytes(2, "little")
        with pytest.raises(CodecError, match="out of range"):
            codes.read_sections(bytes(table), codes.TABLE, 24)

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_truncated_and_trailing_bytes(self, name):
        array = np.arange(24, dtype=np.uint64) * 3
        blob = _packed(array, LAYOUTS[name])[2]
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                codes.read_sections(blob[:cut], LAYOUTS[name], 24)
        with pytest.raises(CodecError, match="trailing"):
            codes.read_sections(blob + b"\0", LAYOUTS[name], 24)


class TestEmptyArrays:
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_empty(self, name):
        empty = np.zeros(0, dtype=np.uint64)
        size, _, blob = _packed(empty, LAYOUTS[name])
        assert size == len(blob)
        assert _read(blob, LAYOUTS[name], 0).size == 0

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_one_code(self, name):
        for value in (0, 1, 2**64 - 1):
            array = np.array([value], dtype=np.uint64)
            size, _, blob = _packed(array, LAYOUTS[name])
            assert size == len(blob)
            np.testing.assert_array_equal(_read(blob, LAYOUTS[name], 1),
                                          array)
