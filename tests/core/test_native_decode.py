"""Native decode kernels vs their numpy references, byte for byte.

The encode-side kernels are covered next to the planner
(``tests/delta/test_planner.py``); this file owns the decode side:
zigzag decode, D-bit unpack across every width, the O(nnz) scatter
kernels, the fused 64-bit apply, and the delta-of-delta re-base
statistics.  Every kernel's contract is the same — byte-identical to
the numpy fallback, returning ``None``/``False`` (so the caller falls
back) on any dtype, layout, or size it does not handle — and every
test here asserts both halves of it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitpack, native
from repro.delta.codes import CodeStats, delta_to_codes

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


class TestScatterKernels:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000),
           nnz=st.integers(1, 500))
    def test_add_matches_fancy_indexing(self, seed, n, nnz):
        rng = np.random.default_rng(seed)
        acc = rng.integers(-2**40, 2**40, n, dtype=np.int64)
        index = rng.integers(0, n, nnz, dtype=np.int64)
        # Unique positions so the numpy reference semantics match.
        index = np.unique(index)
        delta = rng.integers(-2**40, 2**40, index.size,
                             dtype=np.int64)
        expected = acc.copy()
        expected[index] += delta
        assert native.scatter_add(acc, index, delta) is True
        assert np.array_equal(acc, expected)

    def test_add_is_exact_under_duplicates(self):
        # The property the batched multi-level scatter depends on and
        # numpy fancy indexing lacks: duplicates accumulate.
        acc = np.zeros(4, dtype=np.int64)
        index = np.array([1, 1, 1, 3], dtype=np.int64)
        delta = np.array([5, 7, -2, 9], dtype=np.int64)
        assert native.scatter_add(acc, index, delta) is True
        assert acc.tolist() == [0, 10, 0, 9]

    def test_xor_matches_fancy_indexing(self):
        rng = np.random.default_rng(7)
        acc = rng.integers(0, 2**63, 64, dtype=np.uint64)
        index = np.unique(rng.integers(0, 64, 16, dtype=np.int64))
        delta = rng.integers(0, 2**63, index.size, dtype=np.uint64)
        expected = acc.copy()
        expected[index] ^= delta
        assert native.scatter_xor(acc, index, delta) is True
        assert np.array_equal(acc, expected)

    def test_rejects_layouts(self):
        acc = np.zeros(8, dtype=np.int64)
        index = np.array([0, 1], dtype=np.int64)
        delta = np.array([1, 2], dtype=np.int64)
        assert native.scatter_add(np.zeros(8, dtype=np.int32), index,
                                  delta) is False
        assert native.scatter_add(acc, index.astype(np.uint64),
                                  delta) is False
        assert native.scatter_add(acc, index,
                                  delta[:1]) is False
        assert native.scatter_add(acc[::2], index, delta) is False
        ro = np.zeros(8, dtype=np.int64)
        ro.flags.writeable = False
        assert native.scatter_add(ro, index, delta) is False
        assert native.scatter_add(acc, np.zeros(0, dtype=np.int64),
                                  np.zeros(0, dtype=np.int64)) is False


class TestApplyAdd64:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000))
    def test_matches_wrapping_add(self, seed, n):
        rng = np.random.default_rng(seed)
        base = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        acc = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        with np.errstate(over="ignore"):
            expected = base + acc
        assert native.apply_add64(base, acc) is True
        assert np.array_equal(acc, expected)

    def test_rejects_layouts(self):
        base = np.zeros(8, dtype=np.int64)
        acc = np.zeros(8, dtype=np.int64)
        assert native.apply_add64(base.astype(np.float64),
                                  acc) is False
        assert native.apply_add64(base[:4], acc) is False
        assert native.apply_add64(base[::2], acc[::2]) is False
        ro = np.zeros(8, dtype=np.int64)
        ro.flags.writeable = False
        assert native.apply_add64(base, ro) is False


class TestRebaseStats:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000))
    def test_matches_numpy_rebase(self, seed, n):
        rng = np.random.default_rng(seed)
        root = rng.integers(-2**40, 2**40, n, dtype=np.int64)
        prior = rng.integers(-2**20, 2**20, n, dtype=np.int64)
        target = rng.integers(-2**40, 2**40, n, dtype=np.int64)
        fused = native.delta_zigzag_stats(target, root, prior)
        assert fused is not None
        codes, hist = fused
        with np.errstate(over="ignore"):
            delta = target - (root + prior)
        expected = delta_to_codes(delta, "arith")
        assert np.array_equal(codes, expected)
        assert np.array_equal(
            hist, CodeStats.from_codes(expected).width_counts)

    def test_rejects_layouts(self):
        a = np.zeros(8, dtype=np.int64)
        assert native.delta_zigzag_stats(a.astype(np.int32), a,
                                          a) is None
        assert native.delta_zigzag_stats(a, a[:4], a) is None
        assert native.delta_zigzag_stats(a[::2], a[::2],
                                          a[::2]) is None
        empty = np.zeros(0, dtype=np.int64)
        assert native.delta_zigzag_stats(empty, empty, empty) is None


class TestDisabledScope:
    def test_disabled_turns_every_kernel_off(self):
        codes = np.arange(8, dtype=np.uint64)
        acc = np.zeros(8, dtype=np.int64)
        idx = np.array([0], dtype=np.int64)
        one = np.array([1], dtype=np.int64)
        with native.disabled():
            assert native.zigzag_decode(codes) is None
            assert native.unpack_bits(b"\x00" * 8, 7, 4) is None
            assert native.scatter_add(acc, idx, one) is False
            assert native.scatter_xor(acc, idx, one) is False
            assert native.apply_add64(acc, acc.copy()) is False
            assert native.delta_zigzag_stats(acc, acc, acc) is None
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
            "idx = np.array([0], dtype=np.int64)\n"
            "one = np.array([1], dtype=np.int64)\n"
            "assert native.scatter_add(acc, idx, one) is False\n"
            "assert native.delta_zigzag_stats(acc, acc, acc) is None\n"
        )
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env=env)
