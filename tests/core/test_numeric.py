"""Tests for lossless numeric differencing (Section III-B.3 substrate)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import numeric
from repro.core.errors import CodecError, DeltaShapeMismatchError


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float32, np.float64]


class TestModeSelection:
    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_integers_use_arithmetic(self, dtype):
        assert numeric.delta_mode_for(dtype) == numeric.ARITHMETIC

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_floats_use_xor(self, dtype):
        assert numeric.delta_mode_for(dtype) == numeric.XOR

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(CodecError):
            numeric.delta_mode_for(np.dtype("complex128"))


class TestShapeChecks:
    def test_shape_mismatch(self):
        with pytest.raises(DeltaShapeMismatchError):
            numeric.compute_delta(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_dtype_mismatch(self):
        with pytest.raises(DeltaShapeMismatchError):
            numeric.compute_delta(np.zeros(3, dtype=np.int32),
                                  np.zeros(3, dtype=np.int64))


class TestRoundTrips:
    @pytest.mark.parametrize("dtype", INT_DTYPES + FLOAT_DTYPES)
    def test_identical_arrays_zero_delta(self, dtype, rng):
        a = (rng.normal(0, 50, size=(5, 7)) if np.dtype(dtype).kind == "f"
             else rng.integers(0, 100, size=(5, 7))).astype(dtype)
        delta, mode = numeric.compute_delta(a, a)
        assert not delta.any()
        recovered = numeric.apply_delta_forward(a, delta, mode, a.dtype)
        np.testing.assert_array_equal(recovered, a)

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_integer_forward(self, dtype, rng):
        info = np.iinfo(dtype)
        a = rng.integers(info.min, info.max, size=40,
                         endpoint=True, dtype=dtype)
        b = rng.integers(info.min, info.max, size=40,
                         endpoint=True, dtype=dtype)
        delta, mode = numeric.compute_delta(a, b)
        np.testing.assert_array_equal(
            numeric.apply_delta_forward(b, delta, mode, a.dtype), a)

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_float_forward_bit_exact(self, dtype, rng):
        a = rng.normal(0, 1e10, size=40).astype(dtype)
        b = rng.normal(0, 1e-10, size=40).astype(dtype)
        # Include the awkward IEEE citizens.
        a[0], a[1], a[2] = np.nan, np.inf, -0.0
        b[0], b[1], b[2] = 1.0, -np.inf, 0.0
        delta, mode = numeric.compute_delta(a, b)
        forward = numeric.apply_delta_forward(b, delta, mode, a.dtype)
        np.testing.assert_array_equal(forward.view(np.uint8).tobytes(),
                                      a.view(np.uint8).tobytes())

    def test_similar_floats_give_small_codes(self):
        # The XOR of close floats must zero the high bits — this is the
        # property that makes dense bit-packed float deltas small.
        a = np.array([1.0, 2.0, 3.0], dtype=np.float64)
        b = a + 1e-12
        delta, mode = numeric.compute_delta(b, a)
        assert mode == numeric.XOR
        assert int(delta.max()) < 2**30

    def test_unknown_mode_rejected(self):
        with pytest.raises(CodecError):
            numeric.apply_delta_forward(
                np.zeros(3), np.zeros(3, dtype=np.uint64), "bogus",
                np.float64)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           dtype=st.sampled_from([np.int16, np.int64, np.float32,
                                  np.float64]))
    def test_roundtrip_property(self, data, dtype):
        shape = data.draw(hnp.array_shapes(max_dims=3, max_side=8))
        elements = (
            st.floats(width=np.dtype(dtype).itemsize * 8,
                      allow_nan=False)
            if np.dtype(dtype).kind == "f"
            else st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max)
        )
        a = data.draw(hnp.arrays(dtype, shape, elements=elements))
        b = data.draw(hnp.arrays(dtype, shape, elements=elements))
        delta, mode = numeric.compute_delta(a, b)
        forward = numeric.apply_delta_forward(b, delta, mode, a.dtype)
        assert forward.tobytes() == a.tobytes()
