"""Tests for ArrayData and the three insert payload forms (Section II-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.array import (
    ArrayData,
    DeltaListPayload,
    DensePayload,
    SparsePayload,
    coords_and_values_from_dense,
)
from repro.core.errors import DimensionError, SchemaError
from repro.core.schema import ArraySchema, Attribute, Dimension


@pytest.fixture
def schema() -> ArraySchema:
    return ArraySchema.simple((3, 4), dtype=np.int32)


@pytest.fixture
def multi_schema() -> ArraySchema:
    return ArraySchema(
        dimensions=(Dimension("I", 0, 2), Dimension("J", 0, 3)),
        attributes=(Attribute("temp", np.float64, default=np.nan),
                    Attribute("count", np.int32, default=0)),
    )


class TestArrayData:
    def test_wraps_and_freezes(self, schema):
        values = np.arange(12, dtype=np.int32).reshape(3, 4)
        data = ArrayData.from_single(schema, values)
        stored = data.single()
        assert not stored.flags.writeable
        np.testing.assert_array_equal(stored, values)

    def test_freezes_its_own_view_not_the_callers_array(self, schema):
        values = np.arange(12, dtype=np.int32).reshape(3, 4)
        data = ArrayData.from_single(schema, values)
        assert values.flags.writeable
        assert not data.single().flags.writeable

    def test_shape_mismatch_rejected(self, schema):
        with pytest.raises(DimensionError):
            ArrayData.from_single(schema, np.zeros((4, 3), dtype=np.int32))

    def test_missing_attribute_rejected(self, multi_schema):
        with pytest.raises(SchemaError):
            ArrayData(multi_schema, {"temp": np.zeros((3, 4))})

    def test_unknown_attribute_rejected(self, schema):
        with pytest.raises(SchemaError):
            ArrayData(schema, {
                "value": np.zeros((3, 4), dtype=np.int32),
                "bogus": np.zeros((3, 4), dtype=np.int32),
            })

    def test_safe_casting(self, schema):
        # int64 -> int32 is same-kind and allowed.
        data = ArrayData.from_single(
            schema, np.arange(12, dtype=np.int64).reshape(3, 4))
        assert data.single().dtype == np.int32

    def test_defaults_fill(self, multi_schema):
        data = ArrayData.filled_with_defaults(multi_schema)
        assert np.isnan(data.attribute("temp")).all()
        assert (data.attribute("count") == 0).all()

    def test_nbytes(self, schema):
        data = ArrayData.from_single(
            schema, np.zeros((3, 4), dtype=np.int32))
        assert data.nbytes() == 48

    def test_slice_inclusive_corners(self, schema):
        values = np.arange(12, dtype=np.int32).reshape(3, 4)
        data = ArrayData.from_single(schema, values)
        sub = data.slice((1, 1), (2, 3))
        np.testing.assert_array_equal(sub.single(), values[1:3, 1:4])

    def test_slice_single_cell(self, schema):
        values = np.arange(12, dtype=np.int32).reshape(3, 4)
        data = ArrayData.from_single(schema, values)
        sub = data.slice((2, 3), (2, 3))
        assert sub.single().shape == (1, 1)
        assert sub.single()[0, 0] == values[2, 3]

    def test_slice_bad_corners(self, schema):
        data = ArrayData.from_single(
            schema, np.zeros((3, 4), dtype=np.int32))
        with pytest.raises(DimensionError):
            data.slice((2, 2), (1, 1))

    def test_equals(self, schema):
        values = np.arange(12, dtype=np.int32).reshape(3, 4)
        a = ArrayData.from_single(schema, values)
        b = ArrayData.from_single(schema, values.copy())
        c = ArrayData.from_single(schema, values + 1)
        assert a.equals(b)
        assert not a.equals(c)

    def test_single_requires_single_attribute(self, multi_schema):
        data = ArrayData.filled_with_defaults(multi_schema)
        with pytest.raises(SchemaError):
            data.single()


class TestDensePayload:
    def test_normalizes(self, schema):
        payload = DensePayload.of(np.ones((3, 4), dtype=np.int32))
        data = payload.to_array_data(schema)
        assert (data.single() == 1).all()


class TestSparsePayload:
    def test_defaults_and_scatter(self, schema):
        payload = SparsePayload.of(
            coords=np.array([[0, 0], [2, 3]]),
            values=np.array([7, 9], dtype=np.int32),
        )
        data = payload.to_array_data(schema)
        assert data.single()[0, 0] == 7
        assert data.single()[2, 3] == 9
        assert data.single()[1, 1] == 0  # schema default

    def test_out_of_bounds_rejected(self, schema):
        payload = SparsePayload.of(
            coords=np.array([[5, 0]]), values=np.array([1], dtype=np.int32))
        with pytest.raises(DimensionError):
            payload.to_array_data(schema)

    def test_count_mismatch_rejected(self, schema):
        payload = SparsePayload.of(
            coords=np.array([[0, 0], [1, 1]]),
            values=np.array([1], dtype=np.int32))
        with pytest.raises(DimensionError):
            payload.to_array_data(schema)

    def test_unknown_attribute_rejected(self, schema):
        payload = SparsePayload(cells={
            "nope": (np.array([[0, 0]]), np.array([1], dtype=np.int32))})
        with pytest.raises(SchemaError):
            payload.to_array_data(schema)

    def test_nonzero_origin(self):
        schema = ArraySchema(
            dimensions=(Dimension("X", 10, 12),),
            attributes=(Attribute("value", np.int32, default=-1),),
        )
        payload = SparsePayload.of(
            coords=np.array([[11]]), values=np.array([5], dtype=np.int32))
        data = payload.to_array_data(schema)
        np.testing.assert_array_equal(data.single(),
                                      np.array([-1, 5, -1], dtype=np.int32))


class TestDeltaListPayload:
    def test_inherits_from_base(self, schema):
        base = ArrayData.from_single(
            schema, np.arange(12, dtype=np.int32).reshape(3, 4))
        payload = DeltaListPayload.of(
            coords=np.array([[1, 1]]), values=np.array([99], dtype=np.int32),
            base_version=1)
        data = payload.to_array_data(schema, base=base)
        assert data.single()[1, 1] == 99
        assert data.single()[0, 0] == 0
        assert data.single()[2, 3] == 11

    def test_requires_base(self, schema):
        payload = DeltaListPayload.of(
            coords=np.array([[0, 0]]), values=np.array([1], dtype=np.int32),
            base_version=1)
        with pytest.raises(SchemaError):
            payload.to_array_data(schema, base=None)


class TestCoordsFromDense:
    def test_extracts_non_default_cells(self, schema):
        values = np.zeros((3, 4), dtype=np.int32)
        values[1, 2] = 5
        values[0, 3] = -1
        coords, extracted = coords_and_values_from_dense(schema, values, 0)
        assert len(coords) == 2
        rebuilt = SparsePayload.of(coords, extracted).to_array_data(schema)
        np.testing.assert_array_equal(rebuilt.single(), values)

    def test_nan_default(self):
        schema = ArraySchema.simple((2, 2), dtype=np.float64)
        values = np.full((2, 2), np.nan)
        values[0, 1] = 3.5
        coords, extracted = coords_and_values_from_dense(
            schema, values, np.nan)
        assert len(coords) == 1
        assert extracted[0] == 3.5
