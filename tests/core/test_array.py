"""Tests for ArrayData and the three insert payload forms (Section II-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.array import (
    ArrayData,
    DeltaListPayload,
    DensePayload,
    SparsePayload,
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

    def test_nbytes(self, schema):
        data = ArrayData.from_single(
            schema, np.zeros((3, 4), dtype=np.int32))
        assert data.nbytes() == 48

    def test_single_requires_single_attribute(self, multi_schema):
        data = ArrayData(multi_schema, {
            "temp": np.zeros((3, 4)),
            "count": np.zeros((3, 4), dtype=np.int32)})
        with pytest.raises(SchemaError):
            data.single()

    def test_conforming_same_layout(self, schema):
        data = ArrayData.from_single(
            schema, np.zeros((3, 4), dtype=np.int32))
        # Dimension names and origins are free; shape and cells are not.
        shifted = ArraySchema(
            dimensions=(Dimension("X", 5, 7), Dimension("Y", 1, 4)),
            attributes=schema.attributes)
        assert data.conforming(shifted) is data

    def test_conforming_rejects_other_layout(self, schema):
        data = ArrayData.from_single(
            schema, np.zeros((3, 4), dtype=np.int32))
        with pytest.raises(SchemaError):
            data.conforming(ArraySchema.simple((4, 3), dtype=np.int32))
        with pytest.raises(SchemaError):
            data.conforming(ArraySchema.simple((3, 4), dtype=np.int64))


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

    def test_defaults_fill(self, multi_schema):
        # Unlisted cells, and attributes with no cells at all, take the
        # schema default — NaN included.
        payload = SparsePayload(cells={
            "temp": (np.array([[1, 2]]), np.array([3.5]))})
        data = payload.to_array_data(multi_schema)
        temp = data.attribute("temp")
        assert temp[1, 2] == 3.5
        assert np.isnan(temp).sum() == 11
        assert (data.attribute("count") == 0).all()

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

