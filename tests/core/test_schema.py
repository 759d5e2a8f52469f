"""Tests for the array schema model (Section II-A Create semantics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import DimensionError, SchemaError
from repro.core.schema import (
    ArraySchema,
    Attribute,
    Dimension,
    aql_type_for_dtype,
    dtype_for_aql_type,
)


class TestDimension:
    def test_length_inclusive(self):
        # The paper's example [I=0:2] has three cells.
        assert Dimension("I", 0, 2).length == 3

    def test_contains(self):
        dim = Dimension("X", 5, 10)
        assert dim.contains(5)
        assert dim.contains(10)
        assert not dim.contains(4)
        assert not dim.contains(11)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DimensionError):
            Dimension("I", 3, 2)

    def test_bad_name_rejected(self):
        with pytest.raises(DimensionError):
            Dimension("2bad", 0, 1)

    def test_aql_rendering(self):
        assert Dimension("I", 0, 2).to_aql() == "I=0:2"


class TestAttribute:
    def test_default_normalized_to_dtype(self):
        attr = Attribute("A", np.int32, default=3.0)
        assert attr.default == 3
        assert isinstance(attr.default, int)

    def test_itemsize(self):
        assert Attribute("A", np.float64).itemsize == 8
        assert Attribute("A", np.int8).itemsize == 1

    def test_aql_rendering(self):
        assert Attribute("A", np.int32).to_aql() == "A::INTEGER"
        assert Attribute("B", np.float64).to_aql() == "B::DOUBLE"


class TestAqlTypes:
    def test_integer_maps_to_int32(self):
        assert dtype_for_aql_type("INTEGER") == np.dtype(np.int32)

    def test_case_insensitive(self):
        assert dtype_for_aql_type("double") == np.dtype(np.float64)

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            dtype_for_aql_type("VARCHAR")

    def test_roundtrip(self):
        for name in ("INTEGER", "DOUBLE", "FLOAT", "INT64", "UINT8"):
            assert aql_type_for_dtype(dtype_for_aql_type(name)) == name


class TestArraySchema:
    @pytest.fixture
    def schema(self) -> ArraySchema:
        return ArraySchema(
            dimensions=(Dimension("I", 0, 2), Dimension("J", 10, 14)),
            attributes=(Attribute("A", np.int32),
                        Attribute("B", np.float64)),
        )

    def test_shape_and_counts(self, schema):
        assert schema.shape == (3, 5)
        assert schema.cell_count == 15
        assert schema.cell_size == 12
        assert schema.dense_size == 180

    def test_origin(self, schema):
        assert schema.origin == (0, 10)

    def test_needs_dimension(self):
        with pytest.raises(SchemaError):
            ArraySchema(dimensions=(), attributes=(Attribute("A", np.int8),))

    def test_needs_attribute(self):
        with pytest.raises(SchemaError):
            ArraySchema(dimensions=(Dimension("I", 0, 1),), attributes=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            ArraySchema(
                dimensions=(Dimension("A", 0, 1),),
                attributes=(Attribute("A", np.int8),),
            )

    def test_attribute_lookup(self, schema):
        assert schema.attribute("B").dtype == np.dtype(np.float64)
        with pytest.raises(SchemaError):
            schema.attribute("missing")

    def test_zero_based_translation(self, schema):
        assert schema.to_zero_based((0, 10)) == (0, 0)
        assert schema.to_zero_based((2, 14)) == (2, 4)
        with pytest.raises(DimensionError):
            schema.to_zero_based((0, 9))
        with pytest.raises(DimensionError):
            schema.to_zero_based((0,))

    def test_flatten_roundtrip(self, schema):
        for flat in range(schema.cell_count):
            coords = schema.unflatten_index(flat)
            zero = schema.to_zero_based(coords)
            assert np.ravel_multi_index(zero, schema.shape) == flat
        with pytest.raises(DimensionError):
            schema.unflatten_index(schema.cell_count)

    def test_to_zero_based_bounds(self, schema):
        assert schema.to_zero_based((1, 12)) == (1, 2)
        with pytest.raises(DimensionError):
            schema.to_zero_based((3, 12))
        with pytest.raises(DimensionError):
            schema.to_zero_based((1,))

    def test_dict_roundtrip(self, schema):
        rebuilt = ArraySchema.from_dict(schema.to_dict())
        assert rebuilt == schema

    def test_aql_rendering(self, schema):
        text = schema.to_aql()
        assert "A::INTEGER" in text
        assert "I=0:2" in text

    def test_simple_constructor(self):
        schema = ArraySchema.simple((4, 6), dtype=np.float32)
        assert schema.shape == (4, 6)
        assert schema.attributes[0].name == "value"
        assert schema.dimensions[0].name == "I"

    def test_simple_many_dims(self):
        schema = ArraySchema.simple((2,) * 8, dtype=np.int8)
        assert schema.ndim == 8
        assert len({d.name for d in schema.dimensions}) == 8

    def test_simple_dim_names_mismatch(self):
        with pytest.raises(SchemaError):
            ArraySchema.simple((2, 3), dim_names=("X",))
