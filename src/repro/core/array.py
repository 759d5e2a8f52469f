"""In-memory array values and the three insert payload representations.

Section II-A of the paper defines three payload forms for ``Insert``:

1. *dense* — every attribute of every cell, row major, dimensions implied;
2. *sparse* — a list of ``(dimension, attribute)`` value pairs plus a
   default value for unspecified cells;
3. *delta-list* — a list of ``(dimension, attribute)`` value pairs plus a
   base version the new version inherits from.

:class:`ArrayData` is the normalized in-memory form (one numpy array per
attribute, row-major, zero-based).  The payload classes each know how to
normalize themselves into an :class:`ArrayData` given a schema (and, for
delta lists, the contents of the base version).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.errors import (
    AttributeTypeError,
    DimensionError,
    SchemaError,
)
from repro.core.schema import ArraySchema


class ArrayData:
    """The fully-evaluated contents of one array version.

    Holds one row-major numpy array per attribute, all with the schema's
    shape.  Instances are treated as immutable by the storage layer: the
    constructor defensively marks the underlying buffers read-only so the
    no-overwrite contract cannot be violated by aliasing.
    """

    def __init__(self, schema: ArraySchema,
                 attributes: Mapping[str, np.ndarray]):
        self.schema = schema
        normalized: dict[str, np.ndarray] = {}
        for attr in schema.attributes:
            if attr.name not in attributes:
                raise SchemaError(f"payload missing attribute {attr.name!r}")
            values = np.asarray(attributes[attr.name])
            if values.shape != schema.shape:
                raise DimensionError(
                    f"attribute {attr.name!r}: payload shape {values.shape} "
                    f"does not match schema shape {schema.shape}")
            if values.dtype != attr.dtype:
                try:
                    values = values.astype(attr.dtype, casting="same_kind")
                except TypeError as exc:
                    raise AttributeTypeError(
                        f"attribute {attr.name!r}: cannot cast "
                        f"{values.dtype} to {attr.dtype}") from exc
            values = np.ascontiguousarray(values)
            values.setflags(write=False)
            normalized[attr.name] = values
        extra = set(attributes) - {a.name for a in schema.attributes}
        if extra:
            raise SchemaError(f"payload has unknown attributes {sorted(extra)}")
        self._attributes = normalized

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_single(cls, schema: ArraySchema, values: np.ndarray) -> "ArrayData":
        """Wrap a single ndarray for a single-attribute schema."""
        if len(schema.attributes) != 1:
            raise SchemaError(
                "from_single requires a single-attribute schema; "
                f"this schema has {len(schema.attributes)} attributes")
        return cls(schema, {schema.attributes[0].name: values})

    @classmethod
    def filled_with_defaults(cls, schema: ArraySchema) -> "ArrayData":
        """An array where every cell holds each attribute's default."""
        return cls(schema, {
            attr.name: np.full(schema.shape, attr.default, dtype=attr.dtype)
            for attr in schema.attributes
        })

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema.attributes)

    def attribute(self, name: str) -> np.ndarray:
        """The (read-only) ndarray of one attribute."""
        self.schema.attribute(name)  # validates the name
        return self._attributes[name]

    def single(self) -> np.ndarray:
        """The ndarray of a single-attribute array."""
        if len(self._attributes) != 1:
            raise SchemaError("single() requires a single-attribute array")
        return next(iter(self._attributes.values()))

    def nbytes(self) -> int:
        """Total uncompressed bytes across all attributes."""
        return sum(v.nbytes for v in self._attributes.values())

    def slice(self, corner_lo: tuple[int, ...],
              corner_hi: tuple[int, ...]) -> "ArrayData":
        """Return the hyper-rectangle between two *inclusive* user corners.

        This implements the paper's second Select form: two coordinates
        naming opposite corners of a hyper-rectangle.
        """
        lo = self.schema.to_zero_based(corner_lo)
        hi = self.schema.to_zero_based(corner_hi)
        if any(h < l for l, h in zip(lo, hi)):
            raise DimensionError(
                f"corner {corner_hi} precedes corner {corner_lo}")
        index = tuple(np.s_[l:h + 1] for l, h in zip(lo, hi))
        sub_schema = ArraySchema.simple(
            tuple(h - l + 1 for l, h in zip(lo, hi)),
            dtype=self.schema.attributes[0].dtype,
            attribute=self.schema.attributes[0].name,
        ) if len(self.schema.attributes) == 1 else _sliced_schema(
            self.schema, lo, hi)
        return ArrayData(sub_schema, {
            name: values[index] for name, values in self._attributes.items()
        })

    def conforming(self, schema: ArraySchema) -> "ArrayData":
        """``self``, once known to be laid out as ``schema`` says.

        The constructor checks the arrays against the schema it is
        given; a store must also check that schema against the array
        being inserted into — same shape, same attribute names and
        cell types (dimension names and origins are free: slices and
        cluster bands are zero-based).
        """
        mine, wanted = (
            (s.shape, [(a.name, a.dtype) for a in s.attributes])
            for s in (self.schema, schema))
        if mine != wanted:
            raise SchemaError(
                f"payload is laid out as {mine}, the array as {wanted}")
        return self

    def equals(self, other: "ArrayData") -> bool:
        """Exact cell-wise equality across all attributes."""
        if self.attribute_names != other.attribute_names:
            return False
        return all(
            np.array_equal(self._attributes[n], other._attributes[n])
            for n in self.attribute_names
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ArrayData(shape={self.schema.shape}, "
                f"attributes={list(self._attributes)})")


def _sliced_schema(schema: ArraySchema, lo: tuple[int, ...],
                   hi: tuple[int, ...]) -> ArraySchema:
    """Schema for a hyper-rectangle slice (multi-attribute case)."""
    from repro.core.schema import Dimension

    dims = tuple(
        Dimension(d.name, 0, h - l)
        for d, l, h in zip(schema.dimensions, lo, hi)
    )
    return ArraySchema(dimensions=dims, attributes=schema.attributes)


# ----------------------------------------------------------------------
# Insert payload forms (Section II-A)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DensePayload:
    """Form 1: every attribute of every cell, row major.

    ``attributes`` maps attribute name to an ndarray of the schema's shape
    (or, for single-attribute arrays, a bare ndarray may be supplied via
    :meth:`of`).
    """

    attributes: Mapping[str, np.ndarray]

    @classmethod
    def of(cls, values: np.ndarray, attribute: str = "value") -> "DensePayload":
        return cls(attributes={attribute: values})

    def to_array_data(self, schema: ArraySchema,
                      base: ArrayData | None = None) -> ArrayData:
        del base  # dense payloads are self-contained
        return ArrayData(schema, self.attributes)


@dataclass(frozen=True)
class SparsePayload:
    """Form 2: ``(coordinates, value)`` pairs plus attribute defaults.

    ``cells`` maps attribute name to a pair ``(coords, values)`` where
    ``coords`` is an ``(n, ndim)`` integer array of user coordinates and
    ``values`` an ``(n,)`` array.  Cells not listed take the attribute's
    schema default.
    """

    cells: Mapping[str, tuple[np.ndarray, np.ndarray]]

    @classmethod
    def of(cls, coords: np.ndarray, values: np.ndarray,
           attribute: str = "value") -> "SparsePayload":
        return cls(cells={attribute: (np.asarray(coords), np.asarray(values))})

    def to_array_data(self, schema: ArraySchema,
                      base: ArrayData | None = None) -> ArrayData:
        del base  # sparse payloads populate unspecified cells from defaults
        dense = {}
        for attr in schema.attributes:
            canvas = np.full(schema.shape, attr.default, dtype=attr.dtype)
            if attr.name in self.cells:
                coords, values = self.cells[attr.name]
                _scatter(schema, canvas, coords, values)
            dense[attr.name] = canvas
        unknown = set(self.cells) - {a.name for a in schema.attributes}
        if unknown:
            raise SchemaError(f"sparse payload names unknown attributes "
                              f"{sorted(unknown)}")
        return ArrayData(schema, dense)


@dataclass(frozen=True)
class DeltaListPayload:
    """Form 3: ``(coordinates, value)`` pairs applied on top of a base version.

    The new version is identical to ``base_version`` except at the listed
    coordinates.  The storage manager resolves ``base_version`` to its
    contents before calling :meth:`to_array_data`.
    """

    cells: Mapping[str, tuple[np.ndarray, np.ndarray]]
    base_version: int

    @classmethod
    def of(cls, coords: np.ndarray, values: np.ndarray, base_version: int,
           attribute: str = "value") -> "DeltaListPayload":
        return cls(cells={attribute: (np.asarray(coords), np.asarray(values))},
                   base_version=base_version)

    def to_array_data(self, schema: ArraySchema,
                      base: ArrayData | None = None) -> ArrayData:
        if base is None:
            raise SchemaError(
                "delta-list payloads require the base version's contents")
        dense = {}
        for attr in schema.attributes:
            canvas = base.attribute(attr.name).copy()
            if attr.name in self.cells:
                coords, values = self.cells[attr.name]
                _scatter(schema, canvas, coords, values)
            dense[attr.name] = canvas
        return ArrayData(schema, dense)


Payload = DensePayload | SparsePayload | DeltaListPayload


def _scatter(schema: ArraySchema, canvas: np.ndarray,
             coords: np.ndarray, values: np.ndarray) -> None:
    """Write ``values`` at user ``coords`` into a zero-based canvas."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    values = np.asarray(values)
    if coords.ndim != 2 or coords.shape[1] != schema.ndim:
        raise DimensionError(
            f"coords must have shape (n, {schema.ndim}); got {coords.shape}")
    if len(values) != len(coords):
        raise DimensionError(
            f"{len(coords)} coordinates but {len(values)} values")
    origin = np.array(schema.origin, dtype=np.int64)
    zero = coords - origin
    shape = np.array(schema.shape, dtype=np.int64)
    if np.any(zero < 0) or np.any(zero >= shape):
        bad = coords[np.any((zero < 0) | (zero >= shape), axis=1)][0]
        raise DimensionError(f"coordinate {tuple(int(c) for c in bad)} "
                             f"outside array bounds")
    canvas[tuple(zero.T)] = values


def coords_and_values_from_dense(
        schema: ArraySchema, values: np.ndarray,
        default) -> tuple[np.ndarray, np.ndarray]:
    """Extract the sparse ``(coords, values)`` form of a dense array.

    Returns the user-space coordinates and values of every cell that
    differs from ``default``.  NaN defaults compare by ``isnan``.
    """
    values = np.asarray(values)
    if isinstance(default, float) and np.isnan(default):
        mask = ~np.isnan(values)
    else:
        mask = values != default
    zero_coords = np.argwhere(mask)
    origin = np.array(schema.origin, dtype=np.int64)
    return zero_coords + origin, values[mask]
