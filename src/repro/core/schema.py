"""Array schemas: typed, fixed-size dimensions and typed cell attributes.

The paper (Section II-A) defines an array by a ``Create`` command that
specifies *dimensions* — typed, fixed-size integer coordinates such as
``X`` and ``Y`` ranging over ``[0, 100)`` — and *attributes* — the typed
values stored in each cell, such as a floating point ``temperature``.

This module provides the in-memory description of such a schema.  The
storage layer consults the schema to compute cell sizes, chunk strides and
on-disk layouts; the AQL layer builds schemas from ``CREATE UPDATABLE
ARRAY`` statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.errors import DimensionError, SchemaError

#: AQL type name -> numpy dtype.  The paper's examples use INTEGER and
#: DOUBLE; we support the full complement of fixed-width scalar types that
#: scientific arrays commonly need (Section VI notes that video codecs are
#: limited to 8/16-bit integers — our system is explicitly not).
AQL_TYPES: dict[str, np.dtype] = {
    "INT8": np.dtype(np.int8),
    "INT16": np.dtype(np.int16),
    "INT32": np.dtype(np.int32),
    "INTEGER": np.dtype(np.int32),
    "INT64": np.dtype(np.int64),
    "UINT8": np.dtype(np.uint8),
    "UINT16": np.dtype(np.uint16),
    "UINT32": np.dtype(np.uint32),
    "UINT64": np.dtype(np.uint64),
    "FLOAT": np.dtype(np.float32),
    "DOUBLE": np.dtype(np.float64),
}


def dtype_for_aql_type(name: str) -> np.dtype:
    """Return the numpy dtype for an AQL type name (case-insensitive)."""
    try:
        return AQL_TYPES[name.upper()]
    except KeyError:
        raise SchemaError(f"unknown AQL type {name!r}; expected one of "
                          f"{sorted(AQL_TYPES)}") from None


def aql_type_for_dtype(dtype: np.dtype) -> str:
    """Return a canonical AQL type name for a numpy dtype."""
    dtype = np.dtype(dtype)
    preferred = {
        np.dtype(np.int32): "INTEGER",
        np.dtype(np.float64): "DOUBLE",
        np.dtype(np.float32): "FLOAT",
    }
    if dtype in preferred:
        return preferred[dtype]
    for name, dt in AQL_TYPES.items():
        if dt == dtype:
            return name
    raise SchemaError(f"dtype {dtype} has no AQL equivalent")


@dataclass(frozen=True)
class Dimension:
    """A typed, fixed-size array dimension.

    ``lo`` and ``hi`` are inclusive bounds, matching the AQL syntax
    ``[I=0:2]`` which declares three cells with coordinates 0, 1 and 2.
    """

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise DimensionError(f"invalid dimension name {self.name!r}")
        if self.hi < self.lo:
            raise DimensionError(
                f"dimension {self.name}: hi ({self.hi}) < lo ({self.lo})")

    @property
    def length(self) -> int:
        """Number of cells along this dimension."""
        return self.hi - self.lo + 1

    def contains(self, coordinate: int) -> bool:
        """True when ``coordinate`` lies inside the dimension bounds."""
        return self.lo <= coordinate <= self.hi

    def to_aql(self) -> str:
        """Render the dimension in AQL syntax, e.g. ``I=0:2``."""
        return f"{self.name}={self.lo}:{self.hi}"


@dataclass(frozen=True)
class Attribute:
    """A typed attribute stored in every cell of an array.

    ``default`` is the value used to populate cells that a sparse payload
    leaves unspecified (the paper's "default-value" from the sparse insert
    representation); it defaults to zero of the attribute type.
    """

    name: str
    dtype: np.dtype
    default: float | int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid attribute name {self.name!r}")
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        # Normalize the default value to the attribute type so equality
        # and serialization round-trips are exact.
        object.__setattr__(
            self, "default", self.dtype.type(self.default).item())

    @property
    def itemsize(self) -> int:
        """Bytes per cell for this attribute."""
        return self.dtype.itemsize

    def to_aql(self) -> str:
        """Render the attribute in AQL syntax, e.g. ``A::INTEGER``."""
        return f"{self.name}::{aql_type_for_dtype(self.dtype)}"


@dataclass(frozen=True)
class ArraySchema:
    """The full schema of a versioned array: dimensions plus attributes.

    Examples
    --------
    >>> schema = ArraySchema(
    ...     dimensions=(Dimension("I", 0, 2), Dimension("J", 0, 2)),
    ...     attributes=(Attribute("A", np.int32),),
    ... )
    >>> schema.shape
    (3, 3)
    >>> schema.cell_count
    9
    """

    dimensions: tuple[Dimension, ...]
    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.dimensions:
            raise SchemaError("an array needs at least one dimension")
        if not self.attributes:
            raise SchemaError("an array needs at least one attribute")
        names = [d.name for d in self.dimensions] + \
                [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate dimension/attribute names: {names}")

    # ------------------------------------------------------------------
    # Geometry helpers (the derived ones are computed once per schema;
    # a cached value is no field, so equality and hashing ignore it)
    # ------------------------------------------------------------------
    @cached_property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.dimensions)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """Cell counts per dimension."""
        return tuple(d.length for d in self.dimensions)

    def sliced(self, shape: tuple[int, ...]) -> "ArraySchema":
        """The schema of a ``shape``-sized box of this one: the same
        names and attributes, zero-based.  Built once per shape and
        kept on this schema (its last 256 box shapes), so repeated
        region reads share one immutable schema object and a lookup
        hashes only ``shape``."""
        boxes = self._boxes
        sliced = boxes.get(shape)
        if sliced is None:
            if len(boxes) >= 256:
                boxes.clear()
            sliced = boxes[shape] = ArraySchema(
                dimensions=tuple(Dimension(d.name, 0, extent - 1)
                                 for d, extent in zip(self.dimensions,
                                                      shape)),
                attributes=self.attributes)
        return sliced

    @cached_property
    def _boxes(self) -> dict:
        return {}

    @cached_property
    def origin(self) -> tuple[int, ...]:
        """Lower coordinate bound per dimension."""
        return tuple(d.lo for d in self.dimensions)

    @property
    def cell_count(self) -> int:
        """Total number of cells in the array."""
        return math.prod(self.shape)

    @property
    def cell_size(self) -> int:
        """Bytes per cell, summed over all attributes."""
        return sum(a.itemsize for a in self.attributes)

    @property
    def dense_size(self) -> int:
        """Bytes needed to fully materialize one version, uncompressed."""
        return self.cell_count * self.cell_size

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"array has no attribute {name!r}; "
                          f"attributes are {[a.name for a in self.attributes]}")

    def to_zero_based(self, coordinates: tuple[int, ...]) -> tuple[int, ...]:
        """Translate user coordinates into zero-based array indices."""
        if len(coordinates) != self.ndim:
            raise DimensionError(
                f"expected {self.ndim} coordinates, got {len(coordinates)}")
        zero = []
        for dim, coord in zip(self.dimensions, coordinates):
            if not dim.contains(coord):
                raise DimensionError(
                    f"coordinate {coord} outside dimension {dim.to_aql()}")
            zero.append(coord - dim.lo)
        return tuple(zero)

    def unflatten_index(self, flat: int) -> tuple[int, ...]:
        """The user coordinate tuple of a row-major flat index."""
        if not 0 <= flat < self.cell_count:
            raise DimensionError(
                f"flat index {flat} outside [0, {self.cell_count})")
        zero = []
        for extent in reversed(self.shape):
            zero.append(flat % extent)
            flat //= extent
        zero.reverse()
        return tuple(z + d.lo for z, d in zip(zero, self.dimensions))

    # ------------------------------------------------------------------
    # Rendering / serialization
    # ------------------------------------------------------------------
    def to_aql(self) -> str:
        """Render the schema in ``CREATE UPDATABLE ARRAY`` body syntax."""
        attrs = ", ".join(a.to_aql() for a in self.attributes)
        dims = ", ".join(d.to_aql() for d in self.dimensions)
        return f"( {attrs} ) [ {dims} ]"

    def to_dict(self) -> dict:
        """JSON-serializable description, used by the metadata catalog."""
        return {
            "dimensions": [
                {"name": d.name, "lo": d.lo, "hi": d.hi}
                for d in self.dimensions
            ],
            "attributes": [
                {"name": a.name, "dtype": a.dtype.str, "default": a.default}
                for a in self.attributes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArraySchema":
        """Inverse of :meth:`to_dict`."""
        dims = tuple(Dimension(d["name"], int(d["lo"]), int(d["hi"]))
                     for d in data["dimensions"])
        attrs = tuple(Attribute(a["name"], np.dtype(a["dtype"]),
                                a.get("default", 0))
                      for a in data["attributes"])
        return cls(dimensions=dims, attributes=attrs)

    @classmethod
    def simple(cls, shape: tuple[int, ...], dtype=np.float64,
               attribute: str = "value", default=0,
               dim_names: tuple[str, ...] | None = None) -> "ArraySchema":
        """Build a single-attribute schema from a plain shape.

        This is the convenience constructor used throughout the examples
        and benchmarks when the array carries one attribute and dimensions
        start at zero.
        """
        if dim_names is None:
            base = ("I", "J", "K", "L", "M", "N")
            if len(shape) <= len(base):
                dim_names = base[:len(shape)]
            else:
                dim_names = tuple(f"D{i}" for i in range(len(shape)))
        if len(dim_names) != len(shape):
            raise SchemaError("dim_names length must match shape length")
        dims = tuple(Dimension(n, 0, extent - 1)
                     for n, extent in zip(dim_names, shape))
        attrs = (Attribute(attribute, np.dtype(dtype), default),)
        return cls(dimensions=dims, attributes=attrs)
