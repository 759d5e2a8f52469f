"""Array partitioning across storage nodes (Section II).

"Each array may be partitioned across several storage system nodes, and
each machine runs its own instance of the storage system.  Each node
thereby separately encodes the versions of each partition on its local
storage system."  The paper defers partitioning policy to the ArrayStore
work it cites [2]; this module implements ArrayStore-style *regular
range partitioning*: the array is split into contiguous bands along one
dimension, one band per node.

The partitioner is pure geometry: it maps cells and query regions onto
(node, local-coordinate) pairs.  The coordinator composes it with one
:class:`~repro.storage.manager.VersionedStorageManager` per node (per
replica, when replication is on).

:func:`rebalance_plan` extends the geometry to *resharding*: given the
partitioner of the current cluster and the partitioner of the target
node count, it derives the complete set of :class:`MigrationSlab` moves
— which contiguous row ranges leave which old band for which new band.
The plan is pure and total (the slabs are disjoint and cover the whole
domain), and its order is shuffled deterministically by a seed so the
chaos suite can sweep migration schedules without changing coverage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.array import ArrayData
from repro.core.errors import DimensionError, StorageError
from repro.core.schema import ArraySchema, Attribute, Dimension


@dataclass(frozen=True)
class Band:
    """One node's share: a zero-based inclusive slab along one axis."""

    node: int
    lo: int
    hi: int

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


class RangePartitioner:
    """Contiguous equal bands along a chosen dimension."""

    def __init__(self, shape: tuple[int, ...], nodes: int,
                 axis: int = 0):
        if nodes < 1:
            raise StorageError("need at least one node")
        if not 0 <= axis < len(shape):
            raise DimensionError(
                f"axis {axis} out of range for shape {shape}")
        if shape[axis] < nodes:
            raise StorageError(
                f"dimension {axis} has {shape[axis]} cells; cannot give "
                f"each of {nodes} nodes a nonempty band")
        self.shape = tuple(shape)
        self.nodes = nodes
        self.axis = axis

        extent = shape[axis]
        base = extent // nodes
        remainder = extent % nodes
        self.bands: list[Band] = []
        cursor = 0
        for node in range(nodes):
            length = base + (1 if node < remainder else 0)
            self.bands.append(Band(node, cursor, cursor + length - 1))
            cursor += length

    # ------------------------------------------------------------------
    def band_of(self, node: int) -> Band:
        if not 0 <= node < self.nodes:
            raise StorageError(f"no node {node} (cluster has "
                               f"{self.nodes})")
        return self.bands[node]

    def local_shape(self, node: int) -> tuple[int, ...]:
        """The shape of one node's partition."""
        band = self.band_of(node)
        shape = list(self.shape)
        shape[self.axis] = band.length
        return tuple(shape)

    def node_for_cell(self, cell: tuple[int, ...]) -> int:
        """The node owning one zero-based cell."""
        coordinate = cell[self.axis]
        for band in self.bands:
            if band.lo <= coordinate <= band.hi:
                return band.node
        raise DimensionError(
            f"cell {cell} outside partitioned extent")

    def to_local(self, node: int,
                 cell: tuple[int, ...]) -> tuple[int, ...]:
        """Translate a global cell into a node's local coordinates."""
        band = self.band_of(node)
        local = list(cell)
        local[self.axis] = cell[self.axis] - band.lo
        return tuple(local)

    def bands_overlapping(self, lo: tuple[int, ...],
                          hi: tuple[int, ...]) -> list[Band]:
        """Nodes whose band intersects a zero-based inclusive region."""
        return [band for band in self.bands
                if band.lo <= hi[self.axis] and lo[self.axis] <= band.hi]

    def clip_region(self, band: Band, lo: tuple[int, ...],
                    hi: tuple[int, ...]
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A region clipped to one band, in that node's local frame."""
        local_lo = list(lo)
        local_hi = list(hi)
        local_lo[self.axis] = max(lo[self.axis], band.lo) - band.lo
        local_hi[self.axis] = min(hi[self.axis], band.hi) - band.lo
        return tuple(local_lo), tuple(local_hi)


def axis_index(ndim: int, axis: int, lo: int, hi: int) -> tuple:
    """The index selecting rows ``lo..hi`` (inclusive) along ``axis``
    and everything along every other dimension."""
    return tuple(slice(lo, hi + 1) if dim == axis else slice(None)
                 for dim in range(ndim))


def band_schema(schema: ArraySchema,
                local_shape: tuple[int, ...]) -> ArraySchema:
    """The schema of one node's partition (zero-based, band-sized)."""
    dims = tuple(
        Dimension(dim.name, 0, extent - 1)
        for dim, extent in zip(schema.dimensions, local_shape))
    attrs = tuple(
        Attribute(attr.name, attr.dtype, attr.default)
        for attr in schema.attributes)
    return ArraySchema(dimensions=dims, attributes=attrs)


def band_slice(schema: ArraySchema, partitioner: "RangePartitioner",
               node: int, data: ArrayData) -> ArrayData:
    """One node's band of a full-array payload, as local ArrayData."""
    band = partitioner.band_of(node)
    index = axis_index(schema.ndim, partitioner.axis, band.lo, band.hi)
    return ArrayData(
        band_schema(schema, partitioner.local_shape(node)),
        {attr.name: data.attribute(attr.name)[index]
         for attr in schema.attributes})


@dataclass(frozen=True)
class MigrationSlab:
    """One contiguous slab moving between partitionings during a
    rebalance: global rows ``lo..hi`` (inclusive, along the partition
    axis) leave old band ``source`` for new band ``target``.

    An online rebalance replays every slab once per catch-up pass, so
    a malformed slab (an inverted range, a negative band index) would
    corrupt *every* pass rather than one copy; the invariants are
    therefore validated at construction, not at use.
    """

    source: int
    target: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.source < 0 or self.target < 0:
            raise StorageError(
                f"migration slab bands must be non-negative, got "
                f"source={self.source} target={self.target}")
        if self.lo < 0 or self.hi < self.lo:
            raise StorageError(
                f"migration slab range must satisfy 0 <= lo <= hi, "
                f"got lo={self.lo} hi={self.hi}")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


def rebalance_plan(old: "RangePartitioner", new: "RangePartitioner",
                   seed: int = 0) -> list[MigrationSlab]:
    """The migration slabs that reshard ``old`` into ``new``.

    Pure geometry over two partitionings of the *same* array domain:
    every new band's extent is the union of its intersections with the
    old bands, so the returned slabs are pairwise disjoint and cover
    the partition axis exactly once — resharding moves every cell,
    loses none, and duplicates none (the property suite proves all
    three for random geometries).

    ``seed`` deterministically shuffles the slab order.  The order
    never changes *what* migrates, only *when*, which is exactly the
    degree of freedom a fault-injection sweep wants to explore: a node
    dying mid-migration interrupts a different slab under a different
    seed, while any fixed seed replays the identical schedule.
    """
    if old.shape != new.shape:
        raise StorageError(
            f"cannot rebalance between different array shapes "
            f"{old.shape} and {new.shape}")
    if old.axis != new.axis:
        raise StorageError(
            f"cannot rebalance across partition axes "
            f"{old.axis} and {new.axis}")
    slabs = []
    for new_band in new.bands:
        for old_band in old.bands:
            lo = max(new_band.lo, old_band.lo)
            hi = min(new_band.hi, old_band.hi)
            if lo <= hi:
                slabs.append(MigrationSlab(old_band.node, new_band.node,
                                           lo, hi))
    random.Random(seed).shuffle(slabs)
    return slabs
