"""Fixed-stride chunking of array versions (Section III-B.1).

"Recall that arrays are 'chunked' into fixed sized sub-arrays.  The size
of an uncompressed chunk (in bytes) is defined by a compile-time
parameter in the storage system; by default we use 10 Mbyte chunks.  The
storage manager computes the number of cells that can fit into a single
chunk, and divides the dimensions evenly amongst chunks."

The paper's worked example: a 2-D array with 8-byte cells and 1 MB chunks
stores 128 Kcells per chunk, hence a stride of ceil(sqrt(128K)) = 358
cells per side, and each chunk lives in its own file named by its cell
range (``chunk-0-0-357-357.dat`` ...).  "Every version of a given array
is chunked identically", and "since chunks have a regular structure,
there is a straight-forward mapping of chunk locations to disk
containers, and no indexing is required" — :meth:`ChunkGrid.chunk_for_cell`
is that closed-form mapping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from repro.core.errors import DimensionError, StorageError

#: The paper's default chunk byte budget (Section III-B.1).
DEFAULT_CHUNK_BYTES = 10 * 2 ** 20


def stride_for(chunk_bytes: int, cell_size: int, ndim: int) -> int:
    """Cells per side of a chunk.

    The largest stride whose chunk still fits the byte budget, i.e.
    ``floor(cells ** (1/ndim))``.  (The paper's worked example quotes 358
    for 1 MB / 8 B chunks because it treats 128 kcells as decimal; with
    binary kcells the same formula gives 362.)

    >>> stride_for(2 ** 20, 8, 2)
    362
    """
    if chunk_bytes < cell_size:
        raise StorageError(
            f"chunk budget {chunk_bytes} B smaller than one cell "
            f"({cell_size} B)")
    cells = chunk_bytes // cell_size
    stride = max(1, int(cells ** (1.0 / ndim)))
    # Floating point roots can land one off; nudge to the exact floor.
    while (stride + 1) ** ndim <= cells:
        stride += 1
    while stride > 1 and stride ** ndim > cells:
        stride -= 1
    return stride


@dataclass(frozen=True)
class ChunkRef:
    """One chunk of the grid: its index vector and zero-based cell range.

    ``lo`` and ``hi`` are inclusive cell bounds, mirroring the file
    naming scheme of Section III-B.1.
    """

    index: tuple[int, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    @cached_property
    def name(self) -> str:
        """The paper's file name: ``chunk-<lo...>-<hi...>.dat``."""
        parts = [str(c) for c in self.lo] + [str(c) for c in self.hi]
        return "chunk-" + "-".join(parts) + ".dat"

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple([h - l + 1 for l, h in zip(self.lo, self.hi)])

    @cached_property
    def cell_count(self) -> int:
        return math.prod(self.shape)

    def slices(self) -> tuple[slice, ...]:
        """Numpy basic-indexing slices selecting this chunk's cells."""
        return tuple(slice(l, h + 1) for l, h in zip(self.lo, self.hi))


class ChunkGrid:
    """The regular chunk decomposition shared by every version of an array.

    By default the byte budget is divided evenly amongst dimensions (the
    paper's scheme).  ``chunk_shape`` overrides the per-dimension strides
    explicitly — the "more flexible chunking schemes" the paper notes
    SciDB was exploring, useful when access patterns favour one
    dimension (e.g. full-row reads want wide, flat chunks).
    """

    def __init__(self, shape: tuple[int, ...], cell_size: int,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 chunk_shape: tuple[int, ...] | None = None):
        if not shape:
            raise DimensionError("cannot chunk a zero-dimensional array")
        self.shape = tuple(int(extent) for extent in shape)
        self.cell_size = int(cell_size)
        self.chunk_bytes = int(chunk_bytes)
        if chunk_shape is None:
            stride = stride_for(self.chunk_bytes, self.cell_size,
                                len(self.shape))
            self.strides = tuple(stride for _ in self.shape)
        else:
            if len(chunk_shape) != len(self.shape):
                raise DimensionError(
                    f"chunk_shape has {len(chunk_shape)} dims; the array "
                    f"has {len(self.shape)}")
            if any(extent < 1 for extent in chunk_shape):
                raise DimensionError("chunk_shape extents must be >= 1")
            self.strides = tuple(int(extent) for extent in chunk_shape)
        self.counts = tuple(
            (extent + stride - 1) // stride
            for extent, stride in zip(self.shape, self.strides))

    @property
    def stride(self) -> int:
        """The uniform stride (defined only for even grids)."""
        first = self.strides[0]
        if any(stride != first for stride in self.strides):
            raise DimensionError(
                f"grid has per-dimension strides {self.strides}")
        return first

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @cached_property
    def _refs(self) -> tuple[ChunkRef, ...]:
        """Every chunk, in row-major grid order, built once per grid."""
        def ref(index):
            lo = tuple(c * stride for c, stride in zip(index, self.strides))
            hi = tuple(min(l + stride - 1, extent - 1)
                       for l, stride, extent in zip(lo, self.strides,
                                                    self.shape))
            return ChunkRef(index=index, lo=lo, hi=hi)
        return tuple(ref(index) for index in itertools.product(
            *(range(count) for count in self.counts)))

    def _flat(self, index: tuple[int, ...]) -> int:
        """Row-major position of a grid index in :attr:`_refs`."""
        flat = 0
        for component, count in zip(index, self.counts):
            flat = flat * count + component
        return flat

    def chunk_at(self, index: tuple[int, ...]) -> ChunkRef:
        """The chunk with the given grid index vector."""
        if len(index) != self.ndim:
            raise DimensionError(
                f"chunk index needs {self.ndim} components, got {len(index)}")
        for component, count in zip(index, self.counts):
            if not 0 <= component < count:
                raise DimensionError(
                    f"chunk index {index} outside grid {self.counts}")
        return self._refs[self._flat(index)]

    def chunk_for_cell(self, cell: tuple[int, ...]) -> ChunkRef:
        """Closed-form cell -> chunk mapping (the paper's fX/fY formula)."""
        if len(cell) != self.ndim:
            raise DimensionError(
                f"cell needs {self.ndim} coordinates, got {len(cell)}")
        for coordinate, extent in zip(cell, self.shape):
            if not 0 <= coordinate < extent:
                raise DimensionError(
                    f"cell {cell} outside array shape {self.shape}")
        index = tuple(coordinate // stride
                      for coordinate, stride in zip(cell, self.strides))
        return self.chunk_at(index)

    def chunks(self) -> list[ChunkRef]:
        """All chunks of the grid, in row-major grid order."""
        return list(self._refs)

    def chunks_overlapping(self, lo: tuple[int, ...],
                           hi: tuple[int, ...]) -> list[ChunkRef]:
        """Chunks intersecting the inclusive zero-based region [lo, hi].

        This is the "Chunk Selection" step of the select path (Figure 1):
        a subselect touches only the chunks its hyper-rectangle overlaps.
        """
        if len(lo) != self.ndim or len(hi) != self.ndim:
            raise DimensionError("region corners must match dimensionality")
        for l, h, extent in zip(lo, hi, self.shape):
            if l > h:
                raise DimensionError(f"region corner {lo} exceeds {hi}")
            if l < 0 or h >= extent:
                raise DimensionError(
                    f"region [{lo}, {hi}] outside array shape {self.shape}")
        return list(self.box(lo, hi))

    def box(self, lo: tuple[int, ...],
            hi: tuple[int, ...]) -> tuple[ChunkRef, ...]:
        """:meth:`chunks_overlapping` of a box already known to be
        valid, unchecked: a box inside one chunk is one index
        computation."""
        flat, single = 0, True
        for l, h, stride, count in zip(lo, hi, self.strides, self.counts):
            first = l // stride
            single = single and first == h // stride
            flat = flat * count + first
        refs = self._refs
        if single:
            return (refs[flat],)
        spans = [range(l // stride, h // stride + 1)
                 for l, h, stride in zip(lo, hi, self.strides)]
        if list(map(len, spans)) == list(self.counts):   # every chunk
            return refs
        return tuple(refs[self._flat(index)]
                     for index in itertools.product(*spans))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ChunkGrid(shape={self.shape}, strides={self.strides}, "
                f"counts={self.counts})")
