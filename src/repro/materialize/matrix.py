"""The Materialization Matrix (Section IV-A).

"The Materialization Matrix MM is an n x n matrix derived from a series
of versions.  The values MM(i, i) on the diagonal give the space required
to materialize a given version V^i.  The values off the diagonal MM(i, j)
represent the space taken by a delta between two versions V^i and V^j.
Note that this matrix is symmetric.  This matrix can be constructed in
O(n^2) pairwise comparisons."

Two construction strategies are provided:

* **exact** — every pairwise delta is priced as the write path prices
  it: one :class:`~repro.delta.codes.CodePlan` per pair, the hybrid
  size read off its width histogram (no bytes are actually encoded);
* **sampled** — "computing the space S to store the deltas based on a
  random sample of R of the total of N cells ... and then computing
  S x R / N yields a fairly approximate estimate of the actual delta
  size, even for S/N values of .1% or less":  deltas are measured on a
  random subset of cells and scaled up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import Codec, IdentityCodec
from repro.core.errors import DeltaShapeMismatchError, ReproError
from repro.delta.codes import CodePlan, hybrid_size


@dataclass(frozen=True)
class MaterializationMatrix:
    """Pairwise encoding costs for a series of versions.

    ``versions`` are the caller's version identifiers; ``costs[i, j]``
    (symmetric) is the estimated byte size of delta-encoding version i
    against version j, and ``costs[i, i]`` of materializing version i.
    """

    versions: tuple[int, ...]
    costs: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.versions)
        if self.costs.shape != (n, n):
            raise ReproError(
                f"cost matrix shape {self.costs.shape} does not match "
                f"{n} versions")

    # ------------------------------------------------------------------
    def index_of(self, version: int) -> int:
        try:
            return self.versions.index(version)
        except ValueError:
            raise ReproError(
                f"version {version} not in matrix {self.versions}") from None

    def materialize_size(self, version: int) -> float:
        """MM(i, i): bytes to materialize one version."""
        i = self.index_of(version)
        return float(self.costs[i, i])

    def delta_size(self, version_a: int, version_b: int) -> float:
        """MM(i, j): bytes to delta one version against another."""
        i = self.index_of(version_a)
        j = self.index_of(version_b)
        if i == j:
            raise ReproError("delta_size requires two distinct versions")
        return float(self.costs[i, j])

    def size(self, version: int, parent: int | None) -> float:
        """Encoding cost under a layout: materialize or delta."""
        if parent is None:
            return self.materialize_size(version)
        return self.delta_size(version, parent)

    @property
    def n(self) -> int:
        return len(self.versions)

    def restrict(self, versions: list[int]) -> "MaterializationMatrix":
        """Submatrix over a subset of versions (order-normalized).

        Used by the segment-based workload heuristic of Section IV-D,
        which lays out each segment of overlapping queries separately.
        """
        subset = tuple(sorted(versions))
        index = [self.index_of(v) for v in subset]
        return MaterializationMatrix(
            versions=subset,
            costs=self.costs[np.ix_(index, index)].copy())

    def materialization_always_larger(self) -> bool:
        """Section IV-C's simplifying assumption: MM(i,i) > MM(i,j) for all j.

        When it holds, the optimal layout has exactly one materialized
        version (the plain MST case); otherwise the spanning *forest*
        generalization can win.
        """
        diag = np.diag(self.costs)
        off = self.costs.copy()
        np.fill_diagonal(off, -np.inf)  # exclude self-comparisons
        return bool(np.all(diag[:, None] > off - 1e-12))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, versions: dict[int, np.ndarray], *,
              compressor: Codec | None = None,
              sample_fraction: float | None = None,
              rng: np.random.Generator | None = None
              ) -> "MaterializationMatrix":
        """Construct the matrix from in-memory version contents.

        ``versions`` maps version id to its array.  ``sample_fraction``
        of None computes exact sizes; a value in (0, 1] activates the
        S x R / N sampled estimator.
        """
        if not versions:
            raise ReproError("cannot build a matrix from zero versions")
        ids = tuple(sorted(versions))
        arrays = [np.ascontiguousarray(versions[v]) for v in ids]
        first = arrays[0]
        for array in arrays[1:]:
            if array.shape != first.shape or array.dtype != first.dtype:
                raise DeltaShapeMismatchError(
                    "all versions must share shape and dtype")

        compressor = compressor or IdentityCodec()
        n = len(ids)
        total_cells = first.size

        sample_index: np.ndarray | None = None
        if sample_fraction is not None:
            if not 0 < sample_fraction <= 1:
                raise ReproError(
                    f"sample_fraction must be in (0, 1], "
                    f"got {sample_fraction}")
            rng = rng or np.random.default_rng(0)
            sample_count = max(1, int(round(total_cells * sample_fraction)))
            sample_index = rng.choice(total_cells, size=sample_count,
                                      replace=False)

        flats = [array.ravel() for array in arrays]
        costs = np.zeros((n, n))
        for i in range(n):
            costs[i, i] = len(compressor.encode(arrays[i]))
        for i in range(n):
            for j in range(i + 1, n):
                costs[i, j] = costs[j, i] = _delta_cost(
                    flats[i], flats[j], sample_index, total_cells)
        return cls(versions=ids, costs=costs)

    @classmethod
    def from_manager(cls, manager, name: str, *,
                     attribute: str | None = None,
                     compressor: Codec | None = None,
                     sample_fraction: float | None = None,
                     rng: np.random.Generator | None = None
                     ) -> "MaterializationMatrix":
        """Build the matrix for an array living in a storage manager."""
        record = manager.catalog.get_array(name)
        attr = attribute or record.schema.attributes[0].name
        contents = {
            v: manager.select(name, v).attribute(attr)
            for v in manager.get_versions(name)
        }
        return cls.build(contents, compressor=compressor,
                         sample_fraction=sample_fraction, rng=rng)


def _delta_cost(flat_a: np.ndarray, flat_b: np.ndarray,
                sample_index: np.ndarray | None, total_cells: int) -> float:
    """Hybrid-delta size of a pair, exact or sampled (S x R / N).

    The hybrid encoding is *almost* symmetric — zigzag maps +x to code 2x
    but -x to 2x-1, so the two directions can differ by up to a bit per
    cell.  The matrix keeps the paper's symmetry by always differencing
    the lower-id version against the higher-id one; callers must pass
    ``flat_a`` as the earlier version (see :meth:`build` and
    :func:`repro.materialize.updates.extend_matrix`).
    """
    scale = 1.0
    if sample_index is not None:
        flat_a, flat_b = flat_a[sample_index], flat_b[sample_index]
        scale = total_cells / len(sample_index)
    plan = CodePlan.build(flat_a, flat_b)
    return float(hybrid_size(plan.codes, plan.stats)) * scale
