"""Synthetic ConceptNet-style sparse snapshots (Section V's second set).

The paper's data: "a highly sparse square matrix storing degrees of
relationships between various 'concepts' ... weekly snapshots from 2008.
Each version is about 1,000,000 by 1,000,000 large with around 430,000
data points (represented as 32-bit integers)."

Scaled substitution (documented in docs/paper.md): the generator produces an
``n x n`` grid (default 1024) with a configurable nonzero budget, a
power-law degree distribution (a few hub concepts carry most relations,
as in the real semantic network), and weekly *churn*: each snapshot adds
a few new relations, strengthens some existing ones, and drops a few.
Sparse-delta behaviour — the property Table V's CNet rows exercise —
depends only on the nonzero count and the churn rate, both of which are
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparseSnapshot:
    """One weekly snapshot: COO coordinates plus int32 weights."""

    size: int
    coords: np.ndarray  # (nnz, 2) int64
    values: np.ndarray  # (nnz,) int32

    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_dense(self) -> np.ndarray:
        """Materialize (only sensible at test scale)."""
        canvas = np.zeros((self.size, self.size), dtype=np.int32)
        canvas[self.coords[:, 0], self.coords[:, 1]] = self.values
        return canvas


class ConceptNetGenerator:
    """Power-law sparse matrix with weekly churn."""

    def __init__(self, size: int = 1024, nnz: int = 4000, *,
                 churn_fraction: float = 0.02, seed: int = 2008):
        if nnz > size * size // 4:
            raise ValueError("nonzero budget too dense for the grid")
        self.size = size
        self.nnz = nnz
        self.churn_fraction = churn_fraction
        self.rng = np.random.default_rng(seed)
        self._entries: dict[tuple[int, int], int] = {}
        self._populate()

    # ------------------------------------------------------------------
    def _power_law_nodes(self, count: int) -> np.ndarray:
        """Node ids with a Zipf-ish hub structure."""
        raw = self.rng.zipf(1.8, size=count)
        return np.minimum(raw - 1, self.size - 1).astype(np.int64)

    def _populate(self) -> None:
        while len(self._entries) < self.nnz:
            missing = self.nnz - len(self._entries)
            rows = self._power_law_nodes(missing * 2)
            cols = self.rng.integers(0, self.size, size=missing * 2)
            weights = self.rng.integers(1, 50, size=missing * 2)
            for row, col, weight in zip(rows, cols, weights):
                if len(self._entries) >= self.nnz:
                    break
                self._entries.setdefault((int(row), int(col)), int(weight))

    def _snapshot(self) -> SparseSnapshot:
        items = sorted(self._entries.items())
        coords = np.array([pair for pair, _ in items], dtype=np.int64)
        values = np.array([weight for _, weight in items], dtype=np.int32)
        return SparseSnapshot(size=self.size, coords=coords, values=values)

    def _churn(self) -> None:
        """One week of graph evolution: inserts, updates, deletes."""
        changes = max(1, int(len(self._entries) * self.churn_fraction))
        keys = list(self._entries)
        # Strengthen existing relations.
        for index in self.rng.choice(len(keys), size=changes):
            self._entries[keys[int(index)]] += int(self.rng.integers(1, 5))
        # Forget a few.
        for index in self.rng.choice(len(keys), size=max(1, changes // 2),
                                     replace=False):
            self._entries.pop(keys[int(index)], None)
        # Learn new relations.
        rows = self._power_law_nodes(changes)
        cols = self.rng.integers(0, self.size, size=changes)
        weights = self.rng.integers(1, 50, size=changes)
        for row, col, weight in zip(rows, cols, weights):
            self._entries[(int(row), int(col))] = int(weight)

    # ------------------------------------------------------------------
    def snapshots(self, count: int):
        """Yield ``count`` weekly snapshots."""
        for week in range(count):
            if week:
                self._churn()
            yield self._snapshot()


def conceptnet_series(count: int, size: int = 1024, nnz: int = 4000, *,
                      seed: int = 2008) -> list[SparseSnapshot]:
    """The 2008 weekly snapshot series, scaled."""
    generator = ConceptNetGenerator(size=size, nnz=nnz, seed=seed)
    return list(generator.snapshots(count))
