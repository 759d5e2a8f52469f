"""Seeded inputs: version data and op lists.

Everything the program under test receives is generated here from
``--seed`` before any timer starts: the same seed gives the same arrays
and the same op list, so counters repeat exactly run to run.

Version *k+1* is version *k* with 1 % of its cells bumped at seeded
scattered positions plus one seeded dense patch, so sparse, hybrid and
dense delta levels all occur.  Each step's update is drawn from its own
``(seed, k)`` stream: any version can be rebuilt from the base and the
steps below it, which is what lets the ingest workload keep ground
truth as "base + update lists" instead of hundreds of full arrays.

Choices that pick *which* version or *which* kind an op touches are
drawn as seeded shuffles of a fixed multiset (:func:`balanced`), not as
independent draws: every seed then issues the same amount of work in a
different order and at different positions, so run-to-run spread
measures the system, not the dice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DTYPE = np.int32
#: Share of cells bumped per version step.
SPARSE_FRACTION = 0.01


@dataclass(frozen=True)
class Scale:
    """Array geometry of one benchmark scale.

    ``chunk_bytes`` always yields a 4x4 chunk grid; ``patch`` is the
    side of the dense update patch and ``window`` the side of a region
    query.
    """

    name: str
    shape: tuple[int, int]
    chunk_bytes: int
    patch: int
    window: int

    @property
    def version_bytes(self) -> int:
        return self.shape[0] * self.shape[1] * np.dtype(DTYPE).itemsize


SCALES = {
    "full": Scale("full", (2048, 2048), 1 << 20, 128, 64),
    "smoke": Scale("smoke", (256, 256), 16 << 10, 16, 8),
}


@dataclass(frozen=True)
class Op:
    """One precomputed operation of a workload's closed loop."""

    kind: str
    version: int = 0
    #: Inclusive version span of a range read.
    span: int = 1
    #: Zero-based inclusive window ``(r0, r1, c0, c1)`` of a region read.
    window: tuple[int, int, int, int] | None = None


def stream(seed: int, *key: int) -> np.random.Generator:
    """An independent generator for one named purpose of one seed."""
    return np.random.default_rng((seed, *key))


class VersionSeries:
    """The version chain of one seed: a base array and per-step updates."""

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale

    def base(self) -> np.ndarray:
        return stream(self.seed, 0).integers(
            0, 1000, size=self.scale.shape, dtype=DTYPE)

    def step(self, array: np.ndarray, k: int) -> np.ndarray:
        """Version ``k + 1`` from version ``k`` (a new array)."""
        rng = stream(self.seed, 1, k)
        rows, cols = self.scale.shape
        out = array.copy()
        flat = out.reshape(-1)
        count = int(flat.size * SPARSE_FRACTION)
        where = rng.integers(0, flat.size, size=count)
        flat[where] += rng.integers(1, 100, size=count, dtype=DTYPE)
        side = self.scale.patch
        r0 = int(rng.integers(0, rows - side + 1))
        c0 = int(rng.integers(0, cols - side + 1))
        out[r0:r0 + side, c0:c0 + side] += rng.integers(
            1, 1000, size=(side, side), dtype=DTYPE)
        return out

    def build(self, count: int) -> list[np.ndarray]:
        """Versions ``1..count`` as a list (index 0 is version 1)."""
        versions = [self.base()]
        for k in range(1, count):
            versions.append(self.step(versions[-1], k))
        return versions

    def update_list(self, array: np.ndarray, k: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A delta-list update of ``array``: ``(coords, values,
        updated)`` with distinct scattered coordinates, their new
        absolute values, and the resulting array."""
        rng = stream(self.seed, 2, k)
        count = int(array.size * SPARSE_FRACTION)
        where = np.unique(rng.integers(0, array.size, size=count))
        updated = array.copy()
        flat = updated.reshape(-1)
        flat[where] += rng.integers(1, 100, size=where.size, dtype=DTYPE)
        coords = np.stack(np.unravel_index(where, array.shape), axis=1)
        return coords, flat[where].copy(), updated


def balanced(rng: np.random.Generator, values, count: int) -> list:
    """``count`` draws from ``values`` as concatenated seeded shuffles:
    every value appears ``count / len(values)`` times (within one), in
    seeded order."""
    values = list(values)
    out: list = []
    while len(out) < count:
        out.extend(values[i] for i in rng.permutation(len(values)))
    return out[:count]


def mixture(rng: np.random.Generator, shares: dict[str, float],
            count: int) -> list[str]:
    """``count`` kind labels holding ``shares`` exactly (largest
    remainder), in seeded order."""
    exact = {kind: share * count for kind, share in shares.items()}
    counts = {kind: int(value) for kind, value in exact.items()}
    short = count - sum(counts.values())
    for kind in sorted(exact, key=lambda k: exact[k] - counts[k],
                       reverse=True)[:short]:
        counts[kind] += 1
    labels = [kind for kind, n in counts.items() for _ in range(n)]
    return [labels[i] for i in rng.permutation(len(labels))]


def windows(rng: np.random.Generator, scale: Scale, count: int
            ) -> list[tuple[int, int, int, int]]:
    """``count`` seeded square windows inside the array."""
    rows, cols = scale.shape
    side = scale.window
    r0 = rng.integers(0, rows - side + 1, size=count)
    c0 = rng.integers(0, cols - side + 1, size=count)
    return [(int(r), int(r) + side - 1, int(c), int(c) + side - 1)
            for r, c in zip(r0, c0)]
