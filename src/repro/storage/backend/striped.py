"""The composite substrate: objects hash-routed over child backends."""

from __future__ import annotations

import zlib
from collections.abc import Sequence

from repro.core.errors import StorageError
from repro.storage.backend.base import StorageBackend
from repro.storage.iostats import IOStats


class StripedBackend(StorageBackend):
    """Spread objects over N child backends by hashing the object path.

    One array's chunk objects scatter across the children (CRC-32 of
    the path, stable across processes), so independent chains live on
    independent substrates and a parallel decode fans its reads over
    all stripes.  A co-located chain is one object and therefore never
    splits across stripes — the batched chain read keeps its single
    open + seek pass on whichever child owns the object.

    ``delete`` and ``total_bytes`` take *prefixes* that may cover
    objects on every stripe, so they fan to all children.
    """

    name = "striped"

    def __init__(self, children: Sequence[StorageBackend]):
        children = list(children)
        if not children:
            raise StorageError("a striped backend needs at least one child")
        self.children = children
        self.ephemeral = all(child.ephemeral for child in children)

    def bind_stats(self, stats: "IOStats") -> None:
        for child in self.children:
            child.bind_stats(stats)

    def child_for(self, path: str) -> StorageBackend:
        """The stripe owning ``path`` (deterministic across processes)."""
        digest = zlib.crc32(path.encode("utf-8"))
        return self.children[digest % len(self.children)]

    def write(self, path: str, payload: bytes) -> None:
        self.child_for(path).write(path, payload)

    def append(self, path: str, payload: bytes) -> int:
        return self.child_for(path).append(path, payload)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return self.child_for(path).read(path, offset, length)

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]]) -> list[bytes]:
        return self.child_for(path).read_many(path, spans)

    def sync(self, paths: Sequence[str]) -> None:
        # Each stripe raises its own barrier over its own objects, and
        # fans it if it has one worth fanning.
        by_child: dict[int, tuple[StorageBackend, list[str]]] = {}
        for path in paths:
            child = self.child_for(path)
            by_child.setdefault(id(child), (child, []))[1].append(path)
        for child, child_paths in by_child.values():
            child.sync(child_paths)

    def delete(self, prefix: str) -> None:
        for child in self.children:
            child.delete(prefix)

    def total_bytes(self, prefix: str = "") -> int:
        return sum(child.total_bytes(prefix) for child in self.children)

    def close(self) -> None:
        for child in self.children:
            child.close()
        super().close()
