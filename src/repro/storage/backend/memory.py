"""The zero-I/O substrate: a dict of in-memory objects."""

from __future__ import annotations

import threading
from collections.abc import Sequence

from repro.core.errors import StorageError
from repro.storage.backend.base import StorageBackend


class _MemoryObject:
    """One in-memory object: a consolidated head plus appended tail
    segments, merged lazily on first read.

    Appending straight onto one growing ``bytearray`` realloc-copies
    the whole object every few appends once it reaches co-located
    version-chain size (measured ~115us per 168 KB append at 6 MB —
    pure copy churn that lands inside the write pipeline's timed
    path), so appends just collect segments and reads pay one join.
    The lock makes concurrent consolidation safe: parallel chunk
    reconstructions may read one object from several threads.
    """

    __slots__ = ("_head", "_tail", "_length", "_lock")

    def __init__(self, payload: bytes = b""):
        self._head = bytearray(payload)
        self._tail: list[bytes] = []
        self._length = len(payload)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._length

    def append(self, payload: bytes) -> int:
        with self._lock:
            offset = self._length
            self._tail.append(bytes(payload))
            self._length += len(payload)
        return offset

    def consolidated(self) -> bytearray:
        """The whole object as one buffer (joins any pending tail)."""
        with self._lock:
            if self._tail:
                self._head += b"".join(self._tail)
                self._tail.clear()
            return self._head


class InMemoryBackend(StorageBackend):
    """Dict-of-buffers backend: zero disk I/O, per-instance state.

    Used by tests, benchmark baselines ("how fast without the disk?"),
    and cluster simulation, where every node gets its own instance.
    """

    name = "memory"
    ephemeral = True

    def __init__(self):
        self._objects: dict[str, _MemoryObject] = {}

    def write(self, path: str, payload: bytes) -> None:
        self._objects[path] = _MemoryObject(payload)

    def append(self, path: str, payload: bytes) -> int:
        obj = self._objects.setdefault(path, _MemoryObject())
        return obj.append(payload)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return self.read_many(path, [(offset, length)])[0]

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]]) -> list[bytes]:
        obj = self._objects.get(path)
        if obj is None:
            raise StorageError(f"missing chunk file {path}")
        buffer = obj.consolidated()
        payloads = []
        for offset, length in spans:
            payload = bytes(buffer[offset:offset + length])
            if len(payload) != length:
                raise StorageError(
                    f"chunk file {path} truncated: wanted {length} "
                    f"bytes at {offset}, got {len(payload)}")
            payloads.append(payload)
        return payloads

    def delete(self, prefix: str) -> None:
        prefix = prefix.rstrip("/")
        subtree = prefix + "/"
        stale = [key for key in self._objects
                 if key == prefix or key.startswith(subtree)]
        for key in stale:
            del self._objects[key]

    def total_bytes(self, prefix: str = "") -> int:
        if not prefix:
            return sum(len(obj) for obj in self._objects.values())
        subtree = prefix.rstrip("/") + "/"
        return sum(len(obj) for key, obj in self._objects.items()
                   if key == prefix or key.startswith(subtree))
