"""The zero-I/O substrate: a dict of in-memory objects."""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Sequence

from repro.core.errors import StorageError
from repro.storage.backend.base import StorageBackend, checked_spans


class _MemoryObject:
    """One in-memory object: an append-only list of immutable ``bytes``
    segments and the offset each one starts at.

    Every chunk payload is one ``write`` or ``append``, so it is one
    segment, and reading it back is a read-only ``memoryview`` slice of
    that segment: no copy, and the view pins only its own payload.
    Only a span that crosses segments is joined; the object as a whole
    never is (one growing buffer would realloc-copy the whole object
    every few appends, and slicing it would copy every payload read).
    The lock keeps the two lists in step for readers on other threads.
    """

    __slots__ = ("_segments", "_starts", "_length", "_lock")

    def __init__(self, payload: bytes = b""):
        self._segments: list[bytes] = []
        self._starts: list[int] = []
        self._length = 0
        self._lock = threading.Lock()
        self.append(payload)

    def __len__(self) -> int:
        return self._length

    def append(self, payload: bytes) -> int:
        segment = bytes(payload)
        with self._lock:
            offset = self._length
            if segment:
                self._segments.append(segment)
                self._starts.append(offset)
                self._length += len(segment)
        return offset

    def read_many(self, spans: Sequence[tuple[int, int]]) -> list:
        """The bytes of every ``(offset, length)`` span (None for one
        past the end), under one hold of the lock."""
        with self._lock:
            return [self._read(offset, length) for offset, length in spans]

    def _read(self, offset: int, length: int):
        """``length`` bytes at ``offset``, or None past the end (the
        lock held)."""
        if offset + length > self._length:
            return None
        index = bisect_right(self._starts, offset) - 1
        pieces = []
        while length:
            start = offset - self._starts[index]
            piece = memoryview(self._segments[index])[
                start:start + length]
            pieces.append(piece)
            offset += len(piece)
            length -= len(piece)
            index += 1
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)


class InMemoryBackend(StorageBackend):
    """Dict-of-objects backend: zero disk I/O, per-instance state.

    Used by tests, benchmark baselines ("how fast without the disk?"),
    and cluster simulation, where every node gets its own instance.
    Reads hand back views of the stored bytes (see
    :class:`_MemoryObject`), so a payload costs no copy at all.
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

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]]) -> list:
        obj = self._objects.get(path)
        if obj is None:
            raise StorageError(f"missing chunk file {path}")
        payloads = obj.read_many(checked_spans(path, spans))
        if None in payloads:
            offset, length = spans[payloads.index(None)]
            raise StorageError(
                f"chunk file {path} truncated: wanted {length} "
                f"bytes at {offset}, got {max(0, len(obj) - offset)}")
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
