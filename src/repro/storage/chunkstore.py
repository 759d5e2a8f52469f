"""Chunk placement over a pluggable byte backend.

Section III-B.3: "we implemented two different ways of storing the deltas
on disk: the first method stores all the deltas belonging to a given
version together in one file, while the second method co-locates chains
of deltas belonging to different versions but all corresponding to the
same chunk.  Unless stated otherwise, we consider co-located chains of
deltas in the following, since they are more efficient."

* ``per-version`` placement writes
  ``<array>/v<version>/<attribute>/<chunk-name>`` — one object per
  (version, chunk) pair;
* ``colocated`` placement appends every version's payload for one chunk
  to ``<array>/chunks/<attribute>/<chunk-name>`` and addresses payloads
  by (offset, length), so a chain of deltas for one chunk is one
  sequential read.

The store owns *placement* (which path a payload lands at) and
*accounting* (every byte and handle flows into :class:`IOStats`); the
bytes themselves live in a :class:`~repro.storage.backend.StorageBackend`
— local files by default, memory or future substrates by injection.
Delta/compression framing is the codecs' business, and which
(offset, length) belongs to which version is recorded in the metadata
catalog.

The store runs on its caller's thread and owns no pool: a read is
parallelised above it (the decode pipeline hands each batch of chunk
reconstructions — and with it their chains' ``read_chunks`` calls —
to the CPU fan), placements arrive one at a time in canonical task
order, and a backend with a real barrier fans it on the sync fan
(:mod:`repro.storage.fan`).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import StorageError
from repro.storage.backend import StorageBackend, resolve_backend
from repro.storage.iostats import IOStats

PER_VERSION = "per-version"
COLOCATED = "colocated"
_PLACEMENTS = (PER_VERSION, COLOCATED)


@dataclass(frozen=True, slots=True)
class ChunkLocation:
    """Where one encoded chunk payload lives in the backend."""

    path: str
    offset: int
    length: int


class ChunkStore:
    """Chunk addressing with per-version or co-located placement."""

    def __init__(self, root: str | os.PathLike,
                 placement: str = COLOCATED,
                 stats: IOStats | None = None,
                 backend: "StorageBackend | str | None" = None):
        if placement not in _PLACEMENTS:
            raise StorageError(
                f"unknown placement {placement!r}; expected {_PLACEMENTS}")
        self.placement = placement
        self.stats = stats if stats is not None else IOStats()
        self.backend = resolve_backend(backend, Path(root))
        # Request-level counters (ranged GETs, over-fetched bytes) land
        # in the same stats instance as the chunk-level accounting.
        self.backend.bind_stats(self.stats)

    def _chunk_path(self, array: str, version: int, attribute: str,
                    chunk_name: str) -> str:
        if self.placement == PER_VERSION:
            return f"{array}/v{version}/{attribute}/{chunk_name}"
        return f"{array}/chunks/{attribute}/{chunk_name}"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_chunk(self, array: str, version: int, attribute: str,
                    chunk_name: str, payload,
                    supersedes: ChunkLocation | None = None
                    ) -> ChunkLocation:
        """Persist one encoded chunk payload; returns its location.

        ``payload`` is either one byte string or a sequence of buffer
        parts — the encode pipeline hands the parts straight through,
        so the payload is composed exactly once, here at placement.

        ``supersedes`` is the committed location a rewrite replaces,
        whose bytes the write never touches: co-located placement
        appends past the end as always, per-version placement writes
        the next ``@r<n>`` sibling (:meth:`repack_target`).
        """
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            payload = b"".join(payload)
        path = self._chunk_path(array, version, attribute, chunk_name)
        if self.placement == PER_VERSION:
            if supersedes is not None:
                path = self.repack_target(supersedes.path)
            self.backend.write(path, payload)
            location = ChunkLocation(path, 0, len(payload))
        else:
            offset = self.backend.append(path, payload)
            location = ChunkLocation(path, offset, len(payload))
        self.stats.record_write(len(payload))
        self.stats.record_open()
        return location

    def sync_chunks(self, locations: list[ChunkLocation]) -> None:
        """Durability barrier over the listed payloads' objects.

        The write pipeline raises this barrier once per version — after
        every placement, before the catalog transaction — so a catalog
        row can never name bytes that would not survive a crash.  A
        no-op on a plain local backend; durable backends fsync here
        (at their own I/O depth), and the object store finalizes every
        pending multipart upload.
        """
        self.backend.sync(list(dict.fromkeys(
            location.path for location in locations)))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_chunk(self, location: ChunkLocation) -> bytes:
        """Read one payload back by location."""
        payload = self.backend.read(location.path, location.offset,
                                    location.length)
        self.stats.record_read(len(payload))
        self.stats.record_open()
        return payload

    def read_chunks(self, locations: list[ChunkLocation]) -> list[bytes]:
        """Read several payloads, one backend open per distinct path.

        This is the chain-read fast path: a co-located delta chain's
        payloads share one object, so the whole chain costs a single
        open + seek pass (``file_opens`` in :class:`IOStats` counts the
        difference).  Payloads are returned in ``locations`` order.
        """
        by_path: dict[str, list[int]] = {}
        for index, location in enumerate(locations):
            by_path.setdefault(location.path, []).append(index)

        payloads: list[bytes | None] = [None] * len(locations)
        for path, indexes in by_path.items():
            spans = [(locations[i].offset, locations[i].length)
                     for i in indexes]
            read = self.backend.read_many(path, spans)
            for i, payload in zip(indexes, read):
                payloads[i] = payload
            self.stats.record_reads(len(read),
                                    sum([len(payload) for payload in read]))
        return payloads  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def delete_array(self, array: str) -> None:
        """Remove every object belonging to one array."""
        self.backend.delete(array)

    @staticmethod
    def repack_target(path: str) -> str:
        """The object path a rewrite of ``path`` writes into.

        A rewrite must never overwrite an object the catalog still
        references (a fault part-way would destroy committed
        payloads), so each pass writes a sibling
        object with a bumped ``@r<n>`` suffix — ``c0-0`` → ``c0-0@r1``
        → ``c0-0@r2`` — and the old object is reclaimed only after the
        catalog has swapped to the new one.  The suffix sits after the
        final path component, so a prefix delete of the old object can
        never touch its successor (backend deletes match only at ``/``
        boundaries).
        """
        base, gen = ChunkStore._split_generation(path)
        return f"{base}@r{gen + 1}"

    @staticmethod
    def _split_generation(path: str) -> tuple[str, int]:
        """Split an object path into its base name and repack
        generation (``c.dat@r2`` → ``("c.dat", 2)``; an unsuffixed
        path is generation 0)."""
        head, _, name = path.rpartition("/")
        base, marker, gen = name.rpartition("@r")
        if marker and gen.isdigit():
            name, generation = base, int(gen)
        else:
            generation = 0
        return (f"{head}/{name}" if head else name), generation

    @staticmethod
    def _repack_targets(by_path, committed) -> dict[str, str]:
        """Collision-free rewrite targets for one repack batch.

        Live payloads can span several generations of the same object
        name (a post-repack write recreates the base path), so the
        naive per-path bump would aim one group's target at another
        group's *source* — truncating live bytes mid-repack, the exact
        corruption the swap scheme exists to prevent.  Nor may a target
        land on an object a ``committed`` row still names that no
        payload in the batch comes from (a rewrite that re-stages every
        payload leaves the previous compaction's objects out of the
        batch).  Every target is therefore assigned above the highest
        generation in the batch and the committed rows, in
        deterministic (sorted-path) order, so targets collide with
        neither sources, committed objects, nor each other.
        """
        ceiling: dict[str, int] = {}
        for path in itertools.chain(by_path, committed):
            base, generation = ChunkStore._split_generation(path)
            ceiling[base] = max(ceiling.get(base, 0), generation)
        targets: dict[str, str] = {}
        for path in sorted(by_path):
            base, _ = ChunkStore._split_generation(path)
            ceiling[base] += 1
            targets[path] = f"{base}@r{ceiling[base]}"
        return targets

    def repack(self, array: str,
               keep: list[tuple[ChunkLocation, object]], *,
               committed: set[str] | frozenset[str]
               ) -> dict[object, ChunkLocation]:
        """Rewrite co-located objects keeping only the listed payloads.

        ``keep`` pairs each surviving location with an opaque key; the
        returned mapping gives each key's new location.  ``committed``
        are the paths the catalog names until the caller's swap; no
        target lands on one.  This is the compaction step of the
        manager's one rewrite protocol.

        Swap, don't overwrite: every rewritten blob lands at a *new*
        object path (:meth:`repack_target`), so the caller can raise
        the durability barrier over the new locations, swap the
        catalog to them in one transaction and only then reclaim the
        old objects (:meth:`reclaim`).  A fault at any point before
        that commit leaves the old objects and the catalog untouched —
        at worst an orphaned half-written sibling that the next
        successful pass supersedes.
        """
        by_path: dict[str, list[tuple[ChunkLocation, object]]] = {}
        for location, key in keep:
            by_path.setdefault(location.path, []).append((location, key))
        targets = self._repack_targets(by_path, committed)

        new_locations: dict[object, ChunkLocation] = {}
        for path, entries in by_path.items():
            survivors = self.read_chunks([location for location, _ in
                                          entries])
            target = targets[path]
            offset = 0
            for (_, key), payload in zip(entries, survivors):
                new_locations[key] = ChunkLocation(target, offset,
                                                   len(payload))
                offset += len(payload)
                self.stats.record_write(len(payload))
            self.backend.write(target, b"".join(survivors))
            self.stats.record_open()
        return new_locations

    def reclaim(self, paths: list[str] | set[str]) -> None:
        """Delete superseded objects after a rewrite's catalog swap.

        Strictly post-commit space reclamation: by the time this runs
        the catalog no longer references ``paths``, so a fault here
        leaks bytes (reclaimed by a later pass) but can never corrupt.
        """
        for path in sorted(set(paths)):
            self.backend.delete(path)

    def total_bytes(self, array: str | None = None) -> int:
        """Bytes stored under one array (or the whole store)."""
        return self.backend.total_bytes(array or "")

    def close(self) -> None:
        """Close the backend (idempotent)."""
        self.backend.close()
