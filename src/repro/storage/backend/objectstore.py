"""The S3-semantics substrate, emulated over a local object map:
multipart staging, finalize barrier, coalesced ranged GETs."""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Sequence
from pathlib import Path

from repro.core.errors import StorageError
from repro.storage.backend.base import StorageBackend
from repro.storage.backend.local import LocalFileBackend
from repro.storage.iostats import IOStats

#: Default request-size floor for the object store's ranged GETs.  An
#: object-store request costs a fixed round trip regardless of size, so
#: a GET shorter than this floor is extended (clamped to the object's
#: end) and near-by spans are coalesced into one request; the bytes
#: fetched beyond what was asked for are counted in
#: ``IOStats.bytes_over_fetched``.
OBJECT_REQUEST_FLOOR = 64 * 1024


class ObjectStoreBackend(StorageBackend):
    """S3-semantics backend emulated over a local object map.

    The emulation keeps the contract of a real object store without any
    network dependency — committed objects live as immutable blobs in a
    local map (one file per object under ``root``, so a store written
    here has the same on-disk layout as :class:`LocalFileBackend`),
    and the three S3-shaped behaviours the storage stack must survive
    are faithful:

    * **Immutable objects, multipart append.**  ``write`` is a
      whole-object PUT (committed immediately).  An object store has no
      append, so ``append`` *stages a part* of a multipart upload and
      returns the offset the part will occupy; :meth:`sync` is the
      finalize barrier that completes the upload, composing the
      committed object and the staged parts into a new committed
      object.  The write pipeline raises that barrier once per version
      — between placement and the catalog transaction — so a catalog
      row never names bytes still sitting in an incomplete upload.
      :meth:`close` *aborts* pending uploads instead (the S3
      abort-multipart analogue): an upload nobody finalized never
      becomes object bytes.
    * **Ranged GETs.**  ``read``/``read_many`` address committed bytes
      through ``(offset, length)`` range requests.  Spans are sorted,
      each GET is extended to at least ``request_floor`` bytes (clamped
      at the object's end), and overlapping or floor-adjacent spans
      coalesce into one request — per-request cost dominates, so the
      batched read trades bytes for round trips.  Every request is
      counted in ``IOStats.ranged_gets`` and every byte fetched beyond
      the requested spans in ``IOStats.bytes_over_fetched`` (via
      :meth:`bind_stats`).
    * **Read-your-writes.**  A GET only addresses committed bytes; a
      read that needs bytes still staged in a pending upload first
      completes that upload.  Reads entirely inside the committed
      region never finalize, so readers of committed versions proceed
      while a writer is still staging the next version's parts.

    ``durable=True`` (spec ``"object:durable"``) additionally fsyncs
    committed objects at the barrier, stacking the local durability leg
    on top of the finalize — useful when the "object store" is a local
    directory standing in for a remote one.
    """

    name = "object"

    def __init__(self, root: str | Path, durable: bool = False,
                 request_floor: int = OBJECT_REQUEST_FLOOR):
        if request_floor < 0:
            raise StorageError(
                f"object store request floor must be >= 0, got "
                f"{request_floor}")
        self.durable = durable
        self.request_floor = request_floor
        self.stats: IOStats | None = None
        # The committed object map: one immutable blob per path.  A
        # local file backend already speaks exactly that layout (and
        # owns the durable-mode fsync machinery), so the emulation
        # composes one rather than reimplementing it.
        self._committed = LocalFileBackend(root, durable=durable)
        self.root = self._committed.root
        # path -> staged parts of that object's pending multipart
        # upload, in arrival order.  Guarded by one lock: the write
        # pipeline stages serially, but reads may finalize and the
        # barrier drains, possibly from other threads.
        self._staged: dict[str, list[bytes]] = {}
        self._stage_lock = threading.Lock()

    def bind_stats(self, stats: "IOStats") -> None:
        self.stats = stats

    # -- introspection -------------------------------------------------
    def pending_parts(self, path: str | None = None) -> int:
        """Staged (not yet finalized) parts for ``path``, or in total.

        The finalize-barrier tests observe this: parts accumulate
        between placements and must drop to zero at the barrier.
        """
        with self._stage_lock:
            if path is not None:
                return len(self._staged.get(path, ()))
            return sum(len(parts) for parts in self._staged.values())

    # -- helpers -------------------------------------------------------
    def _committed_size(self, path: str) -> int:
        target = self._committed._resolve(path)
        try:
            return target.stat().st_size
        except FileNotFoundError:
            return -1  # no committed object (≠ empty object)

    def _finalize_locked(self, path: str) -> None:
        """Complete ``path``'s pending upload (caller holds the lock)."""
        parts = self._staged.pop(path, None)
        if parts:
            self._committed.append(path, b"".join(parts))

    def _matches(self, key: str, prefix: str) -> bool:
        prefix = prefix.rstrip("/")
        return key == prefix or key.startswith(prefix + "/")

    # -- writes --------------------------------------------------------
    def write(self, path: str, payload: bytes) -> None:
        with self._stage_lock:
            # A wholesale PUT supersedes any pending upload of the
            # same object.
            self._staged.pop(path, None)
            self._committed.write(path, payload)

    def append(self, path: str, payload: bytes) -> int:
        with self._stage_lock:
            parts = self._staged.setdefault(path, [])
            offset = max(self._committed_size(path), 0) + \
                sum(len(part) for part in parts)
            parts.append(bytes(payload))
        return offset

    def sync(self, paths: Sequence[str]) -> None:
        distinct = list(dict.fromkeys(paths))
        # The emulated finalize is a memory-compose + local append, so
        # it runs serially under the staging lock (offset accounting
        # must never race a concurrent append); a remote backend would
        # fan its complete-multipart round trips here instead.
        with self._stage_lock:
            for path in distinct:
                self._finalize_locked(path)
        # Durable mode stacks the local fsync barrier (and its fan) on
        # top of the finalize; otherwise the committed map's sync is a
        # no-op.
        self._committed.sync(distinct)

    # -- reads ---------------------------------------------------------
    def read(self, path: str, offset: int, length: int) -> bytes:
        return self.read_many(path, [(offset, length)])[0]

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]]) -> list[bytes]:
        spans = list(spans)
        if not spans:
            return []
        need = max(offset + length for offset, length in spans)
        with self._stage_lock:
            size = self._committed_size(path)
            if need > max(size, 0) and path in self._staged:
                # Read-your-writes: the request reaches into a pending
                # upload, so complete it first — a GET only addresses
                # committed objects.
                self._finalize_locked(path)
                size = self._committed_size(path)
        if size < 0:
            raise StorageError(f"missing chunk file {self.root / path}")
        for offset, length in spans:
            if offset + length > size:
                raise StorageError(
                    f"chunk file {self.root / path} truncated: wanted "
                    f"{length} bytes at {offset}, got "
                    f"{max(0, size - offset)}")
        gets = self._plan_gets(spans, size)
        payloads = self._committed.read_many(path, gets)
        buffers = {start: payload
                   for (start, _), payload in zip(gets, payloads)}
        starts = [start for start, _ in gets]
        results = []
        for offset, length in spans:
            # The GET covering this span is the last one starting at or
            # before it (GETs are disjoint and cover every span).
            index = bisect_right(starts, offset) - 1
            start = starts[index]
            results.append(buffers[start][offset - start:
                                          offset - start + length])
        if self.stats is not None:
            fetched = sum(length for _, length in gets)
            wanted = _union_bytes(spans)
            self.stats.record_ranged_gets(len(gets), fetched - wanted)
        return results

    def _plan_gets(self, spans: Sequence[tuple[int, int]],
                   size: int) -> list[tuple[int, int]]:
        """Coalesce requested spans into ranged-GET requests.

        Each GET runs from its first span's offset to at least
        ``request_floor`` bytes further (clamped at the object's end),
        and a span starting inside that reach merges into the GET
        rather than opening a new request — so near-by chain payloads
        cost one round trip, and no request is ever shorter than the
        floor unless the object itself is.
        """
        gets: list[list[int]] = []  # [start, furthest requested byte]
        for offset, length in sorted(set(spans)):
            if gets:
                start, data_end = gets[-1]
                reach = max(data_end, start + self.request_floor)
                if offset <= reach:
                    gets[-1][1] = max(data_end, offset + length)
                    continue
            gets.append([offset, offset + length])
        return [(start, min(max(data_end, start + self.request_floor),
                            size) - start)
                for start, data_end in gets]

    # -- maintenance ---------------------------------------------------
    def delete(self, prefix: str) -> None:
        with self._stage_lock:
            stale = [key for key in self._staged
                     if self._matches(key, prefix)]
            for key in stale:
                del self._staged[key]
            self._committed.delete(prefix)

    def total_bytes(self, prefix: str = "") -> int:
        # A read-only probe: pending parts are *counted* (they are
        # bytes the caller handed the store, exactly as a local
        # backend's buffered append counts), never finalized — an
        # observation must not commit somebody else's in-flight
        # upload.
        with self._stage_lock:
            staged = sum(
                len(part)
                for key, parts in self._staged.items()
                if not prefix or self._matches(key, prefix)
                for part in parts)
            return self._committed.total_bytes(prefix) + staged

    def close(self) -> None:
        with self._stage_lock:
            # Abort, not finalize: parts nobody synced belong to
            # versions that never committed (the catalog transaction
            # follows the barrier), so persisting them would only
            # manufacture debris for the next repack.
            self._staged.clear()
        self._committed.close()
        super().close()


def _union_bytes(spans: Sequence[tuple[int, int]]) -> int:
    """Bytes covered by at least one ``(offset, length)`` span."""
    total = 0
    covered_to = 0
    for offset, length in sorted(spans):
        end = offset + length
        if end > covered_to:
            total += end - max(offset, covered_to)
            covered_to = end
    return total
