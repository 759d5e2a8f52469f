"""The backend contract: the :class:`StorageBackend` ABC and the
durability barrier's fan (:data:`SYNC_FAN`), the one thread pool below
the contract."""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.storage.iostats import IOStats

#: Durability-barrier fan depth.  An fsync wait is I/O, not CPU: the
#: filesystem journal group-commits concurrent flushes, and batching
#: saturates around this queue depth on commodity disks — so the
#: barrier fans to this fixed width (bounded by the object count).
SYNC_FAN = 8

# Guards the lazy creation (and detach) of every backend's barrier pool.
_barrier_guard = threading.Lock()


class StorageBackend(ABC):
    """Abstract keyed byte container beneath the chunk store.

    Implementations must satisfy the shared conformance suite
    (``tests/storage/test_backends.py``): reads of missing objects or
    short spans raise :class:`~repro.core.errors.StorageError`, ``write``
    replaces an object wholesale, ``append`` returns the offset at which
    the payload landed, and ``delete`` removes an object or a whole
    prefix subtree.
    """

    #: Human-readable registry name.
    name: str = "abstract"
    #: True when the backend holds no durable state (nothing on disk).
    ephemeral: bool = False
    # The durability barrier's executor (see _fan_barrier): built by
    # the first barrier that has more than one object to flush.
    _barrier_pool: ThreadPoolExecutor | None = None

    def bind_stats(self, stats: "IOStats") -> None:
        """Attach an :class:`IOStats` sink for backend-level counters.

        The chunk store binds its own stats instance at construction so
        request-level accounting (ranged GETs, over-fetched bytes) lands
        in the same report as the chunk-level I/O.  The default is a
        no-op — only backends with request-level behaviour worth
        counting (the object store) record anything; composites forward
        the sink to their children.
        """

    @abstractmethod
    def write(self, path: str, payload: bytes) -> None:
        """Create or replace the object at ``path`` with ``payload``."""

    @abstractmethod
    def append(self, path: str, payload: bytes) -> int:
        """Append to the object at ``path``; returns the write offset."""

    @abstractmethod
    def read(self, path: str, offset: int, length: int) -> bytes:
        """Read exactly ``length`` bytes at ``offset`` of ``path``."""

    @abstractmethod
    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]]) -> list[bytes]:
        """Read several ``(offset, length)`` spans of one object.

        The whole batch is served from a single open of ``path`` — this
        is what turns a co-located delta chain into one open + seek
        pass.  Payloads come back in span order.
        """

    def sync(self, paths: Sequence[str]) -> None:
        """Durability barrier: block until the listed objects survive a
        crash.

        The default is a no-op — the paper's prototype semantics, where
        the page cache owns write-back.  Backends opened in durable
        mode (``LocalFileBackend(durable=True)``) honor the barrier by
        fsyncing every listed object, :data:`SYNC_FAN` at a time, so
        the filesystem journal batches the commits instead of paying
        one full flush per object.  On the object store the barrier is
        a **finalize barrier**: every listed object's pending multipart
        upload is completed, so the staged parts become committed
        object bytes.  The write pipeline calls this once per version,
        after placement and before the catalog transaction, so a
        catalog row can never name bytes the kernel still held in
        memory (or an upload nobody completed).
        """

    @abstractmethod
    def delete(self, prefix: str) -> None:
        """Remove the object at ``prefix`` or every object under it.

        The contract (conformance-tested across every backend,
        striped children included):

        * ``prefix`` naming an **object** removes exactly that object;
        * ``prefix`` naming a **subtree** removes every object whose
          path starts with ``prefix + "/"`` — prefixes match only at
          ``/`` component boundaries, so ``delete("A/ch")`` never
          touches ``A/chunks/...``;
        * deleting a missing prefix is a silent no-op (idempotent);
        * on composites the prefix may cover objects on every child,
          so the delete fans to all of them;
        * on the object store, pending multipart uploads under the
          prefix are aborted as well — a deleted object can never be
          resurrected by a later finalize.
        """

    @abstractmethod
    def total_bytes(self, prefix: str = "") -> int:
        """Stored bytes under ``prefix`` (the whole backend when '')."""

    def _fan_barrier(self, flush, targets: Sequence) -> None:
        """Run ``flush(target)`` for every target, :data:`SYNC_FAN` at
        a time — the one fan below the backend contract.

        What a barrier waits on is I/O (an fsync, a remote store's
        complete-upload round trip), so its depth is the barrier's own
        and has nothing to do with the CPU-oriented ``workers`` degree
        above: it is the same at ``workers=0``.  One task per object;
        a single object is flushed inline and builds no pool, so a
        backend whose barrier is a no-op never owns a thread.
        """
        if len(targets) < 2:
            for target in targets:
                flush(target)
            return
        with _barrier_guard:
            if self._barrier_pool is None:
                self._barrier_pool = ThreadPoolExecutor(
                    max_workers=SYNC_FAN,
                    thread_name_prefix="repro-sync")
            pool = self._barrier_pool
        list(pool.map(flush, targets))

    def close(self) -> None:
        """Release auxiliary resources (idempotent).

        Shuts down the barrier executor if one was ever built; a later
        barrier simply recreates it, so a backend instance stays usable
        after close.  The pool is detached under the guard but drained
        outside it, so closing one backend never stalls other backends'
        barriers on the shared creation lock.
        """
        with _barrier_guard:
            pool, self._barrier_pool = self._barrier_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
