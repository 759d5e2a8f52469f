"""The backend contract: the :class:`StorageBackend` ABC."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.core.errors import StorageError
from repro.storage.iostats import IOStats


class StorageBackend(ABC):
    """Abstract keyed byte container beneath the chunk store.

    Implementations must satisfy the shared conformance suite
    (``tests/storage/test_backends.py``): reads of missing objects,
    short spans or negative spans raise
    :class:`~repro.core.errors.StorageError`, ``write`` replaces an
    object wholesale, ``append`` returns the offset at which the
    payload landed, and ``delete`` removes an object or a whole prefix
    subtree.  Payloads read are read-only bytes-like, maybe views,
    and unchanged by any later append, write or delete.
    """

    #: Human-readable registry name.
    name: str = "abstract"
    #: True when the backend holds no durable state (nothing on disk).
    ephemeral: bool = False
    #: True when :meth:`sync` makes the bytes it names crash-safe (an
    #: fsync barrier), so the catalog commit after it is worth one too.
    durable: bool = False

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

    def read(self, path: str, offset: int, length: int):
        """Read exactly ``length`` bytes at ``offset`` of ``path``."""
        return self.read_many(path, [(offset, length)])[0]

    @abstractmethod
    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]]) -> list:
        """Read several ``(offset, length)`` spans of one object.

        The whole batch is served from a single open of ``path`` — this
        is what turns a co-located delta chain into one open + seek
        pass.  Payloads come back in span order, each a read-only
        bytes-like object (a view where the backend holds the bytes).
        """

    def sync(self, paths: Sequence[str]) -> None:
        """Durability barrier: block until the listed objects survive a
        crash.

        The default is a no-op — the paper's prototype semantics, where
        the page cache owns write-back.  Backends opened in durable
        mode (``LocalFileBackend(durable=True)``) honor the barrier by
        fsyncing every listed object on the process's sync fan
        (:func:`repro.storage.fan.barrier`), so the filesystem journal
        batches the commits instead of paying one full flush per
        object.  On the object store the barrier is
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

    def close(self) -> None:
        """Release what the backend holds beyond its bytes (idempotent):
        pending uploads on the object store, the children of a
        composite.  The base backend holds nothing; a closed backend
        stays usable."""


def checked_spans(path: str, spans: Sequence[tuple[int, int]]
                  ) -> Sequence[tuple[int, int]]:
    """``spans``, once none is negative (a slice would wrap it)."""
    for offset, length in spans:
        if offset < 0 or length < 0:
            raise StorageError(
                f"invalid span of {path}: {length} bytes at {offset}")
    return spans
