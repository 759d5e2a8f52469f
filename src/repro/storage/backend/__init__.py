"""Pluggable byte-storage backends for the versioned store.

The paper's prototype (Section II) is a single-node, local-disk system;
everything above this package — chunk placement, delta encoding,
compression, the metadata catalog — is byte-oriented and does not care
*where* the bytes live.  :class:`StorageBackend` is that seam: a small
keyed byte-container contract (write / append / read / read_many /
sync / delete) that lets new substrates drop in without touching
encoding semantics.  One module per substrate:

* :mod:`.base` — the :class:`StorageBackend` ABC;
* :mod:`.local` — :class:`LocalFileBackend`, the paper's local
  filesystem; ``durable=True`` (registry name ``"durable"``) arms the
  per-version group-fsync barrier;
* :mod:`.memory` — :class:`InMemoryBackend`, zero I/O, for tests,
  benchmarks and all-in-memory cluster simulation;
* :mod:`.striped` — :class:`StripedBackend`, objects hash-routed over
  N child backends;
* :mod:`.objectstore` — :class:`ObjectStoreBackend`, S3 semantics
  emulated over a local object map: multipart staging, a finalize
  barrier, ranged GETs coalesced under a request-size floor;
* :mod:`.faulty` — :class:`FaultInjectingBackend` (spec
  ``faulty:<seed>[:<inner>]``), a deterministic seeded schedule of
  failed writes, torn appends and failed barriers, plus dead-node mode
  — the chaos suite's product-code half;
* :mod:`.spec` — the spec grammar, the ``REPRO_BACKEND`` default and
  :func:`resolve_backend`.

Import names from this package, not from the modules.

``read_many`` is the performance-critical batched read: a co-located
delta chain lives at many ``(offset, length)`` spans of *one* object,
and the batched read resolves the whole chain with a single open + seek
pass instead of one ``open()`` per payload.  Its payloads are
read-only bytes-like objects and may be views of the stored bytes (the
memory and object backends copy nothing).  The contract carries no
concurrency argument: reads are parallelised above it (one
reconstruction task per chunk, in the decode pipeline) and a backend
with a real durability barrier fans it on the process's sync fan
(:func:`repro.storage.fan.barrier`) by itself.

Paths are backend-relative strings with ``/`` separators (the same
strings the metadata catalog records in chunk locations), so a store
written by one backend can be described identically by another.
"""

from repro.storage.backend.base import StorageBackend
from repro.storage.backend.faulty import (
    FAULT_HORIZON,
    FAULT_KINDS,
    FaultInjectingBackend,
    seeded_fault_schedule,
)
from repro.storage.backend.local import LocalFileBackend
from repro.storage.backend.memory import InMemoryBackend
from repro.storage.backend.objectstore import (
    OBJECT_REQUEST_FLOOR,
    ObjectStoreBackend,
)
from repro.storage.backend.spec import (
    BACKEND_NAMES,
    default_backend_spec,
    ensure_backend_spec,
    parse_faulty_spec,
    parse_object_spec,
    parse_striped_spec,
    resolve_backend,
)
from repro.storage.backend.striped import StripedBackend

__all__ = [
    "BACKEND_NAMES",
    "FAULT_HORIZON",
    "FAULT_KINDS",
    "FaultInjectingBackend",
    "InMemoryBackend",
    "LocalFileBackend",
    "OBJECT_REQUEST_FLOOR",
    "ObjectStoreBackend",
    "StorageBackend",
    "StripedBackend",
    "default_backend_spec",
    "ensure_backend_spec",
    "parse_faulty_spec",
    "parse_object_spec",
    "parse_striped_spec",
    "resolve_backend",
    "seeded_fault_schedule",
]
