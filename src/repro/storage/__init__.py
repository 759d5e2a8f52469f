"""Chunked, no-overwrite versioned storage (Section II / III-B).

Layering (bottom up): :mod:`~repro.storage.backend` holds bytes,
:mod:`~repro.storage.chunkstore` places chunks over a backend,
:mod:`~repro.storage.pipeline` encodes/decodes versions through the
store, and :mod:`~repro.storage.manager` orchestrates catalog +
pipelines into the paper's versioned-array semantics, writing through
:mod:`~repro.storage.writes` (stage or place, then one commit) and
:mod:`~repro.storage.rewrite`.  Every thread
any of them starts belongs to :mod:`~repro.storage.fan`, one CPU pool
and one sync pool per process.
"""

from repro.storage.backend import (
    BACKEND_NAMES,
    FAULT_KINDS,
    OBJECT_REQUEST_FLOOR,
    FaultInjectingBackend,
    InMemoryBackend,
    LocalFileBackend,
    ObjectStoreBackend,
    StorageBackend,
    StripedBackend,
    default_backend_spec,
    ensure_backend_spec,
    parse_faulty_spec,
    parse_object_spec,
    parse_striped_spec,
    resolve_backend,
    seeded_fault_schedule,
)
from repro.storage.chunking import (
    DEFAULT_CHUNK_BYTES,
    ChunkGrid,
    ChunkRef,
    stride_for,
)
from repro.storage.chunkstore import (
    COLOCATED,
    PER_VERSION,
    ChunkLocation,
    ChunkStore,
)
from repro.storage.iostats import IOStats
from repro.storage.manager import VersionedStorageManager
from repro.storage.metadata import (
    ArrayRecord,
    ChunkRecord,
    MetadataCatalog,
    VersionRecord,
)
from repro.storage.pipeline import (
    POLICY_AUTO,
    POLICY_CHAIN,
    POLICY_MATERIALIZE,
    ChunkCache,
    DecodePipeline,
    EncodePipeline,
)

__all__ = [
    "ArrayRecord",
    "BACKEND_NAMES",
    "COLOCATED",
    "ChunkCache",
    "ChunkGrid",
    "ChunkLocation",
    "ChunkRecord",
    "ChunkRef",
    "ChunkStore",
    "DEFAULT_CHUNK_BYTES",
    "DecodePipeline",
    "EncodePipeline",
    "FAULT_KINDS",
    "FaultInjectingBackend",
    "IOStats",
    "InMemoryBackend",
    "LocalFileBackend",
    "MetadataCatalog",
    "OBJECT_REQUEST_FLOOR",
    "ObjectStoreBackend",
    "PER_VERSION",
    "POLICY_AUTO",
    "POLICY_CHAIN",
    "POLICY_MATERIALIZE",
    "StorageBackend",
    "StripedBackend",
    "VersionRecord",
    "VersionedStorageManager",
    "default_backend_spec",
    "ensure_backend_spec",
    "parse_faulty_spec",
    "parse_object_spec",
    "parse_striped_spec",
    "resolve_backend",
    "seeded_fault_schedule",
    "stride_for",
]
