"""Exception hierarchy for the versioned array storage system.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch a single base class.  The hierarchy mirrors the major
subsystems of the paper's design: the array model, the chunked storage
manager, the delta/compression codecs, the materialization optimizer, and
the AQL query layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SchemaError(ReproError):
    """An array schema is malformed or incompatible with a payload."""


class DimensionError(SchemaError):
    """A dimension specification or coordinate is out of range."""


class AttributeTypeError(SchemaError):
    """An attribute value does not match its declared type."""


class ArrayNotFoundError(ReproError):
    """A named array does not exist in the catalog."""


class ArrayExistsError(ReproError):
    """An array with this name already exists (Create must be unique)."""


class VersionNotFoundError(ReproError):
    """A version id does not exist for the given array."""


class NoOverwriteError(ReproError):
    """An operation attempted to mutate an existing version.

    The storage manager implements the paper's *no-overwrite* model: once a
    version is committed it is immutable; all updates create new versions.
    """


class CodecError(ReproError):
    """A delta or compression codec failed to encode or decode a payload."""


class DeltaShapeMismatchError(CodecError):
    """Deltas can only be created between arrays of identical shape/dtype."""


class DeltaLevelError(CodecError):
    """One level of a delta chain is not a well-formed payload.

    ``level`` indexes the chain's payloads as they were handed to the
    fold, and ``chunk`` the chunk in the fold's batch, so the caller
    that knows the chain can name the version.
    """

    def __init__(self, level: int, message: str, chunk: int = 0):
        self.level = level
        self.chunk = chunk
        super().__init__(message)


class CorruptChunkError(CodecError):
    """A chunk read from disk failed integrity checks during decoding."""


class InvalidLayoutError(ReproError):
    """A version layout cannot reconstruct every version (e.g. delta cycle)."""


class WorkloadError(ReproError):
    """A workload specification references versions that do not exist."""


class AQLSyntaxError(ReproError):
    """The AQL parser rejected a statement."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class AQLExecutionError(ReproError):
    """An AQL statement parsed correctly but could not be executed."""


class StorageError(ReproError):
    """Low-level chunk store failure (missing file, bad header, ...)."""
