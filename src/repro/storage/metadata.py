"""The Version Metadata catalog (Figure 1's "Version Metadata" box).

Section II-A: "Data is added to the Version Metadata indicating the
location on disk of each chunk in the new version, as well as the
coordinates of the chunks and the timestamp of the version, as well as
the versions against which this new version was delta'ed (if any)."

The catalog is a small embedded SQLite database holding three relations:

* ``arrays``   — name, schema, chunking parameters, branch parentage;
* ``versions`` — per-array version sequence with timestamps, lineage
  parents, and merge parent sets;
* ``chunks``   — per (version, attribute, chunk) encoding record: which
  delta codec (if any), which base version, which compressor, and the
  on-disk location.

Section II-C's metadata queries (List, Get Versions, lookup by date,
array properties) are all answered from here.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from repro.core.errors import (
    ArrayExistsError,
    ArrayNotFoundError,
    VersionNotFoundError,
)
from repro.core.schema import ArraySchema
from repro.storage.chunking import ChunkGrid
from repro.storage.chunkstore import ChunkLocation

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS arrays (
    id             INTEGER PRIMARY KEY,
    name           TEXT UNIQUE NOT NULL,
    schema_json    TEXT NOT NULL,
    chunk_bytes    INTEGER NOT NULL,
    chunk_shape    TEXT,
    compressor     TEXT NOT NULL,
    created_at     REAL NOT NULL,
    parent_array   TEXT,
    parent_version INTEGER
);
CREATE TABLE IF NOT EXISTS versions (
    array_id       INTEGER NOT NULL REFERENCES arrays(id),
    version_num    INTEGER NOT NULL,
    parent_version INTEGER,
    kind           TEXT NOT NULL,
    timestamp      REAL NOT NULL,
    PRIMARY KEY (array_id, version_num)
);
CREATE TABLE IF NOT EXISTS version_labels (
    array_id       INTEGER NOT NULL,
    label          TEXT NOT NULL,
    version_num    INTEGER NOT NULL,
    PRIMARY KEY (array_id, label)
);
CREATE TABLE IF NOT EXISTS merge_parents (
    array_id       INTEGER NOT NULL,
    version_num    INTEGER NOT NULL,
    parent_array   TEXT NOT NULL,
    parent_version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS chunks (
    array_id     INTEGER NOT NULL,
    version_num  INTEGER NOT NULL,
    attribute    TEXT NOT NULL,
    chunk_name   TEXT NOT NULL,
    delta_codec  TEXT,
    base_version INTEGER,
    compressor   TEXT NOT NULL,
    path         TEXT NOT NULL,
    offset       INTEGER NOT NULL,
    length       INTEGER NOT NULL,
    PRIMARY KEY (array_id, version_num, attribute, chunk_name)
);
CREATE INDEX IF NOT EXISTS chunk_by_version
    ON chunks (array_id, version_num);
"""


@dataclass(frozen=True)
class ArrayRecord:
    """Catalog entry for one named array."""

    array_id: int
    name: str
    schema: ArraySchema
    chunk_bytes: int
    compressor: str
    created_at: float
    parent_array: str | None
    parent_version: int | None
    #: Explicit per-dimension chunk strides, or None for the paper's
    #: even division of the byte budget.
    chunk_shape: tuple[int, ...] | None = None

    @cached_property
    def grid(self) -> ChunkGrid:
        """The chunk grid shared by every version, built once per
        record (not a field: equality and repr are the catalog row's)."""
        return ChunkGrid(self.schema.shape, self.schema.cell_size,
                         self.chunk_bytes, chunk_shape=self.chunk_shape)


@dataclass(frozen=True)
class VersionRecord:
    """Catalog entry for one version of an array."""

    array_id: int
    version: int
    parent_version: int | None
    kind: str
    timestamp: float


@dataclass(frozen=True)
class ChunkRecord:
    """Catalog entry describing how one chunk of one version is encoded.

    ``delta_codec``/``base_version`` are None for materialized chunks.
    """

    array_id: int
    version: int
    attribute: str
    chunk_name: str
    delta_codec: str | None
    base_version: int | None
    compressor: str
    location: ChunkLocation

    @property
    def is_delta(self) -> bool:
        return self.delta_codec is not None


class MetadataCatalog:
    """SQLite-backed version metadata.

    One connection is shared by every caller — including the decode
    pipeline's worker threads, which locate delta chains concurrently —
    so the connection is opened with ``check_same_thread=False`` and
    every statement runs under an internal re-entrant lock.  Multi-row
    writes (:meth:`put_chunks`) use an explicit ``BEGIN``/``COMMIT`` so
    a version's chunk records land atomically.

    Array records are parsed once per catalog and kept by name: they
    are immutable, shared by every caller and thread, and dropped only
    by this catalog's own :meth:`delete_array`.  Another connection's
    DROP or CREATE on the same file is therefore never seen — one open
    catalog per store.
    """

    def __init__(self, path: str | Path | None = None):
        """``path`` of None keeps the catalog in memory (tests)."""
        self._conn = sqlite3.connect(str(path) if path else ":memory:",
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._lock = threading.RLock()
        self._arrays: dict[str, ArrayRecord] = {}
        self._conn.executescript(_SCHEMA_SQL)
        self._conn.commit()

    def _query_one(self, sql: str, params: tuple = ()) -> sqlite3.Row:
        with self._lock:
            return self._conn.execute(sql, params).fetchone()

    def _query_all(self, sql: str,
                   params: tuple = ()) -> list[sqlite3.Row]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Arrays
    # ------------------------------------------------------------------
    def create_array(self, name: str, schema: ArraySchema,
                     chunk_bytes: int, compressor: str,
                     created_at: float,
                     parent_array: str | None = None,
                     parent_version: int | None = None,
                     chunk_shape: tuple[int, ...] | None = None
                     ) -> ArrayRecord:
        """Register a new array; names are unique."""
        with self._lock:
            try:
                self._conn.execute(
                    "INSERT INTO arrays (name, schema_json, chunk_bytes,"
                    " chunk_shape, compressor, created_at, parent_array,"
                    " parent_version) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (name, json.dumps(schema.to_dict()), chunk_bytes,
                     json.dumps(list(chunk_shape)) if chunk_shape else None,
                     compressor, created_at, parent_array, parent_version))
            except sqlite3.IntegrityError:
                raise ArrayExistsError(
                    f"array {name!r} already exists") from None
            self._conn.commit()
            return self.get_array(name)

    def get_array(self, name: str) -> ArrayRecord:
        """The record of array ``name``: answered from the parsed
        records, and read and parsed (once) only on a miss."""
        record = self._arrays.get(name)
        if record is None:
            with self._lock:
                row = self._conn.execute(
                    "SELECT * FROM arrays WHERE name = ?", (name,)
                ).fetchone()
                if row is None:
                    raise ArrayNotFoundError(f"no array named {name!r}")
                record = self._arrays[name] = self._array_from_row(row)
        return record

    def list_arrays(self) -> list[str]:
        """Section II-C's List operation."""
        rows = self._query_all("SELECT name FROM arrays ORDER BY name")
        return [row["name"] for row in rows]

    def delete_array(self, name: str) -> None:
        with self._lock:
            record = self.get_array(name)
            # SQLite may hand the next array this one's id: the parsed
            # record goes in the same locked section as its rows.
            del self._arrays[name]
            self._conn.execute("DELETE FROM chunks WHERE array_id = ?",
                               (record.array_id,))
            self._conn.execute("DELETE FROM versions WHERE array_id = ?",
                               (record.array_id,))
            self._conn.execute(
                "DELETE FROM merge_parents WHERE array_id = ?",
                (record.array_id,))
            self._conn.execute(
                "DELETE FROM version_labels WHERE array_id = ?",
                (record.array_id,))
            self._conn.execute("DELETE FROM arrays WHERE id = ?",
                               (record.array_id,))
            self._conn.commit()

    @staticmethod
    def _array_from_row(row: sqlite3.Row) -> ArrayRecord:
        chunk_shape = None
        if row["chunk_shape"]:
            chunk_shape = tuple(json.loads(row["chunk_shape"]))
        return ArrayRecord(
            array_id=row["id"],
            name=row["name"],
            schema=ArraySchema.from_dict(json.loads(row["schema_json"])),
            chunk_bytes=row["chunk_bytes"],
            compressor=row["compressor"],
            created_at=row["created_at"],
            parent_array=row["parent_array"],
            parent_version=row["parent_version"],
            chunk_shape=chunk_shape,
        )

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    def add_version(self, array_id: int, version: int,
                    parent_version: int | None, kind: str,
                    timestamp: float,
                    merge_parents: list[tuple[str, int]] | None = None
                    ) -> VersionRecord:
        with self._lock:
            self._conn.execute(
                "INSERT INTO versions (array_id, version_num,"
                " parent_version, kind, timestamp) VALUES (?, ?, ?, ?, ?)",
                (array_id, version, parent_version, kind, timestamp))
            for parent_array, parent_num in merge_parents or []:
                self._conn.execute(
                    "INSERT INTO merge_parents (array_id, version_num,"
                    " parent_array, parent_version) VALUES (?, ?, ?, ?)",
                    (array_id, version, parent_array, parent_num))
            self._conn.commit()
        return VersionRecord(array_id, version, parent_version, kind,
                             timestamp)

    def get_version(self, array_id: int, version: int) -> VersionRecord:
        row = self._query_one(
            "SELECT * FROM versions WHERE array_id = ? AND version_num = ?",
            (array_id, version))
        if row is None:
            raise VersionNotFoundError(
                f"array {array_id} has no version {version}")
        return VersionRecord(row["array_id"], row["version_num"],
                             row["parent_version"], row["kind"],
                             row["timestamp"])

    def get_versions(self, array_id: int) -> list[VersionRecord]:
        """Section II-C's Get Versions: ordered list of all versions."""
        rows = self._query_all(
            "SELECT * FROM versions WHERE array_id = ?"
            " ORDER BY version_num", (array_id,))
        return [VersionRecord(r["array_id"], r["version_num"],
                              r["parent_version"], r["kind"],
                              r["timestamp"]) for r in rows]

    def latest_version(self, array_id: int) -> int | None:
        row = self._query_one(
            "SELECT MAX(version_num) AS v FROM versions WHERE array_id = ?",
            (array_id,))
        return row["v"]

    def version_at(self, array_id: int, timestamp: float) -> int:
        """Latest version whose timestamp is <= the given time."""
        row = self._query_one(
            "SELECT MAX(version_num) AS v FROM versions"
            " WHERE array_id = ? AND timestamp <= ?",
            (array_id, timestamp))
        if row["v"] is None:
            raise VersionNotFoundError(
                f"array {array_id} has no version at or before {timestamp}")
        return row["v"]

    def merge_parents_of(self, array_id: int,
                         version: int) -> list[tuple[str, int]]:
        rows = self._query_all(
            "SELECT parent_array, parent_version FROM merge_parents"
            " WHERE array_id = ? AND version_num = ?",
            (array_id, version))
        return [(r["parent_array"], r["parent_version"]) for r in rows]

    # ------------------------------------------------------------------
    # Version labels (Appendix A: "selecting versions by ... arbitrary
    # labels is under development" — implemented here)
    # ------------------------------------------------------------------
    def set_label(self, array_id: int, label: str, version: int) -> None:
        """Attach (or move) a named label to one version."""
        self.get_version(array_id, version)  # existence check
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO version_labels"
                " (array_id, label, version_num) VALUES (?, ?, ?)",
                (array_id, label, version))
            self._conn.commit()

    def version_for_label(self, array_id: int, label: str) -> int:
        row = self._query_one(
            "SELECT version_num FROM version_labels"
            " WHERE array_id = ? AND label = ?",
            (array_id, label))
        if row is None:
            raise VersionNotFoundError(
                f"array {array_id} has no label {label!r}")
        return row["version_num"]

    def labels_of(self, array_id: int,
                  version: int | None = None) -> list[tuple[str, int]]:
        """All (label, version) pairs, optionally for one version."""
        if version is None:
            rows = self._query_all(
                "SELECT label, version_num FROM version_labels"
                " WHERE array_id = ? ORDER BY label",
                (array_id,))
        else:
            rows = self._query_all(
                "SELECT label, version_num FROM version_labels"
                " WHERE array_id = ? AND version_num = ? ORDER BY label",
                (array_id, version))
        return [(r["label"], r["version_num"]) for r in rows]

    def drop_label(self, array_id: int, label: str) -> None:
        with self._lock:
            self._conn.execute(
                "DELETE FROM version_labels WHERE array_id = ?"
                " AND label = ?", (array_id, label))
            self._conn.commit()

    def reparent_versions(self, array_id: int, old_parent: int,
                          new_parent: int | None) -> None:
        """Relink the lineage of versions whose parent is being deleted."""
        with self._lock:
            self._conn.execute(
                "UPDATE versions SET parent_version = ?"
                " WHERE array_id = ? AND parent_version = ?",
                (new_parent, array_id, old_parent))
            self._conn.commit()

    def delete_version(self, array_id: int, version: int) -> None:
        self.get_version(array_id, version)  # existence check
        with self._lock:
            self._conn.execute(
                "DELETE FROM version_labels WHERE array_id = ?"
                " AND version_num = ?", (array_id, version))
            self._conn.execute(
                "DELETE FROM chunks WHERE array_id = ?"
                " AND version_num = ?", (array_id, version))
            self._conn.execute(
                "DELETE FROM versions WHERE array_id = ?"
                " AND version_num = ?", (array_id, version))
            self._conn.execute(
                "DELETE FROM merge_parents WHERE array_id = ?"
                " AND version_num = ?", (array_id, version))
            self._conn.commit()

    # ------------------------------------------------------------------
    # Chunks
    # ------------------------------------------------------------------
    _PUT_CHUNK_SQL = (
        "INSERT OR REPLACE INTO chunks (array_id, version_num,"
        " attribute, chunk_name, delta_codec, base_version,"
        " compressor, path, offset, length)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)")

    @staticmethod
    def _chunk_row(record: ChunkRecord) -> tuple:
        return (record.array_id, record.version, record.attribute,
                record.chunk_name, record.delta_codec,
                record.base_version, record.compressor,
                record.location.path, record.location.offset,
                record.location.length)

    def put_chunk(self, record: ChunkRecord) -> None:
        """Insert or replace one chunk encoding record."""
        with self._lock:
            self._conn.execute(self._PUT_CHUNK_SQL,
                               self._chunk_row(record))
            self._conn.commit()

    def put_chunks(self, records: list[ChunkRecord],
                   version: VersionRecord | None = None,
                   merge_parents: list[tuple[str, int]] | None = None
                   ) -> None:
        """Insert or replace many chunk records in one transaction.

        This is the write path's batching primitive: every chunk row of
        a version commits atomically — observers see all of the
        version's rows or none, and a failure rolls the whole batch
        back (leaving zero rows, never a partial version).  Passing
        ``version`` registers the version row *in the same
        transaction*, so a freshly inserted version and its chunks are
        indivisible: no crash or failure can leave one without the
        other, and no reader can ever name a version that is not fully
        readable.
        """
        if not records and version is None:
            return
        with self._lock:
            try:
                self._conn.execute("BEGIN")
                if version is not None:
                    self._conn.execute(
                        "INSERT INTO versions (array_id, version_num,"
                        " parent_version, kind, timestamp)"
                        " VALUES (?, ?, ?, ?, ?)",
                        (version.array_id, version.version,
                         version.parent_version, version.kind,
                         version.timestamp))
                    for parent_array, parent_num in merge_parents or []:
                        self._conn.execute(
                            "INSERT INTO merge_parents (array_id,"
                            " version_num, parent_array, parent_version)"
                            " VALUES (?, ?, ?, ?)",
                            (version.array_id, version.version,
                             parent_array, parent_num))
                self._conn.executemany(
                    self._PUT_CHUNK_SQL,
                    [self._chunk_row(record) for record in records])
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise

    def get_chunk(self, array_id: int, version: int, attribute: str,
                  chunk_name: str) -> ChunkRecord:
        row = self._query_one(
            "SELECT * FROM chunks WHERE array_id = ? AND version_num = ?"
            " AND attribute = ? AND chunk_name = ?",
            (array_id, version, attribute, chunk_name))
        if row is None:
            raise VersionNotFoundError(
                f"no chunk record for array {array_id} v{version} "
                f"{attribute}/{chunk_name}")
        return self._chunk_from_row(row)

    _CHUNK_CHAIN_SQL = (
        "WITH RECURSIVE chain AS ("
        " SELECT * FROM chunks WHERE array_id = ? AND version_num = ?"
        " AND attribute = ? AND chunk_name = ?"
        " UNION"
        " SELECT c.* FROM chunks c JOIN chain p"
        " ON c.array_id = p.array_id AND c.version_num = p.base_version"
        " AND c.attribute = p.attribute AND c.chunk_name = p.chunk_name)"
        " SELECT * FROM chain")

    def get_chunk_chain(self, array_id: int, version: int,
                        attribute: str,
                        chunk_name: str) -> list[ChunkRecord]:
        """One chunk's delta chain in a single query: the record of
        ``version``, then of each successive ``base_version``, down to
        the materialized root (``base_version`` None).

        A chain that loops ends at the record whose base was already
        visited (``UNION`` drops the repeated row, so the recursion
        terminates) — callers tell a cycle from a root by the last
        record's ``base_version``.  A base with no row raises like
        :meth:`get_chunk`.
        """
        rows = self._query_all(self._CHUNK_CHAIN_SQL,
                               (array_id, version, attribute, chunk_name))
        by_version = {row["version_num"]: row for row in rows}
        chain: list[ChunkRecord] = []
        seen: set[int] = set()
        cursor: int | None = version
        while cursor is not None and cursor not in seen:
            row = by_version.get(cursor)
            if row is None:
                raise VersionNotFoundError(
                    f"no chunk record for array {array_id} v{cursor} "
                    f"{attribute}/{chunk_name}")
            seen.add(cursor)
            chain.append(self._chunk_from_row(row))
            cursor = row["base_version"]
        return chain

    def chunks_for_version(self, array_id: int,
                           version: int) -> list[ChunkRecord]:
        rows = self._query_all(
            "SELECT * FROM chunks WHERE array_id = ? AND version_num = ?"
            " ORDER BY attribute, chunk_name",
            (array_id, version))
        return [self._chunk_from_row(r) for r in rows]

    def all_chunks(self, array_id: int) -> list[ChunkRecord]:
        rows = self._query_all(
            "SELECT * FROM chunks WHERE array_id = ?"
            " ORDER BY version_num, attribute, chunk_name",
            (array_id,))
        return [self._chunk_from_row(r) for r in rows]

    def dependents_of(self, array_id: int,
                      version: int) -> list[ChunkRecord]:
        """Chunk records delta-encoded against the given version."""
        rows = self._query_all(
            "SELECT * FROM chunks WHERE array_id = ? AND base_version = ?",
            (array_id, version))
        return [self._chunk_from_row(r) for r in rows]

    def stored_bytes(self, array_id: int,
                     version: int | None = None) -> int:
        """Total encoded payload bytes for one version (or the array)."""
        if version is None:
            row = self._query_one(
                "SELECT COALESCE(SUM(length), 0) AS s FROM chunks"
                " WHERE array_id = ?", (array_id,))
        else:
            row = self._query_one(
                "SELECT COALESCE(SUM(length), 0) AS s FROM chunks"
                " WHERE array_id = ? AND version_num = ?",
                (array_id, version))
        return row["s"]

    @staticmethod
    def _chunk_from_row(row: sqlite3.Row) -> ChunkRecord:
        return ChunkRecord(
            array_id=row["array_id"],
            version=row["version_num"],
            attribute=row["attribute"],
            chunk_name=row["chunk_name"],
            delta_codec=row["delta_codec"],
            base_version=row["base_version"],
            compressor=row["compressor"],
            location=ChunkLocation(row["path"], row["offset"],
                                   row["length"]),
        )
