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

SQLite is the durable log and the only thing a reopen reads.  Reads are
answered from memory: each array is served from one immutable
:class:`ArraySnapshot`, built from SQL on the array's first touch and,
after every committing transaction, derived from the previous snapshot
plus the rows just written.  Section II-C's metadata queries (List, Get
Versions, lookup by date, array properties) are all answered here.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.core.errors import (
    ArrayExistsError,
    ArrayNotFoundError,
    StorageError,
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

#: A first touch's version rows with their merge parents, in one
#: statement: one row per (version, merge parent), or one with NULL
#: parents, in version order and each version's parents in insert order.
_VERSIONS_SQL = (
    "SELECT v.version_num, v.parent_version, v.kind, v.timestamp,"
    " m.parent_array, m.parent_version AS merge_version"
    " FROM versions v LEFT JOIN merge_parents m"
    " ON m.array_id = v.array_id AND m.version_num = v.version_num"
    " WHERE v.array_id = ? ORDER BY v.version_num, m.rowid")


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


@dataclass(frozen=True, slots=True)
class VersionRecord:
    """Catalog entry for one version of an array."""

    array_id: int
    version: int
    parent_version: int | None
    kind: str
    timestamp: float


#: The version rows one catalog transaction inserts, each with its
#: merge parents (empty for none), in insert order.
VersionRows = Sequence[tuple[VersionRecord, Sequence[tuple[str, int]]]]


@dataclass(frozen=True, slots=True)
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


def _shared_row(pool: dict, latest: dict, record: ChunkRecord
                ) -> tuple[tuple[str, str], ChunkRecord]:
    """``record`` as a snapshot keeps it, with its (attribute, chunk)
    key.  Its repeated values are one copy per snapshot rather than one
    per row: the key, version numbers and codec and compressor names
    from ``pool``, and the path from ``latest`` — the same chunk's row
    kept before it — when the two share an object, as co-located rows
    do.  The row becomes that chunk's ``latest``."""
    share = pool.setdefault
    key = share((record.attribute, record.chunk_name),
                (record.attribute, record.chunk_name))
    prior, location = latest.get(key), record.location
    path = prior.location.path if prior is not None \
        and prior.location.path == location.path else location.path
    row = latest[key] = ChunkRecord(
        record.array_id, share(record.version, record.version), *key,
        share(record.delta_codec, record.delta_codec),
        share(record.base_version, record.base_version),
        share(record.compressor, record.compressor),
        ChunkLocation(path, location.offset, location.length))
    return key, row


class ArraySnapshot:
    """One committed state of one array, never changed once published.

    It holds the array's :class:`ArrayRecord`, its version rows in
    version order, merge parents, labels, and its chunk rows indexed
    version → (attribute, chunk name) → :class:`ChunkRecord`, each level
    in catalog order (``ORDER BY version_num, attribute, chunk_name``).
    Every read is a dict lookup or an ordered walk of these, with no
    lock: a writer never touches a published snapshot, it
    :meth:`derive`-s the next one — copying the two O(versions) top
    levels and the levels it writes, sharing every other row.

    The read methods are the catalog's, minus the array id; a caller
    that takes one snapshot and resolves everything from it sees
    exactly one committed state.
    """

    __slots__ = ("record", "_versions", "_parents", "_labels", "_chunks",
                 "_pool")

    def __init__(self, record: ArrayRecord,
                 versions: dict[int, VersionRecord] | None = None,
                 parents: dict[int, tuple] | None = None,
                 labels: dict[str, int] | None = None,
                 chunks: dict[int, dict[tuple[str, str], ChunkRecord]]
                 | None = None,
                 pool: dict | None = None):
        self.record = record
        self._versions = versions or {}
        self._parents = parents or {}
        self._labels = labels or {}
        self._chunks = chunks or {}
        self._pool = {} if pool is None else pool

    # -- versions -------------------------------------------------------
    def get_version(self, version: int) -> VersionRecord:
        row = self._versions.get(version)
        if row is None:
            raise VersionNotFoundError(
                f"array {self.record.name!r} has no version {version}")
        return row

    def get_versions(self) -> list[VersionRecord]:
        """Section II-C's Get Versions: ordered list of all versions."""
        return list(self._versions.values())

    def latest_version(self) -> int | None:
        return next(reversed(self._versions), None)

    def version_at(self, timestamp: float) -> int:
        """Latest version whose timestamp is <= the given time."""
        eligible = [number for number, row in self._versions.items()
                    if row.timestamp <= timestamp]
        if not eligible:
            bound = datetime.fromtimestamp(timestamp, timezone.utc)
            raise VersionNotFoundError(
                f"array {self.record.name!r} has no version at or "
                f"before {bound.isoformat(sep=' ')}")
        return eligible[-1]

    def merge_parents_of(self, version: int) -> list[tuple[str, int]]:
        return list(self._parents.get(version, ()))

    def version_for_label(self, label: str) -> int:
        version = self._labels.get(label)
        if version is None:
            raise VersionNotFoundError(
                f"array {self.record.name!r} has no label {label!r}")
        return version

    def labels_of(self, version: int | None = None
                  ) -> list[tuple[str, int]]:
        """All (label, version) pairs by label, optionally for one
        version."""
        return sorted((label, number)
                      for label, number in self._labels.items()
                      if version is None or number == version)

    # -- chunks ---------------------------------------------------------
    def get_chunk(self, version: int, attribute: str,
                  chunk_name: str) -> ChunkRecord:
        level = self._chunks.get(version)
        row = None if level is None else level.get((attribute, chunk_name))
        if row is None:
            raise VersionNotFoundError(
                f"no chunk record for array {self.record.array_id} "
                f"v{version} {attribute}/{chunk_name}")
        return row

    def walk_chain(self, version: int, attribute: str, chunk_name: str,
                   stop: Callable[[int], bool] | None = None
                   ) -> Iterator[ChunkRecord]:
        """One chunk's delta chain, lazily: the row of ``version``, then
        of each successive ``base_version``, down to the materialized
        root (``base_version`` None).

        A chain that loops ends at the row whose base was already
        yielded — callers tell a cycle from a root by the last row's
        ``base_version``.  ``stop`` is asked of each version not yet
        yielded before its row is fetched, ``version`` first: the walk
        ends before the first it accepts.  A base with no row raises
        like :meth:`get_chunk` when the walk reaches it.
        """
        seen: set[int] = set()
        cursor: int | None = version
        while cursor is not None and cursor not in seen \
                and not (stop and stop(cursor)):
            seen.add(cursor)
            row = self.get_chunk(cursor, attribute, chunk_name)
            yield row
            cursor = row.base_version

    def chunks_for_version(self, version: int) -> list[ChunkRecord]:
        return list(self._chunks.get(version, {}).values())

    def all_chunks(self) -> list[ChunkRecord]:
        return [row for level in self._chunks.values()
                for row in level.values()]

    def dependents_of(self, version: int) -> list[ChunkRecord]:
        """Chunk records delta-encoded against the given version."""
        return [row for row in self.all_chunks()
                if row.base_version == version]

    def stored_bytes(self, version: int | None = None) -> int:
        """Total encoded payload bytes for one version (or the array)."""
        rows = self.all_chunks() if version is None \
            else self.chunks_for_version(version)
        return sum(row.location.length for row in rows)

    # -- derivation (writers, under the catalog lock) -------------------
    def derive(self, records: list[ChunkRecord],
               versions: VersionRows = (),
               drop: VersionRecord | None = None) -> ArraySnapshot:
        """The snapshot after one committed
        :meth:`MetadataCatalog.put_chunks` transaction: the same edits,
        in the same order, as its statements — ``drop`` deleted with its
        rows and labels and its children re-parented, each of
        ``versions`` inserted with its merge parents, ``records``
        upserted.

        A commit copies the version and chunk indexes' top levels
        (O(versions)) once and builds its own new levels.
        """
        rows, parents = dict(self._versions), dict(self._parents)
        chunks, labels = dict(self._chunks), self._labels
        if drop is not None:
            for table in (rows, parents, chunks):
                table.pop(drop.version, None)
            labels = {label: number for label, number in labels.items()
                      if number != drop.version}
            for number, row in rows.items():
                if row.parent_version == drop.version:
                    rows[number] = replace(
                        row, parent_version=drop.parent_version)
        for row, merge_parents in versions:
            rows[row.version] = row
            if merge_parents:
                parents[row.version] = parents.get(
                    row.version, ()) + tuple(merge_parents)
        levels: dict[int, dict[tuple[str, str], ChunkRecord]] = {}
        latest = dict(chunks[next(reversed(chunks))]) if chunks else {}
        for record in records:
            level = levels.get(record.version)
            if level is None:
                level = levels[record.version] = dict(
                    chunks.get(record.version, {}))
            key, row = _shared_row(self._pool, latest, record)
            level[key] = row
        for number, level in levels.items():
            chunks[number] = dict(sorted(level.items()))
        return ArraySnapshot(self.record, dict(sorted(rows.items())),
                             parents, labels, dict(sorted(chunks.items())),
                             self._pool)

    def relabel(self, label: str, version: int | None) -> ArraySnapshot:
        """The snapshot with ``label`` moved to ``version``, or dropped
        when ``version`` is None."""
        labels = {name: number for name, number in self._labels.items()
                  if name != label}
        if version is not None:
            labels[label] = version
        return ArraySnapshot(self.record, self._versions, self._parents,
                             labels, self._chunks, self._pool)


class MetadataCatalog:
    """SQLite-backed version metadata, served from per-array snapshots.

    SQLite is the log.  Every write is one explicit ``BEGIN``/``COMMIT``
    under an internal re-entrant lock, and only after its ``COMMIT``
    does the catalog derive the array's next :class:`ArraySnapshot`
    from the published one plus the rows just written — it never
    re-reads — and publish it by one reference assignment, still under
    the lock.  A rolled-back transaction publishes nothing.

    Reads run no SQL and take no lock.  An array's snapshot is built on
    its first touch, one ``SELECT`` per table (the versions and their
    merge parents share one), so a reopened store reads SQLite exactly
    as a fresh one writes it.  :meth:`snapshot` hands out the current
    one; the array-id methods below answer from it, one lookup per
    call.  A snapshot of 256 versions × 16 chunks built from SQL holds
    ~270 B per chunk row when chunks are co-located and ~345 B with one
    path per version (CPython 3.11; ``test_catalog_snapshot.py`` bounds
    them at 300 and 380): the row, its location, offset and length, an
    index slot, and the path when it is the row's own — every other
    repeated value is shared within the snapshot.

    Snapshots live until this catalog's own :meth:`delete_array`.
    Another connection's writes to the same file are therefore never
    seen — one open catalog per store.
    """

    def __init__(self, path: str | Path | None = None, *,
                 durable: bool = False):
        """``path`` of None keeps the catalog in memory (tests).

        A file catalog logs ahead (``journal_mode=WAL``: a commit
        appends to the log instead of rewriting pages through a
        rollback journal) and syncs each commit (``synchronous=FULL``)
        only when ``durable`` — the store's backend makes its bytes
        crash-safe at the barrier before the commit, so the commit
        naming them is worth an fsync too.  Otherwise ``NORMAL``: a
        power loss may drop the last commits, never tear one, and a
        process crash loses nothing.
        """
        self._conn = sqlite3.connect(str(path) if path else ":memory:",
                                     check_same_thread=False)
        if path:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous="
                               + ("FULL" if durable else "NORMAL"))
        self._conn.row_factory = sqlite3.Row
        self._lock = threading.RLock()
        self._by_name: dict[str, ArraySnapshot] = {}
        self._by_id: dict[int, ArraySnapshot] = {}
        self._conn.executescript(_SCHEMA_SQL)
        self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, name: str) -> ArraySnapshot:
        """Array ``name``'s current committed state.  An operation
        takes it once and resolves everything from it."""
        snap = self._by_name.get(name)
        return snap if snap is not None else self._first_touch("name", name)

    def publishes(self, snap: ArraySnapshot, version: int) -> bool:
        """Whether ``version`` as ``snap`` knows it is still the
        published one: neither dropped, re-parented nor re-created
        since, nor its array deleted.  An insert, a label or a layout
        swap keeps it.  Lock-free, like every read."""
        row = snap._versions.get(version)
        current = self._by_id.get(snap.record.array_id)
        return row is not None and current is not None and \
            current._versions.get(version) is row

    def _snapshot_of(self, array_id: int) -> ArraySnapshot:
        snap = self._by_id.get(array_id)
        return snap if snap is not None \
            else self._first_touch("id", array_id)

    def _first_touch(self, column: str, key: str | int) -> ArraySnapshot:
        """Build and publish an array's snapshot from its committed rows:
        four statements."""
        with self._lock:
            snap = (self._by_name if column == "name"
                    else self._by_id).get(key)
            if snap is not None:
                return snap
            row = self._conn.execute(
                f"SELECT * FROM arrays WHERE {column} = ?", (key,)
            ).fetchone()
            if row is None:
                raise ArrayNotFoundError(
                    f"no array named {key!r}" if column == "name"
                    else f"no array with id {key}")
            record = self._array_from_row(row)
            array_id = record.array_id
            versions: dict[int, VersionRecord] = {}
            parents: dict[int, tuple[tuple[str, int], ...]] = {}
            for row in self._conn.execute(_VERSIONS_SQL, (array_id,)):
                number = row["version_num"]
                if number not in versions:
                    versions[number] = VersionRecord(
                        array_id, number, row["parent_version"],
                        row["kind"], row["timestamp"])
                if row["parent_array"] is not None:
                    parents[number] = parents.get(number, ()) + (
                        (row["parent_array"], row["merge_version"]),)
            labels = dict(self._conn.execute(
                "SELECT label, version_num FROM version_labels"
                " WHERE array_id = ?", (array_id,)).fetchall())
            pool: dict = {}
            chunks: dict[int, dict[tuple[str, str], ChunkRecord]] = {}
            latest: dict[tuple[str, str], ChunkRecord] = {}
            for row in self._conn.execute(
                    "SELECT * FROM chunks WHERE array_id = ?"
                    " ORDER BY version_num, attribute, chunk_name",
                    (array_id,)):
                key, chunk = _shared_row(pool, latest, ChunkRecord(
                    array_id, row["version_num"], row["attribute"],
                    row["chunk_name"], row["delta_codec"],
                    row["base_version"], row["compressor"],
                    ChunkLocation(row["path"], row["offset"],
                                  row["length"])))
                chunks.setdefault(chunk.version, {})[key] = chunk
            snap = ArraySnapshot(record, versions, parents, labels,
                                 chunks, pool)
            self._publish(snap)
            return snap

    def _publish(self, snap: ArraySnapshot) -> None:
        """Make ``snap`` the array's current state (lock held)."""
        self._by_name[snap.record.name] = self._by_id[
            snap.record.array_id] = snap

    @contextmanager
    def _transaction(self):
        """``BEGIN`` … ``COMMIT``, or ``ROLLBACK`` on any error (lock
        held); the caller publishes only after it."""
        self._conn.execute("BEGIN")
        try:
            yield
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise

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
        """Register a new array (:meth:`put_chunks`, no versions)."""
        with self._lock:
            self.put_chunks([], create=ArrayRecord(
                None, name, schema, chunk_bytes, compressor, created_at,
                parent_array, parent_version, chunk_shape))
            return self.get_array(name)

    def get_array(self, name: str) -> ArrayRecord:
        """The record of array ``name``, parsed once per catalog."""
        return self.snapshot(name).record

    def list_arrays(self) -> list[str]:
        """Section II-C's List operation."""
        with self._lock:
            return [row["name"] for row in self._conn.execute(
                "SELECT name FROM arrays ORDER BY name")]

    def delete_array(self, name: str) -> None:
        with self._lock:
            record = self.get_array(name)
            with self._transaction():
                for table, column in (("chunks", "array_id"),
                                      ("versions", "array_id"),
                                      ("merge_parents", "array_id"),
                                      ("version_labels", "array_id"),
                                      ("arrays", "id")):
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE {column} = ?",
                        (record.array_id,))
            # SQLite may hand the next array this one's id: the snapshot
            # goes in the same locked section as its rows.
            del self._by_name[name], self._by_id[record.array_id]

    @staticmethod
    def _array_from_row(row) -> ArrayRecord:
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
    def get_version(self, array_id: int, version: int) -> VersionRecord:
        return self._snapshot_of(array_id).get_version(version)

    def get_versions(self, array_id: int) -> list[VersionRecord]:
        """Section II-C's Get Versions: ordered list of all versions."""
        return self._snapshot_of(array_id).get_versions()

    def latest_version(self, array_id: int) -> int | None:
        return self._snapshot_of(array_id).latest_version()

    def version_at(self, array_id: int, timestamp: float) -> int:
        """Latest version whose timestamp is <= the given time."""
        return self._snapshot_of(array_id).version_at(timestamp)

    def merge_parents_of(self, array_id: int,
                         version: int) -> list[tuple[str, int]]:
        return self._snapshot_of(array_id).merge_parents_of(version)

    # ------------------------------------------------------------------
    # Version labels (Appendix A: "selecting versions by ... arbitrary
    # labels is under development" — implemented here)
    # ------------------------------------------------------------------
    def set_label(self, array_id: int, label: str, version: int) -> None:
        """Attach (or move) a named label to one version."""
        self._relabel(array_id, label, version)

    def version_for_label(self, array_id: int, label: str) -> int:
        return self._snapshot_of(array_id).version_for_label(label)

    def labels_of(self, array_id: int,
                  version: int | None = None) -> list[tuple[str, int]]:
        """All (label, version) pairs, optionally for one version."""
        return self._snapshot_of(array_id).labels_of(version)

    def drop_label(self, array_id: int, label: str) -> None:
        self._relabel(array_id, label, None)

    def _relabel(self, array_id: int, label: str,
                 version: int | None) -> None:
        with self._lock:
            snap = self._snapshot_of(array_id)
            if version is not None:
                snap.get_version(version)  # existence check
            with self._transaction():
                if version is None:
                    self._conn.execute(
                        "DELETE FROM version_labels WHERE array_id = ?"
                        " AND label = ?", (array_id, label))
                else:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO version_labels"
                        " (array_id, label, version_num) VALUES (?, ?, ?)",
                        (array_id, label, version))
            self._publish(snap.relabel(label, version))

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

    def put_chunks(self, records: list[ChunkRecord],
                   versions: VersionRows = (),
                   drop: VersionRecord | None = None,
                   create: ArrayRecord | None = None
                   ) -> ArraySnapshot | None:
        """Insert or replace many chunk records of one array in one
        transaction — the only writer of array, version, merge-parent
        and chunk rows besides :meth:`delete_array`.

        Every chunk row of a version commits atomically — observers
        see all of the version's rows or none, and a failure rolls the
        whole batch back (leaving zero rows, never a partial version).
        ``versions`` registers version rows, each with its merge
        parents, *in the same transaction*, so freshly written versions
        and their chunks are indivisible: no crash or failure can leave
        one without the other, no reader can ever name a version that
        is not fully readable, and a version may delta against a later
        one of the same batch.  Passing ``drop`` deletes that version
        with its labels and merge parents and re-parents its children,
        in the same transaction.  Passing ``create`` (a new array's
        record, with no ``array_id``, as every row given) inserts the
        array row first and files every row under its new id.

        Returns the snapshot the commit published, or None for an
        array no reader has touched yet (its snapshot is built from
        SQL when one does).
        """
        array_ids = {record.array_id for record in records} | {
            row.array_id for row, _ in versions}
        if drop is not None:
            array_ids.add(drop.array_id)
        if len(array_ids) > 1 or (create is None and None in array_ids):
            raise StorageError(
                f"put_chunks writes one array, got ids "
                f"{sorted(array_ids, key=str)}")
        with self._lock:
            with self._transaction():
                if create is not None:
                    row = dict(
                        name=create.name, compressor=create.compressor,
                        schema_json=json.dumps(create.schema.to_dict()),
                        chunk_bytes=create.chunk_bytes,
                        chunk_shape=json.dumps(list(create.chunk_shape))
                        if create.chunk_shape else None,
                        created_at=create.created_at,
                        parent_array=create.parent_array,
                        parent_version=create.parent_version)
                    try:
                        row["id"] = self._conn.execute(
                            f"INSERT INTO arrays ({', '.join(row)})"
                            f" VALUES (:{', :'.join(row)})", row).lastrowid
                    except sqlite3.IntegrityError:
                        raise ArrayExistsError(f"array {create.name!r} "
                                               "already exists") from None
                    # Parsed from the row written, as a reopen parses it.
                    create = self._array_from_row(row)
                    records = [replace(record, array_id=create.array_id)
                               for record in records]
                    versions = [(replace(version, array_id=create.array_id),
                                 parents) for version, parents in versions]
                if drop is not None:
                    for table in ("chunks", "versions", "merge_parents",
                                  "version_labels"):
                        self._conn.execute(
                            f"DELETE FROM {table} WHERE array_id = ?"
                            " AND version_num = ?",
                            (drop.array_id, drop.version))
                    self._conn.execute(
                        "UPDATE versions SET parent_version = ?"
                        " WHERE array_id = ? AND parent_version = ?",
                        (drop.parent_version, drop.array_id, drop.version))
                for row, merge_parents in versions:
                    self._conn.execute(
                        "INSERT INTO versions (array_id, version_num,"
                        " parent_version, kind, timestamp)"
                        " VALUES (?, ?, ?, ?, ?)",
                        (row.array_id, row.version, row.parent_version,
                         row.kind, row.timestamp))
                    for parent_array, parent_num in merge_parents:
                        self._conn.execute(
                            "INSERT INTO merge_parents (array_id,"
                            " version_num, parent_array, parent_version)"
                            " VALUES (?, ?, ?, ?)",
                            (row.array_id, row.version, parent_array,
                             parent_num))
                self._conn.executemany(
                    self._PUT_CHUNK_SQL,
                    [self._chunk_row(record) for record in records])
            # An array not yet touched is read from SQL when it is.
            snap = ArraySnapshot(create) if create is not None \
                else self._by_id.get(next(iter(array_ids), None))
            if snap is None:
                return None
            snap = snap.derive(records, versions, drop)
            self._publish(snap)
            return snap

    def get_chunk(self, array_id: int, version: int, attribute: str,
                  chunk_name: str) -> ChunkRecord:
        return self._snapshot_of(array_id).get_chunk(version, attribute,
                                                     chunk_name)

    def chunks_for_version(self, array_id: int,
                           version: int) -> list[ChunkRecord]:
        return self._snapshot_of(array_id).chunks_for_version(version)

    def all_chunks(self, array_id: int) -> list[ChunkRecord]:
        return self._snapshot_of(array_id).all_chunks()

    def stored_bytes(self, array_id: int,
                     version: int | None = None) -> int:
        """Total encoded payload bytes for one version (or the array)."""
        return self._snapshot_of(array_id).stored_bytes(version)
