"""The staged write: stage → place → commit (Section II's Create,
Insert, Branch and Merge under the no-overwrite model).

Every write of versions is ``commit(manager, stage(manager, ...))`` —
plan, encode, place and barrier here, then file — or
``commit(manager, place(manager, ...))``, which lands the rows and
payloads another copy staged or stores instead of encoding.  All three
pass one handle, a :class:`Shipment`.  Nothing before :func:`commit`
writes a catalog row, so a failure or a crash earlier leaves no
catalog trace: only bytes, which :func:`discard` drops for a new array
and the next compacting rewrite for an append.  :func:`commit` is one
catalog transaction and the only code that names a version in the hot
slot (:class:`_HotSlot`).  The functions take the manager they write
through; the cluster's write fan calls them on every band copy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.compression.registry import get_codec
from repro.core.array import ArrayData, DeltaListPayload, Payload
from repro.core.errors import ArrayExistsError, StorageError
from repro.core.schema import ArraySchema
from repro.storage.chunking import ChunkGrid
from repro.storage.metadata import (
    ArrayRecord,
    ArraySnapshot,
    ChunkRecord,
    VersionRecord,
    VersionRows,
)


@dataclass(frozen=True)
class Shipment:
    """Some versions of one array as one copy stores them — the write
    path's one handle: :func:`stage` returns one placed here, an export
    reads one out of a snapshot, :func:`place` lands one on another
    copy and :func:`commit` files one.

    ``versions`` pairs each lineage row with its merge parents, in
    version order; ``chunks`` are their chunk rows in catalog order and
    ``payloads`` each row's stored bytes, undecoded (a stage keeps them
    only with ``ship=True``).  A new array's ``record`` and rows have
    no ``array_id`` until the commit.  ``head`` is the last version's
    contents when a write staged them, and ``lease`` the hot slot's
    (:meth:`_HotSlot.lend`) when that version was encoded onto the
    slot's canvas, which then already holds it.
    """

    record: ArrayRecord
    versions: VersionRows
    chunks: list[ChunkRecord]
    payloads: list | None = None
    head: ArrayData | None = None
    lease: object | None = None


class _HotSlot:
    """The last version written, held in store-owned memory: the base
    the next insert deltas against, and the answer to a whole-version
    read of that version.

    A chain-policy insert deltas against the data the manager was just
    handed instead of re-reconstructing the parent through its whole
    delta chain.  The slot must never alias memory the caller can
    still reach — ``ArrayData`` marks only its own view read-only, so
    ``insert(buf)`` leaves ``buf`` writable, and a simulation loop
    that mutates ``buf`` in place between inserts would otherwise
    delta the next version against an already-mutated "base".  So the
    version lives in one canvas per attribute, allocated once per
    layout and reused across inserts.  The next version gets there one
    of two ways: an encode that :meth:`lend` handed the canvas copies
    into it just the runs of cells that changed, and :meth:`adopt`
    names the result; any other write is copied in whole
    (:meth:`remember`) — into canvases of its own when the current ones
    are lent to an encode or named for another array, whose next insert
    may be deltaing against them.

    A read is answered by one copy of the canvases (:meth:`read`) into
    the reader's canvases or fresh ones, and only for the catalog row
    the commit that named them published:
    a row is an object of its own per commit, so a reader pinned
    before a ``delete_version`` of the head and the re-insert of its
    number — same lineage, same timestamp, equal by value — is not
    served the new contents.  The lent canvases are overwritten on
    the CPU fan's lanes while no lock is held, so everything that
    names, un-names or copies them — :meth:`lend`, :meth:`adopt`,
    :meth:`remember`, :meth:`forget` and :meth:`read` — holds the
    slot's lock: a reader copies the whole named version, or finds
    nothing named and decodes.  :meth:`get` hands the write path the
    canvases themselves, without the lock: only a writer changes them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._key: tuple[str, int] | None = None
        #: The catalog row the named version was published under.
        self._row: VersionRecord | None = None
        self._canvases: dict[str, np.ndarray] = {}
        self._data: ArrayData | None = None
        #: The array of the insert the canvases are lent to, and the
        #: lease's identity.
        self._lease: tuple[str, object] | None = None

    def get(self, name: str, version: int) -> ArrayData | None:
        """The snapshot of ``name@version`` when that is what is held."""
        return self._data if self._key == (name, version) else None

    def read(self, row: VersionRecord,
             out: dict[str, np.ndarray] | None = None
             ) -> dict[str, np.ndarray] | None:
        """When the canvases hold the version ``row`` was published as
        — that very row object — copy them into ``out`` (the attributes
        it names) or fresh arrays (every attribute) and return those;
        else None."""
        with self._lock:
            if self._row is not row:
                return None
            if out is None:
                out = {attr: np.empty_like(canvas)
                       for attr, canvas in self._canvases.items()}
            for attr, window in out.items():
                np.copyto(window, self._canvases[attr])
            return out

    def lend(self, name: str, version: int
             ) -> tuple[dict[str, np.ndarray], object] | None:
        """The writable canvases and a lease on them, when they hold
        ``name@version``: un-named from here on — the borrower
        overwrites them with the next version, and only :meth:`adopt`
        with this lease names them again."""
        with self._lock:
            if self._key != (name, version):
                return None
            self._key = self._row = None
            self._lease = (name, object())
            return self._canvases, self._lease

    def adopt(self, name: str, version: int, lease: object,
              row: VersionRecord) -> bool:
        """Name the lent canvases ``name@version``, published as
        ``row`` — no copy — unless another write touched the slot since
        ``lease`` was taken."""
        with self._lock:
            if lease is None or lease is not self._lease:
                return False
            self._lease = None
            self._key, self._row = (name, version), row
            return True

    def remember(self, name: str, version: int, data: ArrayData,
                 row: VersionRecord) -> None:
        """Copy ``data`` in whole as ``name@version``, published as
        ``row``."""
        sources = {attr: data.attribute(attr)
                   for attr in data.attribute_names}
        layout = {attr: (values.shape, values.dtype)
                  for attr, values in sources.items()}
        with self._lock:
            # Canvases lent to an encode, or named for another array
            # (whose next insert may hold them as its base), are not
            # this write's to overwrite: it gets canvases of its own.
            taken = self._lease is not None or (
                self._key is not None and self._key[0] != name)
            # Never a named, half-copied canvas.
            self._key = self._row = self._lease = None
            if taken or layout != {attr: (canvas.shape, canvas.dtype)
                                   for attr, canvas in
                                   self._canvases.items()}:
                self._canvases = {attr: np.empty_like(values)
                                  for attr, values in sources.items()}
                # ArrayData freezes views of its own; the canvases stay
                # writable here.
                self._data = ArrayData(data.schema, self._canvases)
            for attr, values in sources.items():
                np.copyto(self._canvases[attr], values)
            self._key, self._row = (name, version), row

    def forget(self, name: str) -> None:
        """Drop the snapshot if it is of array ``name``, and a lease
        out on the canvases to an insert into ``name``."""
        with self._lock:
            if self._lease is not None and self._lease[0] == name:
                self._lease = None
            if self._key is not None and self._key[0] == name:
                self._key = self._row = None


def new_record(manager, name: str, schema: ArraySchema,
               chunk_bytes: int | None = None, compressor: str | None = None,
               parent_array: str | None = None,
               parent_version: int | None = None,
               chunk_shape: tuple[int, ...] | None = None) -> ArrayRecord:
    """A new array's record, no ``array_id`` yet, the manager's
    defaults filled.  A compressor the store does not write raises
    :class:`CodecError`."""
    get_codec(compressor or manager.compressor_name)
    if chunk_bytes is None:
        chunk_bytes = manager.chunk_bytes
    # Validate eagerly so a bad shape or budget fails at Create.
    ChunkGrid(schema.shape, schema.cell_size, chunk_bytes, chunk_shape)
    return ArrayRecord(
        None, name, schema, chunk_bytes,
        compressor or manager.compressor_name, manager._now(),
        parent_array, parent_version,
        tuple(chunk_shape) if chunk_shape else None)


def version_contents(manager, record: ArrayRecord,
                     version: int) -> ArrayData:
    """A committed version the write path deltas against or patches:
    the hot slot's snapshot when it holds that version, else an
    ordinary ``select`` — a canvas either way."""
    held = manager._hot.get(record.name, version)
    return held if held is not None \
        else manager.select(record.name, version)


def base_of(manager, record: ArrayRecord, base_version: int | None,
            held) -> ArrayData | None:
    """What a version encodes against: nothing when it has no base or
    the policy never deltas, else ``held`` (the version last staged,
    with its contents) when that is the base, else
    :func:`version_contents`."""
    if base_version is None or not manager.encoder.wants_base:
        return None
    if held is not None and held[0] == base_version:
        return held[1]
    return version_contents(manager, record, base_version)


def _normalize(manager, record: ArrayRecord,
               payload: Payload | ArrayData | np.ndarray) -> ArrayData:
    if isinstance(payload, ArrayData):
        # The one form that arrives with a schema of its own: an encode
        # with no delta base would never compare the two.
        return payload.conforming(record.schema)
    if isinstance(payload, np.ndarray):
        return ArrayData.from_single(record.schema, payload)
    if isinstance(payload, DeltaListPayload):
        base = version_contents(manager, record, payload.base_version)
        return payload.to_array_data(record.schema, base=base)
    return payload.to_array_data(record.schema)


def _claim(manager, name: str, new: ArrayRecord | None, numbers: list[int]
           ) -> tuple[ArrayRecord, ArraySnapshot | None]:
    """The record a write of versions ``numbers`` into ``name`` files
    under, with the snapshot of what ``name`` stores: ``new`` for a new
    array (no snapshot) — refused when the name is in use — else the
    array's own.  Refused too unless ``numbers`` run upward from above
    the latest version stored."""
    if new is not None:
        if name in manager.catalog.list_arrays():
            raise ArrayExistsError(f"array {name!r} already exists")
        record, snap, latest = new, None, 0
    else:
        snap = manager.catalog.snapshot(name)
        record, latest = snap.record, snap.latest_version() or 0
    if numbers and (numbers != sorted(set(numbers))
                    or numbers[0] <= latest):
        raise StorageError(
            f"array {name!r} is append-only: it is at version {latest}, "
            f"cannot write versions {numbers}")
    return record, snap


def stage(manager, name: str, contents, *, kind: str = "insert",
          version: int | None = None, parent_version: int | None = None,
          timestamp: float | None = None, merge_parents: list | None = None,
          origin: tuple[str, int | None] | None = None,
          ship: bool = False) -> Shipment:
    """Plan, encode, place and barrier every version of one write; no
    catalog write.  A version whose base the hot slot holds borrows the
    slot's canvas (:meth:`_HotSlot.lend`, which un-names it) and is
    encoded onto it; :func:`commit` names it, or copies the last
    version in.  ``ship`` keeps the placed payloads in the result, for
    other copies to :func:`place`.

    ``contents`` become consecutive versions of ``name``, each the
    lineage child and delta of the one before; the first is
    ``version``, child of ``parent_version`` (default: one past the
    latest, and the latest).  ``merge_parents`` lists each one's.
    ``origin`` = ``(array, v)`` creates ``name`` like ``array``,
    branched off ``array@v`` unless ``v`` is None.  Refused before a
    byte lands under the name's paths: a name in use for a new array,
    a ``version`` not above the latest."""
    if kind not in ("insert", "branch-root", "merge"):
        raise StorageError(f"unknown version kind {kind!r}")
    new = None
    if origin is not None:
        source = manager.catalog.get_array(origin[0])
        new = new_record(
            manager, name, source.schema, chunk_bytes=source.chunk_bytes,
            compressor=source.compressor,
            parent_array=None if origin[1] is None else origin[0],
            parent_version=origin[1], chunk_shape=source.chunk_shape)
    record, snap = _claim(manager, name, new,
                          [] if version is None else [version])
    if version is None:
        latest = (snap and snap.latest_version()) or 0
        version, parent_version = latest + 1, latest or None
    rows, chunks, held, lease = [], [], None, None
    payloads = [] if ship else None
    try:
        for number, payload in enumerate(contents, version):
            parent = parent_version if number == version else number - 1
            data = _normalize(manager, record, payload)
            base_data = base_of(manager, record, parent, held)
            # A base the hot slot holds is encoded against in place: the
            # encode leaves the canvas holding ``data``.
            canvas = lease = None
            if base_data is not None \
                    and base_data is manager._hot.get(record.name, parent):
                canvas, lease = manager._hot.lend(record.name, parent)
            chunks += manager.encoder.write_version(
                record, record.grid, number, data,
                base_data=base_data, base_version=parent,
                canvas=canvas, payloads=payloads)
            rows.append((VersionRecord(
                record.array_id, number, parent, kind,
                manager._now() if timestamp is None else timestamp),
                tuple(merge_parents[number - version])
                if merge_parents else ()))
            held = (number, data)
    except BaseException:
        discard(manager, record)
        raise
    return Shipment(record, rows, chunks, payloads, held[1], lease)


def place(manager, name: str, shipment: Shipment) -> Shipment:
    """Stage ``shipment`` — versions of ``name`` exactly as another copy
    stores them — here: each payload through this store's own
    :meth:`ChunkStore.write_chunk`, then one durability barrier over
    every placed payload; no plan, no encode, no catalog write.  The
    result keeps the shipment's ``head`` (a band sibling's commit
    copies it into the hot slot) and drops its ``lease``.

    A shipment whose record has no ``array_id`` creates ``name`` with
    that record (a branch or merge staged on another copy), and is
    refused when the name is in use here.  Also refused before anything
    is placed: versions not above this array's latest, a source whose
    storage identity (schema, chunk geometry, compressor) is not this
    array's, and a delta base neither side holds.  A fault while
    placing discards what a new array placed.
    """
    source = shipment.record
    numbers = [row.version for row, _ in shipment.versions]
    record, snap = _claim(
        manager, name,
        replace(source, name=name) if source.array_id is None else None,
        numbers)
    if (record.schema, record.chunk_bytes, record.chunk_shape,
            record.compressor) != (source.schema, source.chunk_bytes,
                                   source.chunk_shape, source.compressor):
        raise StorageError(
            f"cannot place versions into {name!r}: they come from an "
            f"array stored differently")
    shipped = set(numbers)
    stored = {row.version for row in snap.get_versions()} if snap else set()
    bases = stored | shipped | {None}
    for chunk in shipment.chunks:
        if chunk.version not in shipped or chunk.base_version not in bases:
            raise StorageError(
                f"cannot place {name!r} v{chunk.version}: its chunk "
                f"{chunk.attribute}/{chunk.chunk_name} names a version "
                f"neither copy holds")
    try:
        rows = [replace(chunk, array_id=record.array_id,
                        location=manager.store.write_chunk(
                            name, chunk.version, chunk.attribute,
                            chunk.chunk_name, payload))
                for chunk, payload in zip(shipment.chunks,
                                          shipment.payloads)]
        if rows:
            manager.store.sync_chunks([chunk.location for chunk in rows])
    except BaseException:
        discard(manager, record)
        raise
    return replace(shipment, record=record, chunks=rows, lease=None,
                   versions=[(replace(row, array_id=record.array_id),
                              parents)
                             for row, parents in shipment.versions])


def discard(manager, record: ArrayRecord) -> None:
    """Drop what a failed write placed for a new array (its name was
    free: all of it); an append's wait for the next rewrite."""
    if record.array_id is None \
            and record.name not in manager.catalog.list_arrays():
        manager.store.delete_array(record.name)


def commit(manager, shipment: Shipment) -> int | None:
    """File ``shipment`` in one catalog transaction — its array row
    first when its record has no ``array_id`` — and return its last
    version (None when it has none).  A refused commit discards what a
    new array placed.

    A handle with a ``head`` then puts that version in the hot slot —
    the only code that names one there — under the row the transaction
    published: it names the canvas the stage encoded it onto, else
    copies it in.  An import or a create leaves the slot alone."""
    record = shipment.record
    try:
        published = manager.catalog.put_chunks(
            shipment.chunks, versions=shipment.versions,
            create=record if record.array_id is None else None)
    except BaseException:
        discard(manager, record)
        raise
    if not shipment.versions:
        return None
    version = shipment.versions[-1][0].version
    if shipment.head is not None and manager.encoder.wants_base:
        row = published.get_version(version)
        if not manager._hot.adopt(record.name, version, shipment.lease,
                                  row):
            manager._hot.remember(record.name, version, shipment.head, row)
    return version
