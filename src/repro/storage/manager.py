"""The versioned, no-overwrite storage manager (Section II).

This is the paper's primary artifact: a single-node storage system that
exposes the five basic operations — allocate a new array, delete an
array, create a new version, delete a version, and query a version —
under a *no-overwrite* model: committed versions are immutable and every
update creates a new version.

The manager is an orchestrator over three separable layers:

* the **backend** (:mod:`repro.storage.backend`) holds bytes — local
  files by default, memory, striped composites, or the S3-style object
  store by injection (``backend="object"``);
* the **pipelines** (:mod:`repro.storage.pipeline`) encode the insert
  path (delta-encode → compress → place) and decode the select path
  (locate → read chain → decompress → delta-decode → assemble), sharing
  one bytes-bounded chunk cache;
* the **catalog** (:mod:`repro.storage.metadata`) records version
  lineage and per-chunk encoding decisions.

What remains here is the paper's *semantics*: version numbering and
lineage, branches and merges, the four select forms, deletion with
re-encoding of dependents, and layout re-organization (Section IV-E).
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.compression.registry import get_codec
from repro.core.array import ArrayData, DeltaListPayload, Payload
from repro.core.errors import ArrayExistsError, StorageError
from repro.core.schema import ArraySchema
from repro.delta.registry import get_delta_codec
from repro.storage.backend import StorageBackend, resolve_backend
from repro.storage.chunking import DEFAULT_CHUNK_BYTES, ChunkGrid
from repro.storage.chunkstore import COLOCATED, ChunkStore
from repro.storage.iostats import IOStats
from repro.storage.metadata import (
    ArrayRecord,
    ArraySnapshot,
    ChunkRecord,
    MetadataCatalog,
    VersionRecord,
    VersionRows,
)
from repro.storage.pipeline import (
    POLICY_AUTO,
    POLICY_CHAIN,
    POLICY_MATERIALIZE,
    ChunkCache,
    DecodePipeline,
    EncodePipeline,
    ensure_policy,
    overlap_slices as _overlap_slices,
    resolve_workers,
)

__all__ = [
    "POLICY_AUTO",
    "POLICY_CHAIN",
    "POLICY_MATERIALIZE",
    "VersionedStorageManager",
]


@dataclass(frozen=True)
class Shipment:
    """Some versions of one array exactly as one copy stores them:
    :meth:`VersionedStorageManager.export_versions` reads it from one
    snapshot, :meth:`~VersionedStorageManager.import_versions` commits
    it on another copy.

    ``versions`` pairs each lineage row with its merge parents, in
    version order; ``chunks`` are their chunk rows in catalog order and
    ``payloads`` each row's stored bytes, undecoded.  Array ids and
    locations are the source's, and an import keeps neither.
    """

    record: ArrayRecord
    versions: VersionRows
    chunks: list[ChunkRecord]
    payloads: list


@dataclass(frozen=True)
class _Staged:
    """A write placed and synced but not committed (``_stage``); a new
    array's ``record`` and rows have no ``array_id`` until the commit.
    ``head`` is the last version's contents, and ``lease`` the hot
    slot's (:meth:`_HotSlot.lend`) when that version was encoded onto
    the slot's canvas, which then already holds it."""

    record: ArrayRecord
    versions: VersionRows
    chunks: list[ChunkRecord]
    head: ArrayData
    lease: object | None = None


class _HotSlot:
    """The last version written, held in store-owned memory.

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
    (:meth:`remember`).
    """

    def __init__(self):
        self._key: tuple[str, int] | None = None
        self._canvases: dict[str, np.ndarray] = {}
        self._data: ArrayData | None = None
        self._lease: object | None = None

    def get(self, name: str, version: int) -> ArrayData | None:
        """The snapshot of ``name@version`` when that is what is held."""
        return self._data if self._key == (name, version) else None

    def lend(self, name: str, version: int
             ) -> tuple[dict[str, np.ndarray], object] | None:
        """The writable canvases and a lease on them, when they hold
        ``name@version``: un-named from here on — the borrower
        overwrites them with the next version, and only :meth:`adopt`
        with this lease names them again."""
        if self._key != (name, version):
            return None
        self._key = None
        self._lease = object()
        return self._canvases, self._lease

    def adopt(self, name: str, version: int, lease: object) -> bool:
        """Name the lent canvases ``name@version`` — no copy — unless
        another write touched the slot since ``lease`` was taken."""
        if lease is None or lease is not self._lease:
            return False
        self._lease = None
        self._key = (name, version)
        return True

    def remember(self, name: str, version: int, data: ArrayData) -> None:
        sources = {attr: data.attribute(attr)
                   for attr in data.attribute_names}
        layout = {attr: (values.shape, values.dtype)
                  for attr, values in sources.items()}
        if layout != {attr: (canvas.shape, canvas.dtype)
                      for attr, canvas in self._canvases.items()}:
            self._canvases = {attr: np.empty_like(values)
                              for attr, values in sources.items()}
            # ArrayData freezes views of its own; the canvases stay
            # writable here.
            self._data = ArrayData(data.schema, self._canvases)
        self._key = self._lease = None  # never a named, half-copied canvas
        for attr, values in sources.items():
            np.copyto(self._canvases[attr], values)
        self._key = (name, version)

    def forget(self, name: str) -> None:
        """Drop the snapshot if it is of array ``name`` (and any lease
        out on the canvases)."""
        self._lease = None
        if self._key is not None and self._key[0] == name:
            self._key = None


class VersionedStorageManager:
    """Single-node versioned array storage (the paper's prototype)."""

    def __init__(self, root: str | Path, *,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 compressor: str = "none",
                 delta_codec: str = "hybrid",
                 delta_policy: str = POLICY_CHAIN,
                 placement: str = COLOCATED,
                 cache_bytes: int = 0,
                 backend: "StorageBackend | str | None" = None,
                 workers: int | None = None):
        # Validate configuration before creating any durable state
        # (directories, catalog files, backend objects).
        ensure_policy(delta_policy)
        get_codec(compressor)
        get_delta_codec(delta_codec)
        self.workers = resolve_workers(workers)
        self.root = Path(root)
        backend = resolve_backend(backend, self.root / "data")
        if not backend.ephemeral:
            self.root.mkdir(parents=True, exist_ok=True)
        self.stats = IOStats()
        self.store = ChunkStore(self.root / "data", placement=placement,
                                stats=self.stats, backend=backend)
        # An ephemeral backend keeps the catalog off disk too, so a
        # memory-backed store performs zero file I/O end to end.
        catalog_path = None if backend.ephemeral \
            else self.root / "metadata.db"
        self.catalog = MetadataCatalog(catalog_path,
                                       durable=backend.durable)
        self.chunk_bytes = chunk_bytes
        self.compressor_name = compressor
        self.delta_codec_name = delta_codec
        self._tick = itertools.count(1)
        # The paper's cost model "ignores caching effects ... since they
        # are often negligible in our context for very large arrays";
        # the cache is therefore off unless given a byte budget, and
        # exists for interactive workloads.  Like the hot slot below
        # it relies on version contents never changing: only
        # deletions invalidate it.
        self.cache = ChunkCache(max_bytes=cache_bytes, stats=self.stats)
        self.encoder = EncodePipeline(self.catalog, self.store,
                                      delta_policy=delta_policy,
                                      delta_codec=delta_codec,
                                      workers=self.workers)
        self.decoder = DecodePipeline(self.catalog, self.store,
                                      cache=self.cache,
                                      workers=self.workers)
        # Write-side hot-version slot: saves the O(depth) parent
        # reconstruction per insert.  Version contents never change
        # once written; deletion invalidates the slot since a deleted
        # head's number can be reused.
        self._hot = _HotSlot()

    @property
    def backend(self) -> StorageBackend:
        """The byte-storage backend beneath the chunk store."""
        return self.store.backend

    @property
    def delta_policy(self) -> str:
        return self.encoder.delta_policy

    def cache_info(self) -> dict:
        """Budget, occupancy, and hit/miss counters of the chunk cache."""
        return self.cache.info()

    def close(self) -> None:
        """Release the catalog connection, the encode, decode, and
        store/backend executors, and cached chunks.  On the object
        backend this also aborts any pending multipart uploads —
        staged parts of versions that never reached their finalize
        barrier are dropped, never silently committed."""
        self.encoder.close()
        self.decoder.close()
        self.store.close()
        self.cache.clear()
        self.catalog.close()

    def __enter__(self) -> "VersionedStorageManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Array lifecycle
    # ------------------------------------------------------------------
    def create_array(self, name: str, schema: ArraySchema, *,
                     chunk_bytes: int | None = None,
                     compressor: str | None = None,
                     parent_array: str | None = None,
                     parent_version: int | None = None,
                     chunk_shape: tuple[int, ...] | None = None
                     ) -> ArrayRecord:
        """Allocate a new named array (the Create command).

        ``chunk_shape`` fixes explicit per-dimension chunk strides
        instead of the default even division of the byte budget.
        """
        self.catalog.put_chunks([], create=self._new_record(
            name, schema, chunk_bytes, compressor, parent_array,
            parent_version, chunk_shape))
        return self.catalog.get_array(name)

    def _new_record(self, name: str, schema: ArraySchema,
                    chunk_bytes: int | None = None,
                    compressor: str | None = None,
                    parent_array: str | None = None,
                    parent_version: int | None = None,
                    chunk_shape: tuple[int, ...] | None = None
                    ) -> ArrayRecord:
        """A new array's record, no ``array_id`` yet, defaults filled.
        A compressor the store does not write raises
        :class:`CodecError`."""
        get_codec(compressor or self.compressor_name)
        if chunk_shape is not None:
            # Validate eagerly so a bad shape fails at Create.
            ChunkGrid(schema.shape, schema.cell_size,
                      chunk_bytes or self.chunk_bytes, chunk_shape)
        return ArrayRecord(
            None, name, schema, chunk_bytes or self.chunk_bytes,
            compressor or self.compressor_name, self._now(),
            parent_array, parent_version,
            tuple(chunk_shape) if chunk_shape else None)

    def delete_array(self, name: str) -> None:
        """Drop an array, its versions, and its stored bytes."""
        record = self.catalog.get_array(name)  # existence check
        self.catalog.delete_array(name)
        # After the catalog drops it, as a rewrite invalidates after its
        # swap: a read still decoding the array can no longer admit an
        # entry under an id SQLite may hand the next array.
        self.cache.invalidate_array(record.array_id)
        self._hot.forget(name)
        self.store.delete_array(name)

    def list_arrays(self) -> list[str]:
        """Section II-C List operation."""
        return self.catalog.list_arrays()

    # ------------------------------------------------------------------
    # Version creation
    # ------------------------------------------------------------------
    def insert(self, name: str, payload: Payload | ArrayData | np.ndarray,
               timestamp: float | None = None) -> int:
        """Append a new version to an array (the Insert command).

        Accepts any of the paper's three payload forms (dense, sparse,
        delta-list), a normalized :class:`ArrayData`, or a bare ndarray
        for single-attribute arrays.

        The version row and all of its chunk rows commit in one
        catalog transaction *after* every payload is placed and behind
        the durability barrier (:meth:`_stage`, then :meth:`_commit`):
        a concurrent reader can never name a version whose chunks are
        still being encoded, and a failure (or a crash) before it
        leaves no catalog trace at all.
        """
        return self._commit(self._stage(name, [payload],
                                        timestamp=timestamp))

    def branch(self, source_name: str, source_version: int,
               new_name: str,
               timestamp: float | None = None) -> ArrayRecord:
        """Create a named branch rooted at a past version (Branch).

        "Branches are formed off of a particular version of an existing
        array ... but they create a new array with a new name."  The
        branch's version 1 has the same contents as the source version.
        The array row commits with the version's rows, all or nothing.
        """
        self._commit(self._stage(
            new_name, [self.select(source_name, source_version)],
            kind="branch-root", timestamp=timestamp,
            origin=(source_name, source_version)))
        return self.catalog.get_array(new_name)

    def merge(self, parents: list[tuple[str, int]], new_name: str,
              timestamp: float | None = None) -> ArrayRecord:
        """Combine parent versions into a new sequence of arrays (Merge).

        Per Section II-A, Merge "takes a collection of two or more parent
        versions and combines them into a new sequence of arrays (it
        does not attempt to combine data from two arrays into one
        array)" — the result is a new array whose versions 1..k replay
        the listed parents, with the parent links recorded so the
        version hierarchy becomes a DAG.  All or nothing, like a branch.
        """
        if len(parents) < 2:
            raise StorageError("merge requires at least two parent versions")
        first_array = self.catalog.get_array(parents[0][0])
        for parent_name, _ in parents:
            if self.catalog.get_array(parent_name).schema != \
                    first_array.schema:
                raise StorageError(
                    "merge parents must share the same schema")
        self._commit(self._stage(
            new_name, (self.select(*parent) for parent in parents),
            kind="merge", timestamp=timestamp,
            merge_parents=[[(array, number)] for array, number in parents],
            origin=(parents[0][0], None)))
        return self.catalog.get_array(new_name)

    def replay_version(self, name: str,
                       payload: Payload | ArrayData | np.ndarray, *,
                       version: int,
                       kind: str = "insert",
                       parent_version: int | None = None,
                       timestamp: float | None = None,
                       merge_parents: list[tuple[str, int]] | None = None
                       ) -> int:
        """Re-create one version from its contents with an explicit
        lineage row: an :meth:`insert` that keeps the *source* version's
        kind, parent link, merge parents and timestamp, so a copy the
        rebalance catch-up rebuilds (re-encoding: its bands change chunk
        geometry) answers lineage queries like its source.  Append-only:
        ``version`` must be exactly one past this array's latest.
        """
        return self._commit(self._stage(
            name, [payload], kind=kind, version=version,
            parent_version=parent_version, timestamp=timestamp,
            merge_parents=[merge_parents or ()]))

    def export_versions(self, name: str, after: int = 0) -> Shipment:
        """Every version of ``name`` numbered above ``after`` exactly
        as this copy stores it, for :meth:`import_versions` on another
        copy: lineage rows, chunk rows and payloads, all from one
        snapshot.  Payloads come through :meth:`ChunkStore.read_chunks`
        undecoded — the stored bytes of the shipped versions, held in
        memory (zero-copy views on the memory and object backends)."""
        snap = self.catalog.snapshot(name)
        rows = [row for row in snap.get_versions() if row.version > after]
        chunks = [chunk for row in rows
                  for chunk in snap.chunks_for_version(row.version)]
        return Shipment(
            snap.record,
            [(row, snap.merge_parents_of(row.version)) for row in rows],
            chunks,
            self.store.read_chunks([chunk.location for chunk in chunks]))

    def import_versions(self, name: str, shipment: Shipment) -> None:
        """Append another copy's stored versions to ``name``: place →
        one barrier → one catalog swap, with no encode stage.

        Each payload goes through this store's own
        :meth:`ChunkStore.write_chunk`, so this copy keeps its own
        locations; each chunk row keeps the source's delta codec,
        delta base and compressor under this array's id, and each
        version its source lineage row (kind, parent, merge parents,
        timestamp).  One durability barrier over every placed payload,
        then one :meth:`MetadataCatalog.put_chunks` transaction commits
        every version at once — so a version may delta against a later
        one (a re-organized source), and a fault anywhere before the
        commit leaves no shipped version behind, only bytes no row
        names (dropped by the next compacting rewrite).

        Nothing is decoded, encoded or verified here: the copy ends up
        storing exactly its source's bytes.  Refused before anything is
        placed: a source whose storage identity (schema, chunk
        geometry, compressor) is not this array's, a version not above
        this array's latest, and a delta base neither side holds.
        """
        snap = self.catalog.snapshot(name)
        record, source = snap.record, shipment.record
        if (record.schema, record.chunk_bytes, record.chunk_shape,
                record.compressor) != (source.schema, source.chunk_bytes,
                                       source.chunk_shape,
                                       source.compressor):
            raise StorageError(
                f"cannot import into {name!r}: the shipment comes from "
                f"an array stored differently")
        numbers = [row.version for row, _ in shipment.versions]
        latest = snap.latest_version() or 0
        if numbers and (numbers != sorted(set(numbers))
                        or numbers[0] <= latest):
            raise StorageError(
                f"import_versions is append-only: array {name!r} is at "
                f"version {latest}, cannot import versions {numbers}")
        shipped = set(numbers)
        bases = {row.version for row in snap.get_versions()} | shipped | {
            None}
        for chunk in shipment.chunks:
            if chunk.version not in shipped or \
                    chunk.base_version not in bases:
                raise StorageError(
                    f"cannot import {name!r} v{chunk.version}: its chunk "
                    f"{chunk.attribute}/{chunk.chunk_name} names a "
                    f"version neither copy holds")
        rows = [replace(chunk, array_id=record.array_id,
                        location=self.store.write_chunk(
                            name, chunk.version, chunk.attribute,
                            chunk.chunk_name, payload))
                for chunk, payload in zip(shipment.chunks,
                                          shipment.payloads)]
        if rows:
            self.store.sync_chunks([chunk.location for chunk in rows])
        self.catalog.put_chunks(
            rows, versions=[(replace(row, array_id=record.array_id), parents)
                            for row, parents in shipment.versions])

    def delete_version(self, name: str, version: int) -> None:
        """Remove one version, re-encoding any versions delta'ed on it.

        One rewrite (:meth:`_rewrite`): each dependent is re-encoded
        against the deleted version's own stored base (or materialized
        when the chain ends there), and one catalog transaction swaps
        their rows, drops the version with its labels and merge
        parents, and re-parents its children to its own parent.  A
        fault before that commit leaves the store as it was.
        """
        snap = self.catalog.snapshot(name)
        deleted = snap.get_version(version)
        dependents = {chunk.version for chunk in snap.dependents_of(version)}
        # The deleted version's stored delta base — not its lineage
        # parent, which after a re-organization may itself be one of
        # the dependents (a head-rooted chain deltas old against new).
        bases = {chunk.base_version for chunk in
                 snap.chunks_for_version(version) if chunk.is_delta}
        deleted_base = bases.pop() if len(bases) == 1 else None
        self._rewrite(snap, [(dependent, deleted_base)
                             for dependent in sorted(dependents)],
                      drop=deleted)

    # ------------------------------------------------------------------
    # Selection (Section II-B's four forms).  Each public call takes the
    # array's catalog snapshot once and resolves everything from it, so
    # it sees exactly one committed state.
    # ------------------------------------------------------------------
    def select(self, name: str, version: int) -> ArrayData:
        """Form 1: the full contents of one version."""
        return self._select(self.catalog.snapshot(name), version)

    def _select(self, snap: ArraySnapshot, version: int) -> ArrayData:
        snap.get_version(version)  # existence check
        return self.decoder.read_version(snap, snap.record.grid, version)

    def select_region(self, name: str, version: int,
                      corner_lo: tuple[int, ...],
                      corner_hi: tuple[int, ...]) -> ArrayData:
        """Form 2: a hyper-rectangle of one version (user coordinates)."""
        snap = self.catalog.snapshot(name)
        snap.get_version(version)  # existence check
        record = snap.record
        lo = record.schema.to_zero_based(corner_lo)
        hi = record.schema.to_zero_based(corner_hi)
        return self.decoder.read_region(snap, record.grid, version, lo, hi)

    def select_versions(self, name: str, versions: list[int],
                        attribute: str | None = None) -> np.ndarray:
        """Form 3: stack whole versions along a new leading axis.

        "Given that the specified arrays are N-dimensional, it returns an
        N+1-dimensional array that is effectively a stack of the
        specified versions."
        """
        snap = self.catalog.snapshot(name)
        shape = snap.record.schema.shape
        lo = tuple(0 for _ in shape)
        hi = tuple(extent - 1 for extent in shape)
        return self._stacked_select(snap, versions, attribute, lo, hi)

    def select_versions_region(self, name: str, versions: list[int],
                               corner_lo: tuple[int, ...],
                               corner_hi: tuple[int, ...],
                               attribute: str | None = None) -> np.ndarray:
        """Form 4: stack one hyper-rectangle across several versions."""
        snap = self.catalog.snapshot(name)
        lo = snap.record.schema.to_zero_based(corner_lo)
        hi = snap.record.schema.to_zero_based(corner_hi)
        return self._stacked_select(snap, versions, attribute, lo, hi)

    def _stacked_select(self, snap: ArraySnapshot, versions: list[int],
                        attribute: str | None, lo: tuple[int, ...],
                        hi: tuple[int, ...]) -> np.ndarray:
        """Shared implementation of the stacked select forms.

        Versions are resolved chunk-by-chunk with a shared chain scope,
        so a range query over a delta chain reads each payload once —
        this is what makes the paper's Table IV range selects read ~2 GB
        rather than 16 x the chain length.

        Resolution runs in ascending version order (output layers still
        land at their requested indices): on a linear chain every walk
        then stops at the deepest previously-resolved version, so the
        common chain prefixes are folded exactly once.  The ordering is
        what reads each payload once: a one-version fold records only
        the requested versions into the scope (a warm fill records
        every intermediate it folds).
        """
        record = snap.record
        attr = self._resolve_attribute(record, attribute)
        for v in versions:
            snap.get_version(v)
        dtype = record.schema.attribute(attr).dtype
        region_shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        out = np.empty((len(versions),) + region_shape, dtype=dtype)
        grid = record.grid
        order = sorted(enumerate(versions), key=lambda pair: pair[1])
        for chunk in grid.chunks_overlapping(lo, hi):
            scope: dict[int, np.ndarray] = {}
            src, dst = _overlap_slices(chunk, lo, hi)
            for layer, version in order:
                data = self.decoder.reconstruct(snap, version, attr,
                                                chunk, scope)
                out[(layer,) + dst] = data[src]
        return out

    # ------------------------------------------------------------------
    # Metadata queries (Section II-C)
    # ------------------------------------------------------------------
    def get_versions(self, name: str) -> list[int]:
        record = self.catalog.get_array(name)
        return [v.version for v in self.catalog.get_versions(record.array_id)]

    def version_at(self, name: str, timestamp: float) -> int:
        record = self.catalog.get_array(name)
        return self.catalog.version_at(record.array_id, timestamp)

    def label_version(self, name: str, version: int, label: str) -> None:
        """Attach an arbitrary label to a version (Appendix A's
        "selecting versions by ... arbitrary labels")."""
        record = self.catalog.get_array(name)
        self.catalog.set_label(record.array_id, label, version)

    def version_for_label(self, name: str, label: str) -> int:
        record = self.catalog.get_array(name)
        return self.catalog.version_for_label(record.array_id, label)

    def labels(self, name: str) -> list[tuple[str, int]]:
        record = self.catalog.get_array(name)
        return self.catalog.labels_of(record.array_id)

    def properties(self, name: str) -> dict:
        """Array properties: size, sparsity, version count (Section II-C)."""
        snap = self.catalog.snapshot(name)
        record = snap.record
        versions = snap.get_versions()
        stored = snap.stored_bytes()
        dense = record.schema.dense_size * max(1, len(versions))
        sparsity = None
        if versions:
            latest = self._select(snap, versions[-1].version)
            nonzero = sum(int(np.count_nonzero(latest.attribute(a.name)))
                          for a in record.schema.attributes)
            total = record.schema.cell_count * len(record.schema.attributes)
            sparsity = 1.0 - nonzero / total
        return {
            "name": name,
            "schema": record.schema.to_dict(),
            "versions": len(versions),
            "stored_bytes": stored,
            "logical_bytes": dense,
            "compression_ratio": dense / stored if stored else float("inf"),
            "sparsity": sparsity,
        }

    def stored_bytes(self, name: str, version: int | None = None) -> int:
        record = self.catalog.get_array(name)
        return self.catalog.stored_bytes(record.array_id, version)

    def fingerprint(self, name: str | None = None) -> str:
        """SHA-256 over catalog rows and stored payload bytes, in
        catalog order — equal fingerprints mean byte-identical stores.

        Covers one array, or every array when ``name`` is None.  This
        is the determinism observable the write-path conformance tests
        and the ingest benchmark assert on (parallel encode may change
        wall-clock only), and doubles as a cheap replica-comparison
        probe.
        """
        digest = hashlib.sha256()
        names = [name] if name is not None else self.list_arrays()
        for array_name in names:
            for chunk in self.catalog.snapshot(array_name).all_chunks():
                digest.update(repr((
                    array_name, chunk.version, chunk.attribute,
                    chunk.chunk_name, chunk.delta_codec,
                    chunk.base_version, chunk.compressor,
                    chunk.location.path, chunk.location.offset,
                    chunk.location.length)).encode())
                digest.update(self.store.read_chunk(chunk.location))
        return digest.hexdigest()

    def version_digests(self, name: str) -> list[tuple[int, str]]:
        """Per-version *logical* digests for replica comparison.

        Each digest is SHA-256 over the version's lineage row —
        (version, parent_version, kind, merge parents) — and its fully
        reassembled payload bytes per attribute, in schema order.  Two
        things the physical :meth:`fingerprint` covers are deliberately
        excluded: **timestamps** (every replica stamps its own logical
        clock, so byte-identical contents carry different timestamps)
        and **placement** (paths, offsets, delta bases — replicas may
        legitimately diverge in layout after ``reorganize`` or a repack
        while holding identical contents).  These digests *define*
        replica equality, and computing them decodes every version;
        anti-entropy repair compares the cheaper :meth:`stored_digests`
        first and falls back to these lists only when two copies
        store their versions differently: a stale copy then shows up as
        a strict prefix of its peer's list, a diverged one as a
        mismatching entry.
        """
        snap = self.catalog.snapshot(name)
        digests: list[tuple[int, str]] = []
        for row in snap.get_versions():
            digest = hashlib.sha256()
            parents = snap.merge_parents_of(row.version)
            digest.update(repr((name, row.version, row.parent_version,
                                row.kind, parents)).encode())
            data = self._select(snap, row.version)
            for attr in snap.record.schema.attributes:
                digest.update(np.ascontiguousarray(
                    data.attribute(attr.name)))
            digests.append((row.version, digest.hexdigest()))
        return digests

    def stored_digests(self, name: str) -> list[tuple[int, str]]:
        """Per-version digests of what is *stored*, decoding nothing.

        Each digest is SHA-256 over the array record's storage identity
        (schema, ``chunk_bytes``, ``chunk_shape``, compressor, branch
        origin), the version's lineage row (version, parent, kind,
        merge parents) and, per chunk row in (attribute, chunk name)
        order, its delta codec, delta base and compressor and its
        length-framed payload bytes.  Timestamps and locations (path,
        offset, length) are left out: each copy stamps its own clock
        and places and repacks its own objects.

        Equal lists prove equal contents: a version's contents are a
        pure function of the array record, its chunk rows and payloads,
        and those of every version its chains reach — so two copies
        whose every version has an equal stored digest have equal
        :meth:`version_digests` too.  Unequal lists prove nothing (a
        copy that re-organized stores the same contents differently);
        the caller falls back to :meth:`version_digests`.  Payloads
        are read through :meth:`ChunkStore.read_chunks` and hashed as
        read; nothing is decoded, cached, written or persisted.
        """
        snap = self.catalog.snapshot(name)
        record = snap.record
        identity = repr((name, record.schema.to_dict(), record.chunk_bytes,
                         record.chunk_shape, record.compressor,
                         record.parent_array,
                         record.parent_version)).encode()
        digests: list[tuple[int, str]] = []
        for row in snap.get_versions():
            digest = hashlib.sha256(identity)
            parents = snap.merge_parents_of(row.version)
            digest.update(repr((row.version, row.parent_version,
                                row.kind, parents)).encode())
            chunks = snap.chunks_for_version(row.version)
            payloads = self.store.read_chunks(
                [chunk.location for chunk in chunks])
            for chunk, payload in zip(chunks, payloads):
                digest.update(repr((
                    chunk.attribute, chunk.chunk_name, chunk.delta_codec,
                    chunk.base_version, chunk.compressor,
                    len(payload))).encode())
                digest.update(payload)
            digests.append((row.version, digest.hexdigest()))
        return digests

    def logical_digest(self, name: str | None = None) -> str:
        """SHA-256 over schemas, lineage rows, and reassembled payload
        bytes — the replica-equality observable behind anti-entropy
        repair and verified revive.  Equal logical digests mean two
        copies answer every select and lineage query identically, even
        when their physical layouts (and therefore their
        :meth:`fingerprint` values) differ.  Covers one array, or every
        array when ``name`` is None.
        """
        digest = hashlib.sha256()
        names = [name] if name is not None else self.list_arrays()
        for array_name in names:
            record = self.catalog.get_array(array_name)
            digest.update(repr((array_name, record.schema.to_dict(),
                                record.parent_array,
                                record.parent_version)).encode())
            for _, version_digest in self.version_digests(array_name):
                digest.update(version_digest.encode())
        return digest.hexdigest()

    def grid_for(self, record: ArrayRecord) -> ChunkGrid:
        """The chunk grid shared by every version of an array: the
        record's own, built once per catalog record."""
        return record.grid

    # ------------------------------------------------------------------
    # Layout re-organization (Section IV-E "background re-organization")
    # ------------------------------------------------------------------
    def apply_layout(self, name: str,
                     parent_of: dict[int, int | None]) -> None:
        """Re-encode all versions of an array according to a layout.

        ``parent_of[v]`` names the version ``v`` is delta'ed against, or
        None to materialize ``v``.  The mapping must cover every version
        and form a forest (validity per Section IV-B is the optimizer's
        responsibility; this method verifies reconstructability).

        One rewrite (:meth:`_rewrite`) in topological order of the new
        forest.  The old layout stays readable until its one catalog
        swap, so versions stream out of it a few canvases at a time,
        and a fault part-way leaves it whole.
        """
        snap = self.catalog.snapshot(name)
        versions = [v.version for v in snap.get_versions()]
        if set(parent_of) != set(versions):
            raise StorageError(
                f"layout covers versions {sorted(parent_of)} but the array "
                f"has {versions}")
        self._rewrite(snap, [(v, parent_of[v])
                             for v in _topological_order(parent_of)])

    def reorganize(self, name: str, *, mode: str = "space",
                   workload=None, attribute: str | None = None,
                   sample_fraction: float | None = None) -> None:
        """Recompute and apply an optimal layout (Section IV-E).

        ``mode`` selects the objective: ``"space"`` (the virtual-root
        MST optimum), ``"head"`` (newest version materialized, rest
        most compact), or ``"workload"`` (requires ``workload``, a list
        of :class:`~repro.materialize.workload_opt.WeightedQuery`).
        ``sample_fraction`` activates the S x R / N sampled matrix for
        large arrays.  This is the paper's "background re-organization
        step" packaged as one call.
        """
        from repro.materialize.matrix import MaterializationMatrix
        from repro.materialize.spanning import optimal_layout
        from repro.materialize.workload_opt import (
            head_biased_layout,
            workload_aware_layout,
        )

        matrix = MaterializationMatrix.from_manager(
            self, name, attribute=attribute,
            sample_fraction=sample_fraction)
        if mode == "space":
            layout = optimal_layout(matrix)
        elif mode == "head":
            layout = head_biased_layout(matrix)
        elif mode == "workload":
            if workload is None:
                raise StorageError(
                    "reorganize(mode='workload') needs a workload")
            layout = workload_aware_layout(matrix, workload)
        else:
            raise StorageError(
                f"unknown reorganize mode {mode!r}; expected "
                "'space', 'head', or 'workload'")
        self.apply_layout(name, dict(layout.parent_of))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _version_contents(self, record: ArrayRecord,
                          version: int) -> ArrayData:
        """A committed version the write path deltas against or
        patches: the hot slot's snapshot when it holds that version,
        else an ordinary :meth:`select` — a canvas either way."""
        held = self._hot.get(record.name, version)
        return held if held is not None \
            else self.select(record.name, version)

    def _normalize_payload(self, record: ArrayRecord,
                           payload: Payload | ArrayData | np.ndarray
                           ) -> ArrayData:
        if isinstance(payload, ArrayData):
            # The one form that arrives with a schema of its own: an
            # encode with no delta base would never compare the two.
            return payload.conforming(record.schema)
        if isinstance(payload, np.ndarray):
            return ArrayData.from_single(record.schema, payload)
        if isinstance(payload, DeltaListPayload):
            base = self._version_contents(record, payload.base_version)
            return payload.to_array_data(record.schema, base=base)
        return payload.to_array_data(record.schema)

    def _resolve_attribute(self, record: ArrayRecord,
                           attribute: str | None) -> str:
        if attribute is not None:
            record.schema.attribute(attribute)
            return attribute
        return record.schema.attributes[0].name

    def _base_of(self, record: ArrayRecord, base_version: int | None,
                 held) -> ArrayData | None:
        """What a version encodes against: nothing when it has no base
        or the policy never deltas, else ``held`` (the version last
        staged, with its contents) when that is the base, else
        :meth:`_version_contents`."""
        if base_version is None or not self.encoder.wants_base:
            return None
        if held is not None and held[0] == base_version:
            return held[1]
        return self._version_contents(record, base_version)

    def _stage(self, name: str, contents, *, kind: str = "insert",
               version: int | None = None,
               parent_version: int | None = None,
               timestamp: float | None = None,
               merge_parents: list | None = None,
               origin: tuple[str, int | None] | None = None) -> _Staged:
        """Plan, encode, place and barrier every version of one write;
        no catalog write.  A version whose base the hot slot holds
        borrows the slot's canvas (:meth:`_HotSlot.lend`, which
        un-names it) and is encoded onto it; :meth:`_commit` names it,
        or copies the last version in.

        ``contents`` become consecutive versions of ``name``, each the
        lineage child and delta of the one before; the first is
        ``version``, child of ``parent_version`` (default: one past the
        latest, and the latest).  ``merge_parents`` lists each one's.
        ``origin`` = ``(array, v)`` creates ``name`` like ``array``,
        branched off ``array@v`` unless ``v`` is None — refused before
        a byte lands under the name's paths if the name is in use."""
        if kind not in ("insert", "branch-root", "merge"):
            raise StorageError(f"unknown version kind {kind!r}")
        if origin is None:
            record = self.catalog.get_array(name)
            latest = self.catalog.latest_version(record.array_id) or 0
        else:
            if name in self.catalog.list_arrays():
                raise ArrayExistsError(f"array {name!r} already exists")
            source = self.catalog.get_array(origin[0])
            record = self._new_record(
                name, source.schema, chunk_bytes=source.chunk_bytes,
                compressor=source.compressor,
                parent_array=None if origin[1] is None else origin[0],
                parent_version=origin[1], chunk_shape=source.chunk_shape)
            latest = 0
        if version is None:
            version, parent_version = latest + 1, latest or None
        elif version != latest + 1:
            raise StorageError(
                f"array {name!r} is append-only: it is at version "
                f"{latest}, cannot write version {version}")
        rows, chunks, held, lease = [], [], None, None
        try:
            for number, payload in enumerate(contents, version):
                parent = parent_version if number == version else number - 1
                data = self._normalize_payload(record, payload)
                base_data = self._base_of(record, parent, held)
                # A base the hot slot holds is encoded against in
                # place: the encode leaves the canvas holding ``data``.
                canvas = lease = None
                if base_data is not None \
                        and base_data is self._hot.get(record.name, parent):
                    canvas, lease = self._hot.lend(record.name, parent)
                chunks += self.encoder.write_version(
                    record, record.grid, number, data,
                    base_data=base_data, base_version=parent,
                    canvas=canvas)
                rows.append((VersionRecord(
                    record.array_id, number, parent, kind,
                    self._now() if timestamp is None else timestamp),
                    tuple(merge_parents[number - version])
                    if merge_parents else ()))
                held = (number, data)
        except BaseException:
            self._discard(record)
            raise
        return _Staged(record, rows, chunks, held[1], lease)

    def _discard(self, record: ArrayRecord) -> None:
        """Drop what a failed write placed for a new array (its name was
        free: all of it); an append's wait for the next rewrite."""
        if record.array_id is None \
                and record.name not in self.catalog.list_arrays():
            self.store.delete_array(record.name)

    def _commit(self, staged: _Staged) -> int:
        """Commit a staged write in one catalog transaction, then put
        its last version — returned — in the hot slot (the only code
        that names one there): name the canvas the stage encoded it
        onto, else copy it in.  A refused commit discards the stage."""
        record = staged.record
        try:
            self.catalog.put_chunks(
                staged.chunks, versions=staged.versions,
                create=record if record.array_id is None else None)
        except BaseException:
            self._discard(record)
            raise
        version = staged.versions[-1][0].version
        if self.encoder.wants_base and not self._hot.adopt(
                record.name, version, staged.lease):
            self._hot.remember(record.name, version, staged.head)
        return version

    def _rewrite(self, snap: ArraySnapshot,
                 plan: list[tuple[int, int | None]], *,
                 drop: VersionRecord | None = None) -> None:
        """The one rewrite protocol: stage → barrier → swap → reclaim.

        ``plan`` lists ``(version, base_version)`` re-encodes, bases
        first; ``drop`` is a version to delete in the same swap.

        1. *Stage* each planned version, ``select``-ed from ``snap``
           (the committed layout), beside its committed encoding.
        2. *Compact* (co-located) every surviving payload into new
           ``@r<n>`` objects.
        3. One durability *barrier* over what the swap names.
        4. *Swap* in one catalog transaction.
        5. Invalidate the cache and hot slot, *reclaim* what no row
           names any more.

        Nothing before step 4 touches a committed row or a byte one
        names: a fault there leaves the store reading as before, and a
        concurrent reader sees the old layout until the swap.  A fault
        during reclaim leaks bytes but never corrupts.
        """
        record = snap.record
        staged: list[ChunkRecord] = []
        held = None
        for version, base_version in plan:
            data = self._select(snap, version)
            staged += self.encoder.stage_version(
                record, record.grid, version, data,
                base_data=self._base_of(record, base_version, held),
                base_version=base_version)
            held = (version, data)

        old = snap.all_chunks()
        # Catalog order, each staged row in place of the one it replaces.
        live = {(chunk.version, chunk.attribute, chunk.chunk_name): chunk
                for chunk in old + staged
                if drop is None or chunk.version != drop.version}
        swap = staged
        if self.store.placement == COLOCATED:
            moved = self.store.repack(
                record.name,
                [(chunk.location, key) for key, chunk in live.items()],
                committed={chunk.location.path for chunk in old})
            swap = [replace(chunk, location=moved[key])
                    for key, chunk in live.items()]
            live = dict(zip(live, swap))
        if swap:
            self.store.sync_chunks([chunk.location for chunk in swap])
        self.catalog.put_chunks(swap, drop=drop)
        # Not earlier: the stage's selects may have re-cached a
        # deleted version on their way down its chain, and a deleted
        # head's number is reused by the next insert.  A read pinned
        # before the swap cannot re-cache it after this either
        # (``MetadataCatalog.publishes`` refuses the entry).
        self.cache.invalidate_array(record.array_id)
        self._hot.forget(record.name)
        named = {chunk.location.path for chunk in live.values()}
        self.store.reclaim({chunk.location.path for chunk in old + staged}
                           - named)

    def _now(self) -> float:
        # A strictly increasing logical clock keeps catalog timestamps
        # deterministic; wall-clock seconds provide the coarse component.
        return time.time() + next(self._tick) * 1e-6


def _topological_order(parent_of: dict[int, int | None]) -> list[int]:
    """Materialized roots first, then children in dependency order."""
    children: dict[int | None, list[int]] = {}
    for version, parent in parent_of.items():
        children.setdefault(parent, []).append(version)
    order: list[int] = []
    frontier = sorted(children.get(None, []))
    if not frontier:
        raise StorageError("layout has no materialized version")
    visited: set[int] = set()
    while frontier:
        version = frontier.pop(0)
        if version in visited:
            raise StorageError("layout contains a cycle")
        visited.add(version)
        order.append(version)
        frontier.extend(sorted(children.get(version, [])))
    if len(order) != len(parent_of):
        raise StorageError(
            "layout contains a cycle or unreachable versions")
    return order
