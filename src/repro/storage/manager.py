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
Its version writes are staged writes (:mod:`repro.storage.writes`),
its deletions and re-organizations rewrites (:mod:`repro.storage.rewrite`).
"""

from __future__ import annotations

import hashlib
import itertools
import time
from operator import le, lt, sub
from pathlib import Path

import numpy as np

from repro.compression.registry import get_codec
from repro.core.array import ArrayData, Payload
from repro.core.errors import DimensionError, StorageError
from repro.core.schema import ArraySchema
from repro.delta.registry import get_delta_codec
from repro.storage.backend import StorageBackend, resolve_backend
from repro.storage.chunking import DEFAULT_CHUNK_BYTES, ChunkGrid
from repro.storage.chunkstore import COLOCATED, ChunkStore
from repro.storage.iostats import IOStats
from repro.storage.metadata import (
    ArrayRecord,
    ArraySnapshot,
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
    ensure_policy,
)
from repro.storage.rewrite import layout_for, rewrite, topological_order
from repro.storage.writes import (
    Shipment,
    _HotSlot,
    commit,
    new_record,
    place,
    stage,
)

__all__ = [
    "POLICY_AUTO",
    "POLICY_CHAIN",
    "POLICY_MATERIALIZE",
    "VersionedStorageManager",
    "region_corners",
]


def region_corners(schema: ArraySchema, corner_lo: tuple[int, ...],
                   corner_hi: tuple[int, ...]
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The zero-based ``(lo, hi)`` of a region given by two corners in
    user coordinates, each inside the array and ``lo`` <= ``hi`` on
    every dimension — the one check of a box every read plan trusts
    (:class:`~repro.storage.pipeline.ReadPlan`)."""
    origin = schema.origin
    lo = tuple(map(sub, corner_lo, origin))
    hi = tuple(map(sub, corner_hi, origin))
    if len(corner_lo) == len(corner_hi) == len(origin) and min(lo) >= 0 \
            and all(map(le, lo, hi)) and all(map(lt, hi, schema.shape)):
        return lo, hi
    # A corner is off: the checks in their order, for the message.
    lo = schema.to_zero_based(corner_lo)
    hi = schema.to_zero_based(corner_hi)
    for dim, first, last in zip(schema.dimensions, corner_lo, corner_hi):
        if first > last:
            raise DimensionError(
                f"region runs backwards on dimension {dim.name}: from "
                f"{first} down to {last}; the low corner must not exceed "
                f"the high one")
    return lo, hi


class VersionedStorageManager:
    """Single-node versioned array storage (the paper's prototype)."""

    def __init__(self, root: str | Path, *,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 compressor: str = "none",
                 delta_codec: str = "hybrid",
                 delta_policy: str = POLICY_CHAIN,
                 placement: str = COLOCATED,
                 cache_bytes: int = 0,
                 backend: "StorageBackend | str | None" = None):
        # Validate configuration before creating any durable state
        # (directories, catalog files, backend objects).
        ensure_policy(delta_policy)
        get_codec(compressor)
        get_delta_codec(delta_codec)
        self.stats = IOStats()
        # The paper's cost model "ignores caching effects ... since they
        # are often negligible in our context for very large arrays";
        # the cache is therefore off unless given a byte budget, and
        # exists for interactive workloads.  Like the hot slot below
        # it relies on version contents never changing: only
        # deletions invalidate it.
        self.cache = ChunkCache(max_bytes=cache_bytes, stats=self.stats)
        self.root = Path(root)
        backend = resolve_backend(backend, self.root / "data")
        if not backend.ephemeral:
            self.root.mkdir(parents=True, exist_ok=True)
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
        self.encoder = EncodePipeline(self.catalog, self.store,
                                      delta_policy=delta_policy,
                                      delta_codec=delta_codec)
        self.decoder = DecodePipeline(self.catalog, self.store,
                                      cache=self.cache)
        # The hot-version slot: saves the O(depth) parent
        # reconstruction per insert, and the chain fold of a whole read
        # of the version it holds.  Version contents never change once
        # written; deletion invalidates the slot since a deleted head's
        # number can be reused.
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
        """Release the catalog connection and cached chunks; the
        threads are the process's (:mod:`repro.storage.fan`).  On the
        object backend this also aborts any pending multipart uploads —
        staged parts of versions that never reached their finalize
        barrier are dropped, never silently committed."""
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
        commit(self, Shipment(new_record(
            self, name, schema, chunk_bytes, compressor, parent_array,
            parent_version, chunk_shape), [], []))
        return self.catalog.get_array(name)

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
        the durability barrier (:func:`~repro.storage.writes.stage`,
        then :func:`~repro.storage.writes.commit`):
        a concurrent reader can never name a version whose chunks are
        still being encoded, and a failure (or a crash) before it
        leaves no catalog trace at all.
        """
        return commit(self, stage(self, name, [payload],
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
        commit(self, stage(
            self, new_name, [self.select(source_name, source_version)],
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
        commit(self, stage(
            self, new_name, (self.select(*parent) for parent in parents),
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
        ``version`` must be above this array's latest.
        """
        return commit(self, stage(
            self, name, [payload], kind=kind, version=version,
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

        The placement (:func:`~repro.storage.writes.place`) keeps this
        copy's own locations, each chunk row the source's delta codec,
        delta base and compressor under this array's id, and each
        version its source lineage row (kind, parent, merge parents,
        timestamp).  Then one transaction commits every version at once
        (and creates ``name`` when the shipment's record has no
        ``array_id``) — so a version may delta against a later one (a
        re-organized source), and a fault anywhere before the commit
        leaves no shipped version behind, only bytes no row names
        (dropped by the next compacting rewrite, or at once for a new
        array).

        Nothing is decoded, encoded or verified here: the copy ends up
        storing exactly its source's bytes.
        """
        commit(self, place(self, name, shipment))

    def delete_version(self, name: str, version: int) -> None:
        """Remove one version, re-encoding any versions delta'ed on it.

        One rewrite (:func:`~repro.storage.rewrite.rewrite`): each
        dependent is re-encoded against the deleted version's own
        stored base (or materialized when the chain ends there), and
        one catalog transaction swaps their rows, drops the version
        with its labels and merge parents, and re-parents its children
        to its own parent.  A fault before that commit leaves the store
        as it was.
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
        rewrite(self, snap, [(dependent, deleted_base)
                             for dependent in sorted(dependents)],
                drop=deleted)

    # ------------------------------------------------------------------
    # Selection (Section II-B's four forms).  Each public call takes the
    # array's catalog snapshot once and resolves everything from it, so
    # it sees exactly one committed state.  ``name`` may also be that
    # snapshot, pinned by a caller that resolves more from it (the AQL
    # executor checks a statement's arity against the record it reads).
    # ------------------------------------------------------------------
    def _pin(self, name: str | ArraySnapshot) -> ArraySnapshot:
        return name if isinstance(name, ArraySnapshot) \
            else self.catalog.snapshot(name)

    def select(self, name: str | ArraySnapshot, version: int) -> ArrayData:
        """Form 1: the full contents of one version."""
        snap = self._pin(name)
        data = self._select(snap, version)
        return ArrayData(snap.record.schema,
                         {attr: data.attribute(attr)
                          for attr in data.attribute_names})

    def _select(self, snap: ArraySnapshot, version: int,
                lo: tuple[int, ...] | None = None,
                hi: tuple[int, ...] | None = None, *,
                out: dict[str, np.ndarray] | None = None
                ) -> ArrayData | None:
        """The zero-based box [``lo``, ``hi``] of ``version`` (default
        the whole array): in ``out`` (box-shaped canvases of the
        attributes it names; then None) or as a region
        (:meth:`ArraySchema.sliced`).  The decoder's box read
        (:meth:`DecodePipeline.read_region`) unless the hot slot holds
        the whole box (:meth:`_hot_box`).  A version ``snap`` lacks
        raises :class:`VersionNotFoundError`."""
        row = snap.get_version(version)
        shape = snap.record.grid.shape
        if lo is None:
            lo, hi = (0,) * len(shape), tuple(n - 1 for n in shape)
        filled = self._hot_box(snap, row, lo, hi, out)
        if filled is None:
            return self.decoder.read_region(snap, version, lo, hi, out=out)
        return None if out is not None else \
            ArrayData(snap.record.schema.sliced(shape), filled)

    def _hot_box(self, snap: ArraySnapshot, row: VersionRecord,
                 lo: tuple[int, ...], hi: tuple[int, ...],
                 out: dict[str, np.ndarray] | None
                 ) -> dict[str, np.ndarray] | None:
        """The one rule a read takes the hot slot by: a box spanning
        the whole array, of the version the slot holds as the very row
        ``snap`` publishes, is one copy of its canvases — into ``out``
        (the attributes it names) or fresh arrays, returned — with no
        chain read, no fold and no cache.  Else None."""
        if any(lo) or any(h + 1 != n for h, n in
                          zip(hi, snap.record.grid.shape)):
            return None
        filled = self._hot.read(row, out)
        if filled is not None:
            self.stats.record_hot_read()
        return filled

    def select_region(self, name: str | ArraySnapshot, version: int,
                      corner_lo: tuple[int, ...],
                      corner_hi: tuple[int, ...], *,
                      out: dict[str, np.ndarray] | None = None
                      ) -> ArrayData | None:
        """Form 2: a hyper-rectangle of one version (user coordinates).

        ``out`` maps attribute names to region-shaped arrays, which may
        be strided windows of a larger canvas (a cluster band's window
        of the coordinator's): the call fills those attributes there
        and returns None.
        """
        snap = self._pin(name)
        lo, hi = region_corners(snap.record.schema, corner_lo, corner_hi)
        return self._select(snap, version, lo, hi, out=out)

    def select_versions(self, name: str | ArraySnapshot,
                        versions: list[int],
                        attribute: str | None = None) -> np.ndarray:
        """Form 3: stack whole versions along a new leading axis.

        "Given that the specified arrays are N-dimensional, it returns an
        N+1-dimensional array that is effectively a stack of the
        specified versions."
        """
        snap = self._pin(name)
        shape = snap.record.schema.shape
        lo = tuple(0 for _ in shape)
        hi = tuple(extent - 1 for extent in shape)
        return self._stacked_select(snap, versions, attribute, lo, hi)

    def select_versions_region(self, name: str | ArraySnapshot,
                               versions: list[int],
                               corner_lo: tuple[int, ...],
                               corner_hi: tuple[int, ...],
                               attribute: str | None = None) -> np.ndarray:
        """Form 4: stack one hyper-rectangle across several versions."""
        snap = self._pin(name)
        lo, hi = region_corners(snap.record.schema, corner_lo, corner_hi)
        return self._stacked_select(snap, versions, attribute, lo, hi)

    def _stacked_select(self, snap: ArraySnapshot, versions: list[int],
                        attribute: str | None, lo: tuple[int, ...],
                        hi: tuple[int, ...]) -> np.ndarray:
        """Shared implementation of the stacked select forms: one box
        read of every layer (:meth:`DecodePipeline.read_region` with a
        list of versions — one plan, each chunk's versions resolved in
        ascending order with a shared chain scope), so a range query
        over a delta chain reads each payload once.  This is what
        makes the paper's Table IV range selects read ~2 GB rather than
        16 x the chain length.

        A layer the hot slot holds is one copy of the slot
        (:meth:`_hot_box`) and takes no part in the chunk walk.
        """
        record = snap.record
        attr = self._resolve_attribute(record, attribute)
        rows = [snap.get_version(v) for v in versions]
        dtype = record.schema.attribute(attr).dtype
        stack = np.empty((len(versions),) + tuple(
            h - l + 1 for l, h in zip(lo, hi)), dtype=dtype)
        pending = [layer for layer, row in enumerate(rows)
                   if self._hot_box(snap, row, lo, hi,
                                    {attr: stack[layer]}) is None]
        if pending:
            self.decoder.read_region(
                snap, [versions[layer] for layer in pending], lo, hi,
                out={attr: [stack[layer] for layer in pending]})
        return stack

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
        dense = record.schema.dense_size * len(versions)
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
            "compression_ratio": dense / stored if stored else None,
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
        things are deliberately excluded: **timestamps** (lineage
        metadata, not contents: the copies of a cluster band share
        their encoder's, but a rebuilt array or another band stamps
        its own clock) and **placement** (paths, offsets, delta bases
        — replicas may legitimately diverge in layout after
        ``reorganize`` or a repack while holding identical contents).
        These digests *define* replica equality, and computing them
        decodes every version; anti-entropy repair compares the
        cheaper :meth:`stored_digests` first and falls back to these
        lists only when two copies store their versions differently: a
        stale copy then shows up as a strict prefix of its peer's list,
        a diverged one as a mismatching entry.
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
        offset, length) are left out: timestamps are not contents, and
        each copy places and repacks its own objects.

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

        One rewrite (:func:`~repro.storage.rewrite.rewrite`) in
        topological order of the new forest.  The old layout stays
        readable until its one catalog swap, so versions stream out of
        it a few canvases at a time, and a fault part-way leaves it
        whole.
        """
        snap = self.catalog.snapshot(name)
        versions = [v.version for v in snap.get_versions()]
        if set(parent_of) != set(versions):
            raise StorageError(
                f"layout covers versions {sorted(parent_of)} but the array "
                f"has {versions}")
        rewrite(self, snap, [(v, parent_of[v])
                             for v in topological_order(parent_of)])

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
        self.apply_layout(name, layout_for(
            self, name, mode=mode, workload=workload, attribute=attribute,
            sample_fraction=sample_fraction))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_attribute(self, record: ArrayRecord,
                           attribute: str | None) -> str:
        if attribute is not None:
            record.schema.attribute(attribute)
            return attribute
        return record.schema.attributes[0].name

    def _now(self) -> float:
        # A strictly increasing logical clock keeps catalog timestamps
        # deterministic; wall-clock seconds provide the coarse component.
        return time.time() + next(self._tick) * 1e-6