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
from pathlib import Path

import numpy as np

from repro.core.array import ArrayData, DeltaListPayload, Payload
from repro.core.errors import StorageError
from repro.core.schema import ArraySchema
from repro.storage.backend import StorageBackend, resolve_backend
from repro.storage.chunking import DEFAULT_CHUNK_BYTES, ChunkGrid
from repro.storage.chunkstore import COLOCATED, ChunkStore
from repro.storage.iostats import IOStats
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


class _HotSlot:
    """The last version written, snapshotted into store-owned memory.

    A chain-policy insert deltas against the data the manager was just
    handed instead of re-reconstructing the parent through its whole
    delta chain.  The slot must never alias memory the caller can
    still reach — ``ArrayData`` marks only its own view read-only, so
    ``insert(buf[:])`` leaves ``buf`` writable, and a simulation loop
    that mutates ``buf`` in place between inserts would otherwise
    delta the next version against an already-mutated "base".  So the
    version is copied into one canvas per attribute, allocated once
    per layout and reused across inserts (one ``np.copyto`` each).
    """

    def __init__(self):
        self._key: tuple[str, int] | None = None
        self._canvases: dict[str, np.ndarray] = {}
        self._data: ArrayData | None = None

    def get(self, name: str, version: int) -> ArrayData | None:
        """The snapshot of ``name@version`` when that is what is held."""
        return self._data if self._key == (name, version) else None

    def remember(self, name: str, version: int, data: ArrayData) -> None:
        sources = {attr: data.attribute(attr)
                   for attr in data.attribute_names}
        layout = {attr: (values.shape, values.dtype)
                  for attr, values in sources.items()}
        if layout != {attr: (canvas.shape, canvas.dtype)
                      for attr, canvas in self._canvases.items()}:
            self._canvases = {attr: np.empty_like(values)
                              for attr, values in sources.items()}
            # ArrayData flips the arrays it is given read-only: hand
            # it views, keep the writable canvases here.
            self._data = ArrayData(data.schema, {
                attr: canvas.view()
                for attr, canvas in self._canvases.items()})
        self._key = None  # never a named, half-copied canvas
        for attr, values in sources.items():
            np.copyto(self._canvases[attr], values)
        self._key = (name, version)

    def forget(self, name: str) -> None:
        """Drop the snapshot if it is of array ``name``."""
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
                 catalog_in_memory: bool = False,
                 cache_chunks: int = 0,
                 cache_bytes: int = 0,
                 backend: "StorageBackend | str | None" = None,
                 workers: int | None = None):
        # Validate configuration before creating any durable state
        # (directories, catalog files, backend objects).
        ensure_policy(delta_policy)
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
        catalog_path = None if catalog_in_memory or backend.ephemeral \
            else self.root / "metadata.db"
        self.catalog = MetadataCatalog(catalog_path)
        self.chunk_bytes = chunk_bytes
        self.compressor_name = compressor
        self.delta_codec_name = delta_codec
        self._tick = itertools.count(1)
        # The paper's cost model "ignores caching effects ... since they
        # are often negligible in our context for very large arrays";
        # the cache is therefore off unless given an entry or byte
        # budget, and exists for interactive workloads.  Like the hot
        # slot below it relies on version contents never changing:
        # only deletions invalidate it.
        self.cache = ChunkCache(max_entries=cache_chunks,
                                max_bytes=cache_bytes, stats=self.stats)
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

    @property
    def cache_capacity(self) -> int:
        return self.cache.max_entries

    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        return self.cache.misses

    def cache_info(self) -> dict:
        """Budgets, occupancy, and hit/miss counters of the chunk cache."""
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
        if chunk_shape is not None:
            # Validate eagerly so a bad shape fails at Create.
            ChunkGrid(schema.shape, schema.cell_size,
                      chunk_bytes or self.chunk_bytes, chunk_shape)
        return self.catalog.create_array(
            name, schema,
            chunk_bytes=chunk_bytes or self.chunk_bytes,
            compressor=compressor or self.compressor_name,
            created_at=self._now(),
            parent_array=parent_array,
            parent_version=parent_version,
            chunk_shape=chunk_shape)

    def delete_array(self, name: str) -> None:
        """Drop an array, its versions, and its stored bytes."""
        record = self.catalog.get_array(name)  # existence check
        self.cache.invalidate_array(record.array_id)
        self._hot.forget(name)
        self.catalog.delete_array(name)
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
        catalog transaction *after* every payload is placed: a
        concurrent reader can never name a version whose chunks are
        still being encoded, and a mid-encode failure (or a crash at
        any point) leaves no catalog trace at all — nothing to roll
        back or repair.
        """
        record = self.catalog.get_array(name)
        parent = self.catalog.latest_version(record.array_id)
        data = self._normalize_payload(record, payload)
        version = (parent or 0) + 1
        self._write_version(record, version, data,
                            base_version=parent,
                            version_row=VersionRecord(
                                record.array_id, version, parent,
                                "insert", timestamp or self._now()))
        return version

    def branch(self, source_name: str, source_version: int,
               new_name: str,
               timestamp: float | None = None) -> ArrayRecord:
        """Create a named branch rooted at a past version (Branch).

        "Branches are formed off of a particular version of an existing
        array ... but they create a new array with a new name."  The
        branch's version 1 has the same contents as the source version.
        """
        source = self.catalog.get_array(source_name)
        contents = self.select(source_name, source_version)
        branch_record = self.create_array(
            new_name, source.schema,
            chunk_bytes=source.chunk_bytes,
            compressor=source.compressor,
            parent_array=source_name,
            parent_version=source_version,
            chunk_shape=source.chunk_shape)
        try:
            # Version row + chunk rows commit together at the end, so
            # the branch's root version appears only once readable.
            self._write_version(branch_record, 1, contents,
                                base_version=None,
                                version_row=VersionRecord(
                                    branch_record.array_id, 1, None,
                                    "branch-root",
                                    timestamp or self._now()))
        except BaseException:
            # The branch is unusable without its root version; undo
            # the whole array so no partial branch remains.
            self.delete_array(new_name)
            raise
        return branch_record

    def merge(self, parents: list[tuple[str, int]], new_name: str,
              timestamp: float | None = None) -> ArrayRecord:
        """Combine parent versions into a new sequence of arrays (Merge).

        Per Section II-A, Merge "takes a collection of two or more parent
        versions and combines them into a new sequence of arrays (it
        does not attempt to combine data from two arrays into one
        array)" — the result is a new array whose versions 1..k replay
        the listed parents, with the parent links recorded so the
        version hierarchy becomes a DAG.
        """
        if len(parents) < 2:
            raise StorageError("merge requires at least two parent versions")
        first_array = self.catalog.get_array(parents[0][0])
        for parent_name, _ in parents:
            if self.catalog.get_array(parent_name).schema != \
                    first_array.schema:
                raise StorageError(
                    "merge parents must share the same schema")
        merged = self.create_array(
            new_name, first_array.schema,
            chunk_bytes=first_array.chunk_bytes,
            compressor=first_array.compressor,
            chunk_shape=first_array.chunk_shape)
        try:
            for sequence, (parent_name, parent_version) in \
                    enumerate(parents, 1):
                contents = self.select(parent_name, parent_version)
                self._write_version(
                    merged, sequence, contents,
                    base_version=sequence - 1 if sequence > 1 else None,
                    version_row=VersionRecord(
                        merged.array_id, sequence,
                        sequence - 1 if sequence > 1 else None,
                        "merge", timestamp or self._now()),
                    merge_parents=[(parent_name, parent_version)])
        except BaseException:
            # A merge is all-or-nothing: drop the half-replayed array
            # rather than leave a partial version sequence behind.
            self.delete_array(new_name)
            raise
        return merged

    def replay_version(self, name: str,
                       payload: Payload | ArrayData | np.ndarray, *,
                       version: int,
                       kind: str = "insert",
                       parent_version: int | None = None,
                       timestamp: float | None = None,
                       merge_parents: list[tuple[str, int]] | None = None
                       ) -> int:
        """Re-create one version with an explicit lineage row.

        The resync primitive behind anti-entropy repair and the
        rebalance catch-up loop: unlike :meth:`insert` it preserves the
        *source* version's kind (``insert`` / ``branch-root`` /
        ``merge``), parent link, merge parents, and timestamp, so a
        replica rebuilt version-by-version answers lineage queries
        identically to the copy it was rebuilt from.  Replay is
        append-only — ``version`` must be exactly one past this
        array's latest — and runs through the same transactional write
        path as a fresh insert (chunk placement, durability barrier,
        then version row + chunk rows in one catalog transaction).
        """
        if kind not in ("insert", "branch-root", "merge"):
            raise StorageError(f"unknown version kind {kind!r}")
        record = self.catalog.get_array(name)
        latest = self.catalog.latest_version(record.array_id) or 0
        if version != latest + 1:
            raise StorageError(
                f"replay_version is append-only: array {name!r} is at "
                f"version {latest}, cannot replay version {version}")
        data = self._normalize_payload(record, payload)
        self._write_version(
            record, version, data,
            base_version=parent_version,
            version_row=VersionRecord(
                record.array_id, version, parent_version, kind,
                self._now() if timestamp is None else timestamp),
            merge_parents=list(merge_parents) if merge_parents else None)
        return version

    def delete_version(self, name: str, version: int, *,
                       reclaim: bool = True) -> None:
        """Remove one version, re-encoding any versions delta'ed on it.

        ``reclaim=False`` skips the co-located repack that normally
        reclaims the deleted payloads' bytes.  The cluster rollback
        path uses it: a compensating delete must *never* write through
        the backend (a repack re-places every surviving payload, and
        on a faulty or flaky substrate that write can fail between the
        object rewrite and the catalog transaction re-pointing the
        rows) — so the undo trades dead bytes, which no catalog row
        references and which the next successful repack reclaims, for
        the guarantee that the catalog stays consistent no matter what
        the substrate does.
        """
        record = self.catalog.get_array(name)
        deleted_parent = self.catalog.get_version(
            record.array_id, version).parent_version
        dependents = {chunk.version for chunk in
                      self.catalog.dependents_of(record.array_id, version)}
        # The deleted version's stored delta base — not its lineage
        # parent, which after a re-organization may itself be one of
        # the dependents (a head-rooted chain deltas old against new).
        bases = {chunk.base_version for chunk in
                 self.catalog.chunks_for_version(record.array_id, version)
                 if chunk.is_delta}
        deleted_base = bases.pop() if len(bases) == 1 else None

        # Re-encode each dependent against the deleted version's own base
        # (or materialize when the chain ends here).
        for dependent in sorted(dependents):
            contents = self.select(name, dependent)
            self._write_version(record, dependent, contents,
                                base_version=deleted_base,
                                replace=True)
        self.catalog.delete_version(record.array_id, version)
        # A deleted head's number is reused by the next insert.  Not
        # earlier: the dependents' selects above may have re-cached
        # the deleted version on their way down the chain.
        self.cache.invalidate_array(record.array_id)
        # Keep the lineage consistent: children of the deleted version
        # are re-parented to its own parent, so later deletes never
        # chase a dangling parent reference.
        self.catalog.reparent_versions(record.array_id, version,
                                       deleted_parent)
        self.store.delete_version_files(name, version)
        # The re-encode loop above repopulates the hot slot with live
        # contents, but a deleted head's version number can be reused
        # by the next insert — drop the slot for this array outright.
        self._hot.forget(name)
        if reclaim:
            self._repack(record)

    # ------------------------------------------------------------------
    # Selection (Section II-B's four forms)
    # ------------------------------------------------------------------
    def select(self, name: str, version: int) -> ArrayData:
        """Form 1: the full contents of one version."""
        record = self.catalog.get_array(name)
        self.catalog.get_version(record.array_id, version)
        return self.decoder.read_version(record, self.grid_for(record),
                                         version)

    def select_region(self, name: str, version: int,
                      corner_lo: tuple[int, ...],
                      corner_hi: tuple[int, ...]) -> ArrayData:
        """Form 2: a hyper-rectangle of one version (user coordinates)."""
        record = self.catalog.get_array(name)
        self.catalog.get_version(record.array_id, version)
        schema = record.schema
        lo = schema.to_zero_based(corner_lo)
        hi = schema.to_zero_based(corner_hi)
        return self.decoder.read_region(record, self.grid_for(record),
                                        version, lo, hi)

    def select_versions(self, name: str, versions: list[int],
                        attribute: str | None = None) -> np.ndarray:
        """Form 3: stack whole versions along a new leading axis.

        "Given that the specified arrays are N-dimensional, it returns an
        N+1-dimensional array that is effectively a stack of the
        specified versions."
        """
        record = self.catalog.get_array(name)
        schema = record.schema
        lo = tuple(0 for _ in schema.shape)
        hi = tuple(extent - 1 for extent in schema.shape)
        return self._stacked_select(record, versions, attribute, lo, hi)

    def select_versions_region(self, name: str, versions: list[int],
                               corner_lo: tuple[int, ...],
                               corner_hi: tuple[int, ...],
                               attribute: str | None = None) -> np.ndarray:
        """Form 4: stack one hyper-rectangle across several versions."""
        record = self.catalog.get_array(name)
        lo = record.schema.to_zero_based(corner_lo)
        hi = record.schema.to_zero_based(corner_hi)
        return self._stacked_select(record, versions, attribute, lo, hi)

    def _stacked_select(self, record: ArrayRecord, versions: list[int],
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
        what keeps the payload-read count identical on the fused path,
        which records only requested versions into the scope — the
        stepwise path got the same sharing for free from its
        materialized intermediates.
        """
        attr = self._resolve_attribute(record, attribute)
        for v in versions:
            self.catalog.get_version(record.array_id, v)
        dtype = record.schema.attribute(attr).dtype
        region_shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        out = np.empty((len(versions),) + region_shape, dtype=dtype)
        grid = self.grid_for(record)
        order = sorted(enumerate(versions), key=lambda pair: pair[1])
        for chunk in grid.chunks_overlapping(lo, hi):
            scope: dict[int, np.ndarray] = {}
            src, dst = _overlap_slices(chunk, lo, hi)
            for layer, version in order:
                data = self.decoder.reconstruct(record, version, attr,
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
        record = self.catalog.get_array(name)
        versions = self.catalog.get_versions(record.array_id)
        stored = self.catalog.stored_bytes(record.array_id)
        dense = record.schema.dense_size * max(1, len(versions))
        sparsity = None
        if versions:
            latest = self.select(name, versions[-1].version)
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
            record = self.catalog.get_array(array_name)
            for chunk in self.catalog.all_chunks(record.array_id):
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
        while holding identical contents).  Anti-entropy repair
        compares these lists between replicas: a stale copy shows up as
        a strict prefix of its peer's list, a diverged one as a
        mismatching entry.
        """
        record = self.catalog.get_array(name)
        digests: list[tuple[int, str]] = []
        for row in self.catalog.get_versions(record.array_id):
            digest = hashlib.sha256()
            parents = self.catalog.merge_parents_of(record.array_id,
                                                    row.version)
            digest.update(repr((name, row.version, row.parent_version,
                                row.kind, parents)).encode())
            data = self.select(name, row.version)
            for attr in record.schema.attributes:
                digest.update(np.ascontiguousarray(
                    data.attribute(attr.name)).tobytes())
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
        """The chunk grid shared by every version of an array."""
        return ChunkGrid(record.schema.shape, record.schema.cell_size,
                         record.chunk_bytes,
                         chunk_shape=record.chunk_shape)

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
        """
        record = self.catalog.get_array(name)
        versions = [v.version for v in
                    self.catalog.get_versions(record.array_id)]
        if set(parent_of) != set(versions):
            raise StorageError(
                f"layout covers versions {sorted(parent_of)} but the array "
                f"has {versions}")
        order = _topological_order(parent_of)

        # Snapshot all contents before rewriting anything.
        contents = {v: self.select(name, v) for v in versions}
        for v in order:
            self._write_version(record, v, contents[v],
                                base_version=parent_of[v], replace=True)
        self._repack(record)

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
        """The contents of a version the write path deltas against or
        patches: the hot slot's snapshot when that is the version
        held, else an ordinary :meth:`select`.  Every write-path base
        comes from here, so a base is always a canvas."""
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

    def _write_version(self, record: ArrayRecord, version: int,
                       data: ArrayData, base_version: int | None,
                       replace: bool = False,
                       version_row: VersionRecord | None = None,
                       merge_parents: list[tuple[str, int]] | None = None
                       ) -> None:
        """Resolve the base (when the policy deltas) and run the encode
        pipeline for one version."""
        base_data: ArrayData | None = None
        if base_version is not None and self.encoder.wants_base:
            base_data = self._version_contents(record, base_version)
        self.encoder.write_version(record, self.grid_for(record), version,
                                   data, base_data=base_data,
                                   base_version=base_version,
                                   replace=replace,
                                   version_row=version_row,
                                   merge_parents=merge_parents)
        if self.encoder.wants_base:
            self._hot.remember(record.name, version, data)

    def _repack(self, record: ArrayRecord) -> None:
        """Rewrite co-located chunk objects keeping only live payloads.

        Swap, don't overwrite: the surviving payloads are rewritten to
        *new* objects and made durable first, then every rewritten row
        swaps to them in one catalog transaction, and only after that
        commit are the superseded objects reclaimed.  A fault anywhere
        before the commit leaves the catalog and the old objects
        untouched (the half-written siblings are unreferenced debris a
        later pass supersedes); a fault during reclaim leaks bytes but
        can never corrupt.
        """
        if self.store.placement != COLOCATED:
            return
        live = self.catalog.all_chunks(record.array_id)
        keep = [(chunk.location,
                 (chunk.version, chunk.attribute, chunk.chunk_name))
                for chunk in live]
        new_locations = self.store.repack(record.name, keep)
        # All rewritten rows land in one transaction: a crash mid-way
        # must never leave the catalog pointing at a mix of old and new
        # locations.
        self.catalog.put_chunks([ChunkRecord(
            array_id=chunk.array_id,
            version=chunk.version,
            attribute=chunk.attribute,
            chunk_name=chunk.chunk_name,
            delta_codec=chunk.delta_codec,
            base_version=chunk.base_version,
            compressor=chunk.compressor,
            location=new_locations[(chunk.version, chunk.attribute,
                                    chunk.chunk_name)],
        ) for chunk in live])
        retained = {location.path for location in new_locations.values()}
        self.store.reclaim({location.path for location, _ in keep}
                           - retained)

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
