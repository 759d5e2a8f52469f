"""Explicit encode/decode pipelines between the manager and the store.

Figure 1 draws the insert and select paths as staged flows; the seed
implementation fused both into ``VersionedStorageManager``.  This module
makes the stages first-class:

* :class:`EncodePipeline` — the insert path, staged as **plan**
  (enumerate one encode task per (attribute, chunk) with its target and
  base slices), **encode** (delta-encode against the policy-selected
  base and compress, fanned across the process's CPU fan), and
  **commit** (place every payload in the chunk store in task order
  from the calling thread, raise the backend's durability barrier,
  then record all encoding decisions in the Version Metadata in one
  transaction);
* :class:`DecodePipeline` — the select path: **locate** the chunk's
  delta chain in the read's catalog snapshot, **read** the chain
  (batched, one backend open per distinct object), **decompress** the
  materialized root, **fold** the chain's delta levels onto it, and
  **assemble** result arrays;
* :class:`ChunkCache` — one bytes-bounded LRU of decoded chunks,
  populated by reads (version contents are immutable, so only deleting
  a version or an array invalidates).  The paper's cost model "ignores
  caching effects ... since they are often negligible in our context for
  very large arrays", so the cache is off unless given a budget.

The pipelines own *how* versions are encoded and decoded;
``VersionedStorageManager`` shrinks to orchestration — catalog
bookkeeping, version lineage, and layout re-organization.

They also decide what the store's CPU fan runs (the threads live in
:mod:`repro.storage.fan`, one pool per process): encode blocks on the
way in, per-chunk decodes on the way out, both through its one ordered
sliding window (:func:`~repro.storage.fan.ordered`).  Nothing below
fans again — a task reads its chain and the consuming thread places
its payload or admits its chunk serially — so no task ever waits on
another, no pool thread touches the chunk cache, and an operation that
raises first cancels or waits out every task it started.

Two invariants both pipelines are built around:

* **Byte identity across acceleration.**  Every fast path — the chain
  fold at the cell's own width and the compiled kernels in
  :mod:`repro.core.native` — must produce exactly the bytes of the
  plain numpy, level-by-level decode.  Store fingerprints may never
  depend on ``REPRO_NATIVE``, the fan width, or whether an insert's
  base canvas came from the manager's hot slot or a ``select``.
* **Graceful fallback.**  Each compiled kernel gates itself on dtype
  and layout and returns ``None``/raises nothing when it does not
  apply; the caller falls back to the numpy form silently.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, OrderedDict
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from operator import le
from typing import Callable

import numpy as np

from repro.compression.registry import get_codec
from repro.core import native
from repro.core.array import ArrayData
from repro.core.errors import (
    CodecError,
    DeltaLevelError,
    NoOverwriteError,
    StorageError,
)
from repro.delta.auto import (
    EncodingDecision,
    default_delta_candidates,
    plan_encoding,
)
from repro.delta.base import chunk_fold, fold_chain
from repro.delta.registry import delta_codec_names, get_delta_codec
from repro.storage import fan
from repro.storage.chunking import ChunkGrid, ChunkRef
from repro.storage.chunkstore import ChunkStore
from repro.storage.iostats import IOStats
from repro.storage.metadata import (
    ArrayRecord,
    ArraySnapshot,
    ChunkRecord,
    MetadataCatalog,
)

#: Insert-time delta policies.
POLICY_AUTO = "auto"          # try the candidate codecs, keep the smallest
POLICY_CHAIN = "chain"        # delta against the parent (fallback: smaller)
POLICY_MATERIALIZE = "materialize"  # never delta on insert
_POLICIES = (POLICY_AUTO, POLICY_CHAIN, POLICY_MATERIALIZE)

#: The largest chunk buffer a decoding thread keeps: an L2's worth.
_KEPT_FOLD_BYTES = 2 << 20

#: Each store delta codec's levels as the one-call decode reads them
#: (:attr:`~repro.delta.base.DeltaCodec.fold_layout`); a codec it
#: cannot read (``hybrid+lz``) is absent and decodes the long way.
_FOLD_LAYOUTS = {codec.name: codec.fold_layout
                 for codec in map(get_delta_codec, delta_codec_names())
                 if codec.fold_layout is not None}


def ensure_policy(delta_policy: str) -> str:
    """Validate an insert-time delta policy name (returns it unchanged).

    Callers that create durable state (directories, catalog files)
    should validate up front so a bad configuration fails before any
    side effect.
    """
    if delta_policy not in _POLICIES:
        raise StorageError(
            f"unknown delta policy {delta_policy!r}; "
            f"expected one of {_POLICIES}")
    return delta_policy


class ChunkCache:
    """Bytes-bounded LRU of decoded chunks, keyed by
    ``(array_id, version, attribute, chunk_name)``.

    ``max_bytes`` is the one budget, a byte count; zero disables the
    cache entirely (:attr:`enabled`), and anything else that is not a
    count of zero or more raises :class:`StorageError`.  Hits and
    misses are counted once, in ``stats`` — the store's
    :class:`IOStats` when one is attached, so cache effectiveness
    appears next to the I/O it avoided, else one of the cache's own.

    Every operation holds an internal lock: client threads share one
    manager, and the byte accounting and hit/miss counters must stay
    exact under concurrency.  The CPU fan never calls in — a read
    plans and admits its chunks on the calling thread — so the cache's
    state is a function of the operation sequence alone.  A single entry larger than ``max_bytes`` is never
    admitted (admitting it would evict the entire cache, itself
    included); rejections are counted and reported by :meth:`info`.

    Admission comes in two strengths: the version a read asked for may
    evict least-recently-used entries (:meth:`put`); the intermediates
    a warm fill decoded on the way only ever take free space
    (``put(..., evict=False)``), so they can never displace a demanded
    entry however concurrent readers interleave with :meth:`fits`.
    """

    def __init__(self, max_bytes: int = 0,
                 stats: IOStats | None = None):
        if not isinstance(max_bytes, (int, np.integer)) or max_bytes < 0:
            raise StorageError(
                f"cache budget must be a byte count >= 0, "
                f"got {max_bytes!r}")
        self.max_bytes = max_bytes
        self.stats = stats if stats is not None else IOStats()
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.oversized = 0
        self.prefetched = 0
        self.prefetch_declined = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self.stats.record_cache_miss()
        else:
            self.stats.record_cache_hit()
        return entry

    def peek(self, key: tuple) -> np.ndarray | None:
        """Speculative probe (the chain walk's per-level lookup).

        A hit counts — it terminated a walk and saved real I/O — but a
        miss is not recorded: probing ancestors is not a logical chunk
        request, and counting it would inflate the miss rate by chain
        depth on every cold read.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
        self.stats.record_cache_hit()
        return entry

    def put(self, key: tuple, data: np.ndarray, *,
            evict: bool = True,
            valid: Callable[[], bool] | None = None) -> None:
        """Admit one entry; with ``evict=False`` only if it fits the
        free space as it is right now (dropped otherwise).

        ``valid``, when given, is asked under the cache lock whether
        ``data`` is still what ``key`` names; a refused entry is
        dropped.  Asking under the lock orders the answer against
        :meth:`invalidate_array`: a writer that publishes first and
        invalidates after either makes ``valid`` refuse or clears the
        entry it admitted.

        An admitted entry is read-only, so no view a read hands out
        can be made writable again and change it."""
        with self._lock:
            if valid is not None and not valid():
                return
            data.setflags(write=False)
            if not evict:
                if key not in self._entries and \
                        self._has_room(data.nbytes):
                    self._entries[key] = data
                    self._bytes += data.nbytes
                    self.prefetched += 1
                return
            stale = self._entries.pop(key, None)
            if stale is not None:
                self._bytes -= stale.nbytes
            if 0 < self.max_bytes < data.nbytes:
                # Admission control: an oversized entry would evict
                # everything else and then itself.  Keep it out.
                self.oversized += 1
                return
            self._entries[key] = data
            self._bytes += data.nbytes
            while self._entries and not self._has_room(0):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes

    def _has_room(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more keep the budget (lock held)."""
        return not 0 < self.max_bytes < self._bytes + nbytes

    def fits(self, nbytes: int) -> bool:
        """The warm fill's go/no-go: whether ``nbytes`` fit the free
        space.  Refusals count."""
        with self._lock:
            room = self._has_room(nbytes)
            if not room:
                self.prefetch_declined += 1
            return room

    def invalidate_array(self, array_id: int) -> None:
        """Drop cached chunks of one array after a deletion — the only
        event that lets an ``(array, version)`` key name new contents."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == array_id]
            for key in stale:
                self._bytes -= self._entries.pop(key).nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def info(self) -> dict:
        """Budget, occupancy, hit/miss, and admission counters
        (``prefetched`` intermediates admitted by warm fills,
        ``prefetch_declined`` chains that did not fit and went fused)."""
        with self._lock:
            return {
                "max_bytes": self.max_bytes,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.stats.cache_hits,
                "misses": self.stats.cache_misses,
                "oversized": self.oversized,
                "prefetched": self.prefetched,
                "prefetch_declined": self.prefetch_declined,
            }


@dataclass(frozen=True)
class EncodeTask:
    """One (attribute, chunk) unit of the encode stage's fan-out.

    Tasks are deliberately light — just coordinates.  The encode
    stage slices the target and base *views* out of the input canvases
    (shared read-only, which is thread-safe for numpy views) and the
    analysis kernel reads them in place, so no chunk is copied unless
    its materialized form wins.
    """

    attribute: str
    chunk: ChunkRef


class EncodePipeline:
    """The insert path: plan → encode → place → barrier (Figure 1,
    left); the manager commits the rows it returns.

    Chunk encoding (delta against the base slice, then compress) is
    CPU-bound and independent per chunk, so the encode stage fans tasks
    across the CPU fan (:mod:`repro.storage.fan`) — the write-side
    mirror of :class:`DecodePipeline`'s per-chunk fan-out.
    The place stage does not fan: the calling thread places each
    decision as it arrives, in task order, while the encode window
    keeps later blocks in flight — so placement overlaps encoding, and
    every backend sees its writes in the same order at every fan
    width (co-located append offsets, stored bytes, catalog rows and
    a seeded fault schedule all replay exactly).
    """

    def __init__(self, catalog: MetadataCatalog, store: ChunkStore, *,
                 delta_policy: str = POLICY_CHAIN,
                 delta_codec: str = "hybrid"):
        ensure_policy(delta_policy)
        self.catalog = catalog
        self.store = store
        self.delta_policy = delta_policy
        self.delta_codec_name = delta_codec
        # One run-list buffer per encoding thread, reused chunk after
        # chunk: a plan's run list is dead once its decision (pure
        # bytes) is returned, and a task runs on one thread.
        self._scratch = threading.local()

    @property
    def wants_base(self) -> bool:
        """Whether the policy ever deltas (the base version is worth
        reconstructing before encoding)."""
        return self.delta_policy != POLICY_MATERIALIZE

    def _candidates(self) -> tuple:
        """The delta codecs the policy tries on a chunk."""
        if self.delta_policy == POLICY_CHAIN:
            return (get_delta_codec(self.delta_codec_name),)
        return default_delta_candidates()

    # ------------------------------------------------------------------
    # Stage 1: plan
    # ------------------------------------------------------------------
    def plan_version(self, record: ArrayRecord,
                     grid: ChunkGrid) -> list[EncodeTask]:
        """Enumerate one encode task per (attribute, chunk).

        Task order is the canonical commit order: attributes in schema
        order, chunks in grid order — the same order the serial loop
        always wrote, so refactoring to stages changed no stored byte.
        """
        return [EncodeTask(attribute=attr.name, chunk=chunk)
                for attr in record.schema.attributes
                for chunk in grid.chunks()]

    # ------------------------------------------------------------------
    # Stage 2: encode
    # ------------------------------------------------------------------
    def encode_chunk(self, target: np.ndarray, base: np.ndarray | None,
                     compressor, *, adopt: bool = False
                     ) -> EncodingDecision:
        """Pick and produce one chunk's representation.

        The decision comes from the single-pass
        :func:`~repro.delta.auto.plan_encoding` — one delta, one run
        list, one set of width statistics, one encode — and the
        representations it sized but never produced are recorded in
        the store's counters.  ``adopt`` leaves the writable ``base``
        window holding ``target``'s cells.
        """
        scratch = None
        if self.delta_policy == POLICY_MATERIALIZE or base is None:
            base = None
            candidates = None
            adopt = False
        else:
            candidates = self._candidates()
            scratch = getattr(self._scratch, "runs", None)
            need = native.scratch_cells(target.size)
            if scratch is None or scratch.size < need:
                scratch = self._scratch.runs = np.empty(
                    need, dtype=np.uint64)
        planned = plan_encoding(target, base, compressor=compressor,
                                candidates=candidates, scratch=scratch,
                                adopt=adopt)
        self.store.stats.record_encode_plan(planned.encodes_avoided,
                                            planned.bytes_saved)
        return planned.decision

    def _encode_task(self, task: EncodeTask, data: ArrayData,
                     base_data: ArrayData | None, compressor,
                     canvas: dict[str, np.ndarray] | None
                     ) -> EncodingDecision:
        window = task.chunk.slices()
        target = data.attribute(task.attribute)[window]
        base = None
        if canvas is not None:
            base = canvas[task.attribute][window]
        elif base_data is not None:
            base = base_data.attribute(task.attribute)[window]
        decision = self.encode_chunk(target, base, compressor,
                                     adopt=canvas is not None)
        self.store.stats.record_encode_task()
        return decision

    def _encode_tasks(self, tasks: list[EncodeTask], data: ArrayData,
                      base_data: ArrayData | None, compressor,
                      canvas: dict[str, np.ndarray] | None):
        """Yield each task's :class:`EncodingDecision` in task order.

        The parallel path groups tasks into contiguous blocks (a few
        per pool thread, so fine-grained grids do not pay one dispatch per
        tiny chunk) and runs them through the ordered window
        (:func:`fan.ordered`) — the commit stage downstream consumes
        decisions exactly as the serial loop produced them, placement
        of early chunks overlaps the encoding of later ones, and the
        encoded-payload memory in flight stays bounded by the window
        rather than the whole version.
        """
        width = fan.FAN_WIDTH
        step = -(-len(tasks) // (width * 4)) if width > 1 else 1  # ceil

        def encode_block(block: list[EncodeTask]):
            return [self._encode_task(task, data, base_data, compressor,
                                      canvas)
                    for task in block]

        blocks = [tasks[i:i + step] for i in range(0, len(tasks), step)]
        with closing(fan.ordered(encode_block, blocks)) as decisions:
            for block in decisions:
                yield from block

    # ------------------------------------------------------------------
    # Stage 3: place
    # ------------------------------------------------------------------
    def _place_tasks(self, record: ArrayRecord, grid: ChunkGrid,
                     version: int, data: ArrayData,
                     base_data: ArrayData | None,
                     base_version: int | None,
                     committed: list[ChunkRecord],
                     canvas: dict[str, np.ndarray] | None = None,
                     payloads: list | None = None
                     ) -> list[ChunkRecord]:
        """Plan, encode and place every task of one version; the
        :class:`ChunkRecord` rows, in task order.

        The calling thread places each decision the moment the encode
        stage yields it, so placements reach the backend one at a time
        in canonical task order whatever the fan width — while the
        encode window keeps the following blocks in flight.  Each
        placement lands beside the ``committed`` row it supersedes,
        never on its bytes.  ``payloads``, when given, collects each
        row's payload as composed for placement (still one join).
        """
        compressor = get_codec(record.compressor)
        tasks = self.plan_version(record, grid)
        supersedes = {(chunk.attribute, chunk.chunk_name): chunk.location
                      for chunk in committed}
        records = []
        with closing(self._encode_tasks(tasks, data, base_data,
                                        compressor, canvas)) as decisions:
            for task, decision in zip(tasks, decisions):
                payload = decision.parts
                if payloads is not None:
                    payload = decision.payload
                    payloads.append(payload)
                location = self.store.write_chunk(
                    record.name, version, task.attribute,
                    task.chunk.name, payload,
                    supersedes.get((task.attribute, task.chunk.name)))
                records.append(ChunkRecord(
                    array_id=record.array_id,
                    version=version,
                    attribute=task.attribute,
                    chunk_name=task.chunk.name,
                    delta_codec=decision.delta_codec,
                    base_version=base_version if decision.is_delta
                    else None,
                    compressor=record.compressor,
                    location=location,
                ))
        return records

    def stage_version(self, record: ArrayRecord, grid: ChunkGrid,
                      version: int, data: ArrayData, *,
                      base_data: ArrayData | None,
                      base_version: int | None) -> list[ChunkRecord]:
        """Re-encode a committed version beside its committed encoding
        (plan, encode, place — no barrier, no catalog write); the rows
        the caller's rewrite swaps in.  No staged byte lands on bytes a
        committed row names (:meth:`ChunkStore.write_chunk`)."""
        return self._place_tasks(
            record, grid, version, data, base_data, base_version,
            self.catalog.chunks_for_version(record.array_id, version))

    def write_version(self, record: ArrayRecord, grid: ChunkGrid,
                      version: int, data: ArrayData, *,
                      base_data: ArrayData | None,
                      base_version: int | None,
                      canvas: dict[str, np.ndarray] | None = None,
                      payloads: list | None = None
                      ) -> list[ChunkRecord]:
        """Plan, encode, place and barrier every chunk of a *new*
        version (a committed one raises :class:`NoOverwriteError`) and
        return the rows for the caller to commit.  ``base_data`` is the
        base's contents (None to materialize).  ``canvas`` is the
        writable arrays ``base_data`` views:
        each chunk is then encoded against its window of them in place
        and leaves the window holding ``data``'s cells, so after the
        last chunk the canvas *is* this version.  ``payloads`` collects
        each row's placed bytes, in row order.  A failure leaves only
        bytes no row names — and a canvas partly overwritten.  The
        chunk cache is not touched.
        """
        if record.array_id is not None and \
                self.catalog.chunks_for_version(record.array_id, version):
            raise NoOverwriteError(
                f"version {version} of {record.name!r} already exists")
        records = self._place_tasks(record, grid, version, data,
                                    base_data, base_version, [], canvas,
                                    payloads)
        # No row may name bytes a crash would lose; on the object backend
        # this completes every multipart upload the version staged.
        self.store.sync_chunks([chunk.location for chunk in records])
        return records


@dataclass(slots=True)
class _Miss:
    """One chunk the cache did not answer, planned on the calling
    thread: its read ``task`` (see :meth:`DecodePipeline._resolve`),
    the located chain (from ``version`` down), the version the walk
    stopped at (None: the materialized root) with its contents when
    known, the job chosen and the cells it may fold into.  Only the
    run decoding it changes it (:meth:`DecodePipeline._decode_run`)."""

    snap: ArraySnapshot
    version: int
    attribute: str
    chunk: ChunkRef
    task: tuple
    chain: list[ChunkRecord]
    base_version: int | None
    base: np.ndarray | None
    warm_fill: bool
    out: np.ndarray | None
    #: Cache bytes its admission will take (0 with the cache off).
    admits: int


class ReadPlan:
    """One box of one array resolved against its chunk grid, once per
    read (:meth:`DecodePipeline.read_region`, of one version or a
    whole stack).  ``parts`` holds each overlapping chunk in grid
    order with its ``(src, dst)`` slices — its cells in the chunk,
    their place in the box — and whether it lies wholly inside the
    box; a read keys their cache entries ``(array_id, version,
    attribute, chunk name)``.  ``schema`` is the box's zero-based
    schema (:meth:`~repro.core.schema.ArraySchema.sliced`).

    The box is trusted: its corners were checked once, by
    :func:`~repro.storage.manager.region_corners` (or it is the whole
    array), so a box inside one chunk is one index computation.  A
    plan is the geometry of the record it was built on, valid for
    exactly the record a published snapshot names.
    """

    __slots__ = ("schema", "parts")

    def __init__(self, record: ArrayRecord, lo: tuple[int, ...],
                 hi: tuple[int, ...]):
        self.schema = record.schema.sliced(
            tuple([h - l + 1 for l, h in zip(lo, hi)]))
        chunks = record.grid.box(lo, hi)
        if len(chunks) == 1:    # the box is inside this chunk
            chunk, = chunks
            self.parts = ((chunk, tuple([
                slice(l - first, h - first + 1)
                for l, h, first in zip(lo, hi, chunk.lo)]),
                (slice(None),) * len(lo),
                chunk.lo == tuple(lo) and chunk.hi == tuple(hi)),)
            return
        self.parts = tuple([
            (chunk, *overlap_slices(chunk, lo, hi),
             all(map(le, lo, chunk.lo)) and all(map(le, chunk.hi, hi)))
            for chunk in chunks])


class DecodePipeline:
    """The select path: locate → read chain → decompress → fold →
    assemble (Figure 1, right; Figure 2's read pattern).

    Every read — one version or a stack — runs in the same three
    steps (:meth:`_resolve`).  The calling thread *plans* every task
    first: the cache lookup, the chain walk (with its cache probes)
    and the job choice below.  Only the misses go to the pool, whose
    stage reads, decompresses and folds and touches neither the cache
    nor any scope.  The calling thread then *admits* each result in
    task order.  Hits never reach the pool, and the cache sees the
    same calls in the same order at every fan width.  Assembly stays
    deterministic: every chunk writes a disjoint region of the output
    canvas, so the result is byte-identical at every width.

    There is one way to decode a delta level: fold it into cells that
    hold its base (:func:`repro.delta.base.fold_chain`).  Every store
    delta codec composes — wrapping addition, xor — so levels apply in
    place, at the cells' own width, sparse/hybrid levels at O(nnz).  A
    cache miss does one of two jobs with it, chosen per chunk from what
    the code can observe (the located chain's size, the cache's free
    space), not from a setting:

    * **Read one version** (the default).  One native call, with the
      GIL released, copies the root once into contiguous cells, checks
      and folds the whole chain onto them and copies them into the
      canvas window.  The cells are the caller's canvas window when
      that is contiguous and nothing else will hold on to it, a buffer
      of the chunk's own when the cache will, and otherwise the
      decoding thread's chunk buffer.  Only the requested version is
      admitted to the cache.
    * **Warm-fill a chain.**  When every located level fits the
      cache's *free* space, each level is folded into an owning copy
      of the one before — one native call per version — and every
      intermediate version is admitted too, through the non-evicting
      put: later reads of those versions are hits, and no entry a
      caller asked for is ever displaced.  A chain that does not fit
      is declined and read as one version.

    A chunk the native call declines or fails on is decoded the long
    way (:meth:`_fused_apply`, or level by level on a warm fill) from
    the same payloads; see :meth:`_decode_in_one_call`.  The walk
    probes the cache at every level, so a cached ancestor ends it and
    only the suffix is read.  Both jobs, either way, read the same
    payloads, produce the same bytes, and name a corrupt level the
    same way: array, version and chunk.
    """

    def __init__(self, catalog: MetadataCatalog, store: ChunkStore, *,
                 cache: ChunkCache | None = None):
        self.catalog = catalog
        self.store = store
        self.cache = cache if cache is not None else ChunkCache()
        # One chunk buffer per decoding thread (see _chunk_buffer).
        self._buffers = threading.local()

    def _plan(self, snap: ArraySnapshot, task: tuple,
              scope: dict | None,
              admitting: int = 0) -> np.ndarray | _Miss:
        """Calling thread, before anything decodes: the cached chunk
        of a ``(version, attribute, chunk, src, dst, canvas, window)``
        read task, or the :class:`_Miss` to decode — its chain located
        and its job chosen.

        ``scope`` maps the versions of this chunk that the read's
        earlier tasks of its group resolve (:meth:`_read_stack`) to
        their contents — None for one a miss planned before this one
        will decode, which the run hands on (:meth:`_decode_run`).  A
        walk stops at the first version in it; a hit, and what a miss
        will resolve, are recorded into it.  ``admitting`` is what the
        read's misses planned before this one will admit: a warm fill
        must fit the free space they leave, as it would had they been
        admitted already."""
        version, attribute, chunk, _, _, _, out = task
        record = snap.record
        if self.cache.enabled:
            out = None      # a cache entry must own its bytes
            cached = self.cache.get(
                (record.array_id, version, attribute, chunk.name))
            if cached is not None:
                if scope is not None:
                    scope[version] = cached
                return cached
        # Past the cache hit that most reads end at, which the size
        # arithmetic must not slow.
        stop_at = {} if scope is None else scope
        chain, base_version = self._locate_chain(snap, version,
                                                 attribute, chunk, stop_at)
        admits = 0
        warm_fill = False
        if self.cache.enabled:
            nbytes = chunk.cell_count \
                * record.schema.attribute(attribute).dtype.itemsize
            warm_fill = len(chain) > 1 and \
                self.cache.fits(admitting + len(chain) * nbytes)
            admits = len(chain) * nbytes if warm_fill else nbytes
        base = None if base_version is None else stop_at[base_version]
        if scope is not None and chain:     # mark what its decode resolves
            resolves = chain if warm_fill else \
                chain[:1] + chain[-1:] * (base_version is None)
            scope.update(dict.fromkeys(
                [level.version for level in resolves]))
        return _Miss(snap, version, attribute, chunk, task, chain,
                     base_version, base, warm_fill, out, admits)

    def _decode(self, miss: _Miss
                ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """The pool's stage: read, decompress and fold one planned
        miss.  Returns the chunk and every version it resolved on the
        way (deepest first); touches no cache and no scope.

        The chain is read in one batch and, where the kernels take it,
        decoded in one native call (:meth:`_decode_in_one_call`).
        Anything they decline is decoded the long way below, from the
        same payloads: the one that names a corrupt payload."""
        record, chunk = miss.snap.record, miss.chunk
        chain = list(miss.chain)
        # Read — the whole chain, one open per distinct object.
        payloads = self.store.read_chunks(
            [chunk_record.location for chunk_record in chain])
        decoded = self._decode_in_one_call(miss, payloads)
        if decoded is not None:
            return decoded

        # Decompress the materialized root (or start from the
        # already-resolved version the chain stopped at).  A one-version
        # read only ever *reads* its root (it is copied to where the
        # levels are applied) and never admits it, so the decompress
        # may hand back a zero-copy read-only view of the payload
        # bytes; a warm fill admits the root and gets an owning copy.
        resolved: dict[int, np.ndarray] = {}
        root = chain.pop() if miss.base_version is None else None
        codecs = self._codecs(record, chunk, chain)
        if root is None:
            data = miss.base
        else:
            data = self._decode_root(miss, root, payloads.pop())
            resolved[root.version] = data

        # Fold — level by level on a warm fill, else the whole chain
        # onto one copy of the root.  The resolved version itself has
        # nothing to fold onto it.
        if miss.warm_fill:
            for level, codec, payload in zip(reversed(chain),
                                             reversed(codecs),
                                             reversed(payloads)):
                cells = data.copy()
                self._fold(record, chunk, [level], [codec], [payload],
                           data, cells)
                resolved[level.version] = data = cells
        elif root is not None or chain:
            data = self._fused_apply(record, chunk, chain, codecs,
                                     payloads, data, miss.out)
            resolved[miss.version] = data
        return data, resolved

    def _decode_in_one_call(self, miss: _Miss, payloads: list
                            ) -> tuple[np.ndarray, dict] | None:
        """:meth:`_decode`'s result from one native call per chunk
        (:class:`~repro.core.native.ChunkFold`, a call per version on
        a warm fill), or None to decode the long way.

        The kernel takes the base — the root payload of the ``none``
        compressor, checked against the header the chunk implies, or
        the cells a held layer resolved — and every level's whole
        payload, checked against the frame the chunk implies and, for
        hybrid, a seal byte that says "no LZ".  It copies the base into
        the cells it folds in (none when a held base is folded in
        place), folds every level and copies the cells into the canvas
        window: the cells are the window when it is contiguous, else
        this thread's chunk buffer.  It declines — before it writes
        anything — an ``lz`` root, an LZ-sealed level, a frame spelled
        the long way and a cell type it has no kernel for; a malformed
        level fails it part-way.  Either way the long way runs, on
        cells of its own, and raises the error that names the payload.
        """
        chain = miss.chain
        if miss.base_version is None:
            if chain[-1].compressor != "none":
                return None
            base, levels, payloads = payloads[-1], chain[:-1], payloads[:-1]
        elif chain:
            base, levels = miss.base, chain
        else:
            return None     # the version in hand is the chunk
        layouts = [_FOLD_LAYOUTS.get(level.delta_codec) for level in levels]
        if None in layouts:
            return None
        dtype = miss.snap.record.schema.attribute(miss.attribute).dtype
        fold = chunk_fold(dtype, miss.chunk.shape)
        if fold is None:
            return None
        shape = fold.shape
        resolved: dict[int, np.ndarray] = {}
        if miss.warm_fill:
            data = base
            if miss.base_version is None:
                data = np.empty(shape, dtype)
                if not fold(base, (), (), data):
                    return None
                resolved[chain[-1].version] = data
            for level, payload, layout in zip(reversed(levels),
                                              reversed(payloads),
                                              reversed(layouts)):
                cells = np.empty(shape, dtype)
                if not fold(data, (payload,), (layout,), cells):
                    return None
                resolved[level.version] = data = cells
            return data, resolved
        out = miss.out
        if out is None or out.dtype != dtype or out.shape != shape:
            out = np.empty(shape, dtype)
        if out.flags.c_contiguous:
            cells, window = out, None
        elif levels:
            cells, window = self._chunk_buffer(dtype, shape), out
        else:
            cells, window = None, out
        if not fold(base, payloads, layouts, cells, window):
            return None
        if levels:
            self.store.stats.record_chain_fused(
                len(levels), sum([bool(layout & native.FOLD_TABLE)
                                  for layout in layouts]))
            if miss.base_version is None:
                # The root, for a later layer of a stack folding onto
                # it: a read-only view of its payload, as the long way
                # hands on.
                resolved[chain[-1].version] = np.frombuffer(
                    base, dtype, fold.count,
                    len(base) - fold.count * dtype.itemsize).reshape(shape)
        resolved[miss.version] = out
        return out, resolved

    def _decode_run(self, run: list[_Miss]) -> list:
        """The pool's task: decode a run of planned misses in turn —
        one miss, or one chunk's layers of a stack, each folding onto
        versions the ones before it resolved — and place each in its
        canvas.  A version the run resolves is held only while a later
        miss still folds onto it.  With the cache off nothing will
        admit it, so the last such miss folds in place on it when the
        run allocated it, and a stack holds about one chunk per running
        run, whatever its depth.  Returns, per miss, ``(chunk,
        resolved)`` for the calling thread to admit or hand out, or
        None once placed with the cache off."""
        waiting = Counter(miss.base_version for miss in run)
        held: dict[int, np.ndarray] = {}
        results = []
        for miss in run:
            if miss.base_version in held:
                waiting[miss.base_version] -= 1
                if waiting[miss.base_version]:
                    miss.base = held[miss.base_version]
                else:
                    miss.base = held.pop(miss.base_version)
                    if not self.cache.enabled and miss.out is None \
                            and miss.base.flags.owndata \
                            and miss.base.flags.writeable:
                        miss.out = miss.base    # its last use: in place
            data, resolved = self._decode(miss)
            miss.base = miss.out = None     # held keeps what is needed
            _, _, _, src, dst, canvas, window = miss.task
            if canvas is not None and data is not window:
                canvas[dst] = data[src]
            held.update((version, cells) for version, cells
                        in resolved.items() if waiting[version])
            results.append(None if canvas is not None
                           and not self.cache.enabled
                           else (data, resolved))
        return results

    def _admit(self, miss: _Miss, data: np.ndarray,
               resolved: dict[int, np.ndarray]) -> np.ndarray:
        """Calling thread, in task order: cache what a miss decoded;
        returns the chunk.

        Each entry is admitted only while its version is still the one
        the catalog publishes: a read pinned before a ``delete_version``
        swap must not cache the deleted version under a number the next
        insert reuses.  A warm fill's intermediates go first, deepest
        first, and only into free space."""
        if not self.cache.enabled:
            return data
        publishes = self.catalog.publishes
        array_id, attribute = miss.snap.record.array_id, miss.attribute
        if miss.warm_fill:
            for version, cells in resolved.items():
                if version != miss.version:
                    self.cache.put(
                        (array_id, version, attribute, miss.chunk.name),
                        cells, evict=False,
                        valid=partial(publishes, miss.snap, version))
        self.cache.put((array_id, miss.version, attribute,
                        miss.chunk.name), data,
                       valid=partial(publishes, miss.snap, miss.version))
        return data

    def _locate_chain(self, snap: ArraySnapshot, version: int,
                      attribute: str, chunk: ChunkRef,
                      stop_at: dict[int, np.ndarray]
                      ) -> tuple[list[ChunkRecord], int | None]:
        """The plan's walk: one chunk's delta chain in the read's pinned
        snapshot (:meth:`ArraySnapshot.walk_chain`) — no SQL, no lock.

        Returns the chunk records from ``version`` downwards and the
        version the walk stopped at, or None when it reached the
        materialized root (then the last record).  ``stop_at`` maps
        resolved versions to their contents: the walk ends at the first
        version found there or in the chunk cache (which is then
        recorded into it).  A base with no row raises
        :class:`VersionNotFoundError`; a chain that loops, a
        :class:`StorageError`.
        """
        array_id = snap.record.array_id
        chain: list[ChunkRecord] = []
        for row in snap.walk_chain(version, attribute, chunk.name):
            if row.version not in stop_at and self.cache.enabled \
                    and row.version != version:
                cached = self.cache.peek((array_id, row.version,
                                          attribute, chunk.name))
                if cached is not None:
                    stop_at[row.version] = cached
            if row.version in stop_at:
                return chain, row.version
            chain.append(row)
        if chain[-1].base_version is not None:
            raise StorageError(
                f"delta cycle detected for {snap.record.name!r} "
                f"chunk {chunk.name} at version {chain[-1].base_version}")
        return chain, None

    @staticmethod
    def _decode_root(miss: _Miss, root: ChunkRecord, payload) -> np.ndarray:
        """Decompress a chain's materialized root: a zero-copy read-only
        view where the compressor allows and the read only reads it, an
        owning copy on a warm fill (it is admitted).  A root that does
        not decode to the chunk's dtype and shape is refused — array,
        version and chunk named — before anything is sized from it."""
        record, chunk = miss.snap.record, miss.chunk
        dtype = record.schema.attribute(miss.attribute).dtype
        named = f"{record.name!r} version {root.version} chunk {chunk.name}"
        try:
            codec = get_codec(root.compressor)
            data = codec.decode(payload) if miss.warm_fill \
                else codec.decode_view(payload)
        except CodecError as exc:
            raise CodecError(f"{named}: {exc}") from exc
        if (data.dtype, data.shape) != (dtype, chunk.shape):
            raise CodecError(
                f"{named}: root ({data.dtype}, {data.shape}) does not "
                f"match the chunk ({dtype}, {chunk.shape})")
        return data

    @staticmethod
    def _codecs(record: ArrayRecord, chunk: ChunkRef,
                chain: list[ChunkRecord]) -> list:
        """The delta codecs of the located levels, in chain order.  A
        level naming no store codec (one a store written before the
        comparison codecs left it may name) raises :class:`CodecError`
        naming array, version and chunk."""
        codecs = []
        for level in chain:
            try:
                codecs.append(get_delta_codec(level.delta_codec))
            except CodecError as exc:
                raise CodecError(
                    f"{record.name!r} version {level.version} "
                    f"chunk {chunk.name}: {exc}") from exc
        return codecs

    @staticmethod
    def _fold(record: ArrayRecord, chunk: ChunkRef,
              chain: list[ChunkRecord], codecs: list,
              payloads: list, base: np.ndarray, cells: np.ndarray) -> None:
        """Fold ``chain``'s levels into ``cells``, which hold ``base``'s
        (:func:`repro.delta.base.fold_chain`); a malformed level is
        named — array, version, chunk — in the :class:`CodecError`."""
        try:
            fold_chain(codecs, payloads, base, cells)
        except DeltaLevelError as exc:
            level = chain[exc.level]
            raise CodecError(
                f"{record.name!r} version {level.version} "
                f"chunk {chunk.name}: corrupt "
                f"{level.delta_codec} delta: {exc}") from exc

    def _fused_apply(self, record: ArrayRecord, chunk: ChunkRef,
                     chain: list[ChunkRecord], codecs: list,
                     payloads: list[bytes], base: np.ndarray,
                     out: np.ndarray | None) -> np.ndarray:
        """The long way of a one-version read, for a chunk the native
        call declined or failed on: the decoded root with every level
        of ``chain`` folded onto it (:func:`repro.delta.base.fold_chain`),
        in ``out`` when the caller lent its canvas window, else in a
        buffer of its own.

        The fold runs on contiguous cells, chosen as the native call
        chooses them.  A contiguous ``out`` (or a buffer of its own) is
        folded in place.  A strided window is not: its rows sit a
        canvas row apart, so they crowd into a few L2 sets and miss on
        every level.  The root is copied into this thread's chunk
        buffer instead, folded there while it stays in L2, and copied
        into the window once.  That measures faster even for chunks
        far larger than L2, whose buffer is not kept.

        Everything is sized from the decoded root, never from a
        payload's frame: a level whose header disagrees with the
        root's dtype or shape fails its frame check before anything is
        folded, and a malformed one is named — array, version, chunk —
        in the error.  Compose order is irrelevant (wrapping addition
        and xor are associative *and* commutative), so levels fold in
        read order.
        """
        if out is None or (out.dtype, out.shape) != \
                (base.dtype, base.shape):
            out = np.empty(base.shape, dtype=base.dtype)
        cells = out if out.flags.c_contiguous or not chain \
            else self._chunk_buffer(base.dtype, base.shape)
        np.copyto(cells, base)
        if chain:
            self._fold(record, chunk, chain, codecs, payloads, base, cells)
            self.store.stats.record_chain_fused(
                len(chain), sum(codec.scatters for codec in codecs))
        if cells is not out:
            np.copyto(out, cells)
        return out

    def _chunk_buffer(self, dtype: np.dtype,
                      shape: tuple[int, ...]) -> np.ndarray:
        """Contiguous cells of ``dtype`` and ``shape``: this thread's
        chunk buffer, grow-only up to :data:`_KEPT_FOLD_BYTES` so the
        fold allocates nothing per chunk, else cells of the chunk's
        own."""
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > _KEPT_FOLD_BYTES:
            return np.empty(shape, dtype)
        buffer = getattr(self._buffers, "cells", None)
        if buffer is None or buffer.nbytes < nbytes:
            buffer = self._buffers.cells = np.empty(nbytes, np.uint8)
        return buffer[:nbytes].view(dtype).reshape(shape)

    # ------------------------------------------------------------------
    # Stage 5: assembly
    # ------------------------------------------------------------------
    def read_region(self, snap: ArraySnapshot, version: int | list[int],
                    lo: tuple[int, ...], hi: tuple[int, ...], *,
                    out: dict | None = None) -> ArrayData | None:
        """Assemble the zero-based box [``lo``, ``hi``] (inclusive) of
        one version, every chunk located in the pinned snapshot
        ``snap``: one :class:`ReadPlan`, executed — the one read every
        select form is made of.

        ``out`` maps attribute names to box-shaped canvases, which may
        be strided windows of a larger canvas: the attributes it names
        are assembled there and None is returned.  Without it every
        attribute lands in a fresh canvas, returned as an
        :class:`ArrayData` of the box — except when one chunk covers
        the box: then each attribute is that chunk's cells cut to the
        box, read-only, which views the chunk only when the box spans
        whole rows of it (else :class:`ArrayData` copies it once), so
        no cached chunk can be written through the result.  A list of
        versions reads each one's box into a layer: ``out`` maps one
        attribute to one canvas per listed version
        (:meth:`_read_stack`).

        A chunk lying wholly inside the box is lent its window of the
        canvas (:meth:`_fused_apply`): a folded chain lands there from
        the fold itself, and only results that live elsewhere (cache
        entries, warm fills) are copied in.  A chunk the box cuts is
        decoded into cells of its own and its overlap copied.
        """
        plan = ReadPlan(snap.record, lo, hi)
        if isinstance(version, list):
            (attribute, layers), = out.items()
            self._read_stack(snap, plan, version, attribute, layers)
            return None
        schema = plan.schema
        if out is None and len(plan.parts) == 1:
            (chunk, src, _, _), = plan.parts
            tasks = [(version, attr.name, chunk, src, None, None, None)
                     for attr in schema.attributes]
            return ArrayData(schema, {
                task[1]: data[src] for task, data in zip(
                    tasks, self._resolve(snap, [[task] for task in tasks]))})
        canvases = out if out is not None else {
            attr.name: np.empty(schema.shape, dtype=attr.dtype)
            for attr in schema.attributes}
        for _ in self._resolve(snap, [
                [(version, attr.name, chunk, src, dst, canvases[attr.name],
                  canvases[attr.name][dst] if inside else None)]
                for attr in schema.attributes if attr.name in canvases
                for chunk, src, dst, inside in plan.parts]):
            pass
        return None if out is not None else ArrayData(schema, canvases)

    def _resolve(self, snap: ArraySnapshot, groups: list[list[tuple]]):
        """The chunk of every ``(version, attribute, chunk, src, dst,
        canvas, window)`` task of one snapshot, in task order, each
        placed in its canvas (``canvas[dst] = chunk[src]``) unless it
        landed in its ``window`` — the one executor of every read.

        A group is tasks of one chunk that may fold onto each other
        (one stacked chunk's layers, ascending), planned in one scope
        (:meth:`_plan`); a task no other needs is a group of its own.
        Every task is planned first, on this thread, each warm-fill
        choice counting the bytes the read's misses before it will
        admit; a hit is placed at once.  Each group's misses are then
        one run (:meth:`_decode_run`) of one ordered window
        (:func:`fan.ordered`), and are admitted here in task order.
        Returns a list when the cache answered every task, else a
        generator yielding each chunk as it is admitted (None for one a
        cache-off decode placed).  A chunk that fails (a corrupt
        payload) settles the window before its error leaves."""
        planned, runs, admitting = [], [], 0
        for group in groups:
            scope = {} if len(group) > 1 else None
            run = []
            for task in group:
                got = self._plan(snap, task, scope, admitting)
                if type(got) is _Miss:
                    admitting += got.admits
                    run.append(got)
                else:
                    _, _, _, src, dst, canvas, window = task
                    if canvas is not None and got is not window:
                        canvas[dst] = got[src]
                planned.append(got)
            if run:
                runs.append(run)
        return self._admitted(planned, runs) if runs else planned

    def _admitted(self, planned: list, runs: list[list[_Miss]]):
        with closing(fan.ordered(self._decode_run, runs)) as decoded:
            results = (result for run in decoded for result in run)
            for got in planned:
                if type(got) is _Miss:
                    result = next(results)
                    got = None if result is None else \
                        self._admit(got, *result)
                yield got

    def _read_stack(self, snap: ArraySnapshot, plan: ReadPlan,
                    versions: list[int], attribute: str,
                    layers: list[np.ndarray]) -> None:
        """Read ``plan``'s box of every version in ``versions`` into
        its layer: one :meth:`_resolve` whose groups are the chunks.

        Per chunk the versions are planned in ascending order into one
        scope, a walk stopping where an earlier layer resolves, so on a
        linear chain every walk stops at the version before it and a
        range over a chain reads each payload once — the paper's Table
        IV range selects.  Each chunk's misses are one run of the read's
        one fan batch; a layer folds into cells of its own, which the
        next layer folding onto it reads (or, with the cache off, takes
        over), and is copied into its canvas."""
        order = sorted(range(len(versions)), key=versions.__getitem__)
        for _ in self._resolve(snap, [
                [(versions[layer], attribute, chunk, src, dst,
                  layers[layer], None) for layer in order]
                for chunk, src, dst, _ in plan.parts]):
            pass


def overlap_slices(chunk: ChunkRef, lo: tuple[int, ...],
                   hi: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Slices mapping a chunk's cells into a query region canvas.

    Returns ``(src, dst)`` where ``src`` indexes within the chunk array
    and ``dst`` within the region-shaped output canvas.
    """
    src, dst = [], []
    for c_lo, c_hi, r_lo, r_hi in zip(chunk.lo, chunk.hi, lo, hi):
        start = c_lo if c_lo > r_lo else r_lo
        stop = (c_hi if c_hi < r_hi else r_hi) + 1
        src.append(slice(start - c_lo, stop - c_lo))
        dst.append(slice(start - r_lo, stop - r_lo))
    return tuple(src), tuple(dst)
