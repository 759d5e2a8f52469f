"""Explicit encode/decode pipelines between the manager and the store.

Figure 1 draws the insert and select paths as staged flows; the seed
implementation fused both into ``VersionedStorageManager``.  This module
makes the stages first-class:

* :class:`EncodePipeline` — the insert path, staged as **plan**
  (enumerate one encode task per (attribute, chunk) with its target and
  base slices), **encode** (delta-encode against the policy-selected
  base and compress, fanned across a shared thread pool when
  ``workers`` > 1), and **commit** (place every payload in the chunk
  store in task order from the calling thread, raise the backend's
  durability barrier, then record all encoding decisions in the
  Version Metadata in one transaction);
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

They also own the store's CPU concurrency — all of it.  ``workers`` is
one fan per direction, both through one ordered sliding window
(:meth:`_PooledStage._ordered`): encode blocks on the way in, per-chunk
reconstructions on the way out.  Nothing below fans again — a task
reads its chain and the consuming thread places its payload serially —
so no pool ever waits on another, and an operation that raises first
cancels or waits out every task it started.

Two invariants both pipelines are built around:

* **Byte identity across acceleration.**  Every fast path — the chain
  fold at the cell's own width and the compiled kernels in
  :mod:`repro.core.native` — must produce exactly the bytes of the
  plain numpy, level-by-level decode.  Store fingerprints may never
  depend on ``REPRO_NATIVE``, worker count, or whether an insert's
  base canvas came from the manager's hot slot or a ``select``.
* **Graceful fallback.**  Each compiled kernel gates itself on dtype
  and layout and returns ``None``/raises nothing when it does not
  apply; the caller falls back to the numpy form silently.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass
from functools import partial
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
from repro.delta.base import fold_chain
from repro.delta.registry import get_delta_codec
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


def resolve_workers(workers: int | None) -> int:
    """Resolve a ``workers`` knob to a concrete parallelism degree.

    ``None`` defers to the ``REPRO_WORKERS`` environment variable (the
    CI matrix runs the suite under several degrees this way); 0 and 1
    both mean the serial path.  Malformed or negative values are
    rejected loudly — a misconfigured environment silently falling
    back to serial would make a parallel CI cell test nothing — and,
    like :func:`ensure_policy`, callers validate before creating
    durable state.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "0")
        try:
            workers = int(raw)
        except ValueError:
            raise StorageError(
                f"REPRO_WORKERS must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise StorageError(f"workers must be >= 0, got {workers}")
    return workers


class ChunkCache:
    """Bytes-bounded LRU of decoded chunks, keyed by
    ``(array_id, version, attribute, chunk_name)``.

    ``max_bytes`` is the one budget; zero disables the cache entirely
    (:attr:`enabled`).  Hits and misses are mirrored into the attached
    :class:`IOStats` so cache effectiveness appears next to the I/O it
    avoided.

    Every operation holds an internal lock: the decode pipeline's
    parallel per-chunk fan-out shares one cache across threads, and the
    byte accounting and hit/miss counters must stay exact under
    concurrency.  A single entry larger than ``max_bytes`` is never
    admitted (admitting it would evict the entire cache, itself
    included); rejections are counted and reported by :meth:`info`.

    Admission comes in two strengths: the version a read asked for may
    evict least-recently-used entries (:meth:`put`); the intermediates
    a warm fill decoded on the way only ever take free space
    (``put(..., evict=False)``), so they can never displace a demanded
    entry however parallel readers interleave with :meth:`fits`.
    """

    def __init__(self, max_bytes: int = 0,
                 stats: IOStats | None = None):
        self.max_bytes = max_bytes
        self.stats = stats
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.oversized = 0
        self.prefetched = 0
        self.prefetch_declined = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if self.stats is not None:
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
            self.hits += 1
        if self.stats is not None:
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
        entry it admitted."""
        with self._lock:
            if valid is not None and not valid():
                return
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
                "hits": self.hits,
                "misses": self.misses,
                "oversized": self.oversized,
                "prefetched": self.prefetched,
                "prefetch_declined": self.prefetch_declined,
            }


class _PooledStage:
    """Shared executor machinery for the encode and decode pipelines.

    Each pipeline owns one thread pool of ``workers`` threads, created
    lazily by the first call that fans out.
    """

    _pool_prefix = "repro-stage"

    def _init_pool(self, workers: int) -> None:
        self.workers = workers
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()

    def close(self) -> None:
        """Shut down the shared executor (idempotent)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def _pool(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix=self._pool_prefix)
            return self._executor

    def _ordered(self, function, items: list):
        """Yield ``function(item)`` for every item, in item order.

        Inline at ``workers`` <= 1.  Otherwise a sliding window of
        ``workers + 1`` calls is in flight on the pool: each time the
        consumer takes the oldest result, the next item is submitted,
        so at most ``i + workers + 2`` calls have started when item
        ``i``'s result (or error) reaches the consumer, and what is in
        flight stays bounded by the window rather than the operation.
        Closing the generator early (the consumer failed) or an error
        settles the window first: see :meth:`_abandon`.
        """
        if self.workers <= 1 or len(items) <= 1:
            for item in items:
                yield function(item)
            return
        pool = self._pool()
        pending = iter(items)
        window: deque = deque(
            pool.submit(function, item)
            for item in itertools.islice(pending, self.workers + 1))
        try:
            while window:
                future = window.popleft()
                for item in itertools.islice(pending, 1):
                    window.append(pool.submit(function, item))
                yield future.result()
        finally:
            self._abandon(window)

    @staticmethod
    def _abandon(futures) -> None:
        """Cancel the tasks that have not started and wait for those
        that have, so nothing of an operation that is about to raise
        keeps running — bumping counters, writing into a canvas nobody
        holds — after it has."""
        for future in futures:
            future.cancel()
        wait(futures)


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


class EncodePipeline(_PooledStage):
    """The insert path: plan → encode → place → barrier (Figure 1,
    left); the manager commits the rows it returns.

    Chunk encoding (delta against the base slice, then compress) is
    CPU-bound and independent per chunk, so the encode stage fans tasks
    across a shared thread-pool executor when ``workers`` > 1 — the
    write-side mirror of :class:`DecodePipeline`'s per-chunk fan-out.
    The place stage does not fan: the calling thread places each
    decision as it arrives, in task order, while the encode window
    keeps later blocks in flight — so placement overlaps encoding, and
    every backend sees its writes in the same order at every worker
    count (co-located append offsets, stored bytes, catalog rows and
    a seeded fault schedule all replay exactly).
    """

    _pool_prefix = "repro-encode"

    def __init__(self, catalog: MetadataCatalog, store: ChunkStore, *,
                 delta_policy: str = POLICY_CHAIN,
                 delta_codec: str = "hybrid",
                 workers: int = 0):
        ensure_policy(delta_policy)
        self.catalog = catalog
        self.store = store
        self.delta_policy = delta_policy
        self.delta_codec_name = delta_codec
        # One run-list buffer per encoding thread, reused chunk after
        # chunk: a plan's run list is dead once its decision (pure
        # bytes) is returned, and a task runs on one thread.
        self._scratch = threading.local()
        self._init_pool(workers)

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
        per worker, so fine-grained grids do not pay one dispatch per
        tiny chunk) and runs them through the ordered window
        (:meth:`_ordered`) — the commit stage downstream consumes
        decisions exactly as the serial loop produced them, placement
        of early chunks overlaps the encoding of later ones, and the
        encoded-payload memory in flight stays bounded by the window
        rather than the whole version.
        """
        step = -(-len(tasks) // (self.workers * 4)) \
            if self.workers > 1 else 1  # ceil division

        def encode_block(block: list[EncodeTask]):
            return [self._encode_task(task, data, base_data, compressor,
                                      canvas)
                    for task in block]

        blocks = [tasks[i:i + step] for i in range(0, len(tasks), step)]
        with closing(self._ordered(encode_block, blocks)) as decisions:
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
                     canvas: dict[str, np.ndarray] | None = None
                     ) -> list[ChunkRecord]:
        """Plan, encode and place every task of one version; the
        :class:`ChunkRecord` rows, in task order.

        The calling thread places each decision the moment the encode
        stage yields it, so placements reach the backend one at a time
        in canonical task order whatever ``workers`` is — while the
        encode window keeps the following blocks in flight.  Each
        placement lands beside the ``committed`` row it supersedes,
        never on its bytes.
        """
        compressor = get_codec(record.compressor)
        tasks = self.plan_version(record, grid)
        supersedes = {(chunk.attribute, chunk.chunk_name): chunk.location
                      for chunk in committed}
        records = []
        with closing(self._encode_tasks(tasks, data, base_data,
                                        compressor, canvas)) as decisions:
            for task, decision in zip(tasks, decisions):
                location = self.store.write_chunk(
                    record.name, version, task.attribute,
                    task.chunk.name, decision.parts,
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
                      canvas: dict[str, np.ndarray] | None = None
                      ) -> list[ChunkRecord]:
        """Plan, encode, place and barrier every chunk of a *new*
        version (a committed one raises :class:`NoOverwriteError`) and
        return the rows for the caller to commit.  ``base_data`` is the
        base's contents (None to materialize).  ``canvas`` is the
        writable arrays ``base_data`` views:
        each chunk is then encoded against its window of them in place
        and leaves the window holding ``data``'s cells, so after the
        last chunk the canvas *is* this version.  A failure leaves only
        bytes no row names — and a canvas partly overwritten.  The
        chunk cache is not touched.
        """
        if record.array_id is not None and \
                self.catalog.chunks_for_version(record.array_id, version):
            raise NoOverwriteError(
                f"version {version} of {record.name!r} already exists")
        records = self._place_tasks(record, grid, version, data,
                                    base_data, base_version, [], canvas)
        # No row may name bytes a crash would lose; on the object backend
        # this completes every multipart upload the version staged.
        self.store.sync_chunks([chunk.location for chunk in records])
        return records


class DecodePipeline(_PooledStage):
    """The select path: locate → read chain → decompress → fold →
    assemble (Figure 1, right; Figure 2's read pattern).

    Per-chunk reconstruction is independent (each chunk walks its own
    delta chain with its own scope), so :meth:`read_version` and
    :meth:`read_region` fan chunks across a shared thread-pool executor
    when ``workers`` > 1.  Assembly stays deterministic: every chunk
    writes a disjoint region of the output canvas, so the result is
    byte-identical to the serial pass regardless of completion order.

    There is one way to decode a delta level: fold it into cells that
    hold its base (:func:`repro.delta.base.fold_chain`).  Every store
    delta codec composes — wrapping addition, xor — so levels apply in
    place, at the cells' own width, sparse/hybrid levels at O(nnz).  A
    cache miss does one of two jobs with it, chosen per chunk from what
    the code can observe (the located chain's size, the cache's free
    space), not from a setting:

    * **Read one version** (the default).  The decoded root is copied
      once into contiguous cells and the whole chain folds onto them
      in one compiled call.  The cells are the caller's canvas window
      when that is contiguous and nothing else will hold on to it, a
      buffer of the chunk's own when the cache will, and otherwise the
      decoding thread's chunk buffer, copied into the strided window
      once after the fold.  Only the requested version is admitted to
      the cache.
    * **Warm-fill a chain.**  When every located level fits the
      cache's *free* space, each level is folded into an owning copy
      of the one before, and every intermediate version is admitted
      too, through the non-evicting put: later reads of those versions
      are hits, and no entry a caller asked for is ever displaced.  A
      chain that does not fit is declined and read as one version.

    The walk probes the cache at every level, so a cached ancestor
    ends it and only the suffix is read.  Both jobs read the same
    payloads, produce the same bytes, and name a corrupt level the
    same way: array, version and chunk.
    """

    _pool_prefix = "repro-decode"

    def __init__(self, catalog: MetadataCatalog, store: ChunkStore, *,
                 cache: ChunkCache | None = None,
                 workers: int = 0):
        self.catalog = catalog
        self.store = store
        self.cache = cache if cache is not None else ChunkCache()
        # One chunk buffer per decoding thread (see _fused_apply).
        self._buffers = threading.local()
        self._init_pool(workers)

    def reconstruct(self, snap: ArraySnapshot, version: int,
                    attribute: str, chunk: ChunkRef,
                    scope: dict[int, np.ndarray] | None = None, *,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Unwind the delta chain of one chunk (Figure 2's read pattern).

        The chain is located in ``snap``, the caller's pinned snapshot.
        ``scope`` maps already-resolved versions of this chunk to their
        contents; chains stop as soon as they reach a resolved version,
        so multi-version queries share the work of common prefixes.  The
        whole chain is read in one batched pass — for co-located
        placement that is a single backend open regardless of depth.

        ``out`` is where the caller will put the chunk anyway (its
        window of the version's canvas).  A folded read the cache
        will not keep is written right there and ``out`` itself
        returned; every other result is an array of its own that the
        caller copies, as without ``out``.
        """
        record = snap.record
        if scope is None:
            scope = {}
        key = (record.array_id, version, attribute, chunk.name)
        if self.cache.enabled:
            out = None      # a cache entry must own its bytes
            cached = self.cache.get(key)
            if cached is not None:
                scope[version] = cached
                return cached

        # Stage 1: locate, and pick the job — past the cache hit that
        # most reads end at, which the size arithmetic must not slow.
        chain, base_version = self._locate_chain(snap, version,
                                                 attribute, chunk, scope)
        warm_fill = self.cache.enabled and len(chain) > 1 and \
            self.cache.fits(
                len(chain) * chunk.cell_count
                * record.schema.attribute(attribute).dtype.itemsize)

        # Stage 2: read — the whole chain, one open per distinct object.
        payloads = self.store.read_chunks(
            [chunk_record.location for chunk_record in chain])

        # Stage 3: decompress the materialized root (or start from the
        # already-resolved version the chain stopped at).  A one-version
        # read only ever *reads* its root (it is copied to where the
        # levels are applied) and never admits it, so the decompress
        # may hand back a zero-copy read-only view of the payload
        # bytes; a warm fill admits the root and gets an owning copy.
        resolved: list[int] = []
        root = chain.pop() if base_version is None else None
        codecs = self._codecs(record, chunk, chain)
        if root is None:
            data = scope[base_version]
        else:
            codec = get_codec(root.compressor)
            data = codec.decode(payloads.pop()) if warm_fill \
                else codec.decode_view(payloads.pop())
            scope[root.version] = data
            resolved.append(root.version)

        # Stage 4: fold — level by level on a warm fill, else the whole
        # chain onto one copy of the root.  The resolved version itself
        # has nothing to fold onto it.
        if warm_fill:
            for level, codec, payload in zip(reversed(chain),
                                             reversed(codecs),
                                             reversed(payloads)):
                cells = data.copy()
                self._fold(record, chunk, [level], [codec], [payload],
                           data, cells)
                scope[level.version] = data = cells
                resolved.append(level.version)
        elif root is not None or chain:
            data = self._fused_apply(record, chunk, chain, codecs,
                                     payloads, data, out)
            scope[version] = data

        if self.cache.enabled:
            # Each entry is admitted only while its version is still the
            # one the catalog publishes: a read pinned before a
            # ``delete_version`` swap must not cache the deleted
            # version under a number the next insert reuses.
            publishes = self.catalog.publishes
            if warm_fill:
                # Deepest first; a put drops if a parallel reader has
                # used the room since ``fits`` looked.
                for intermediate in resolved:
                    if intermediate != version:
                        self.cache.put(
                            (record.array_id, intermediate, attribute,
                             chunk.name), scope[intermediate],
                            evict=False,
                            valid=partial(publishes, snap, intermediate))
            self.cache.put(key, data,
                           valid=partial(publishes, snap, version))
        return data

    def _locate_chain(self, snap: ArraySnapshot, version: int,
                      attribute: str, chunk: ChunkRef,
                      stop_at: dict[int, np.ndarray]
                      ) -> tuple[list[ChunkRecord], int | None]:
        """Stage 1: one chunk's delta chain, walked in the read's pinned
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
        """The materialized root with every level of ``chain`` folded
        onto it (:func:`repro.delta.base.fold_chain`), in ``out`` when
        the caller lent its canvas window, else in a buffer of its own.

        The fold runs on contiguous cells.  A contiguous ``out`` (or a
        buffer of its own) is folded in place.  A strided window is
        not: its rows sit a canvas row apart, so they crowd into a few
        L2 sets and miss on every level.  The root is copied into this
        thread's chunk buffer instead, folded there while it stays in
        L2, and copied into the window once.  That measures faster
        even for chunks far larger than L2, whose buffer is not kept.

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
            else self._chunk_buffer(base)
        np.copyto(cells, base)
        if chain:
            self._fold(record, chunk, chain, codecs, payloads, base, cells)
            self.store.stats.record_chain_fused(
                len(chain), sum(codec.scatters for codec in codecs))
        if cells is not out:
            np.copyto(out, cells)
        return out

    def _chunk_buffer(self, like: np.ndarray) -> np.ndarray:
        """Contiguous cells shaped like ``like``: this thread's chunk
        buffer, grow-only up to :data:`_KEPT_FOLD_BYTES` so the fold
        allocates nothing per chunk, else cells of the chunk's own."""
        if like.nbytes > _KEPT_FOLD_BYTES:
            return np.empty(like.shape, like.dtype)
        buffer = getattr(self._buffers, "cells", None)
        if buffer is None or buffer.nbytes < like.nbytes:
            buffer = self._buffers.cells = np.empty(like.nbytes, np.uint8)
        return buffer[:like.nbytes].view(like.dtype).reshape(like.shape)

    def close(self) -> None:
        """Shut down the pool and release every thread's chunk buffer."""
        super().close()
        self._buffers = threading.local()

    # ------------------------------------------------------------------
    # Stage 5: assembly
    # ------------------------------------------------------------------
    def read_version(self, array: ArraySnapshot | ArrayRecord,
                     grid: ChunkGrid, version: int) -> ArrayData:
        """Assemble the full contents of one version, every chunk
        located in ``array``'s snapshot — for a bare record the array's
        current one, taken once for the call.

        Every chunk is lent its window of the output canvas
        (``reconstruct(out=)``): a folded chain lands there from the
        fold itself and only results that live elsewhere (cache
        entries, warm fills) are copied in.
        """
        snap = array if isinstance(array, ArraySnapshot) \
            else self.catalog.snapshot(array.name)
        schema = snap.record.schema
        attributes = {attr.name: np.empty(schema.shape, dtype=attr.dtype)
                      for attr in schema.attributes}
        tasks = [(attr, chunk, attributes[attr.name][chunk.slices()])
                 for attr in schema.attributes
                 for chunk in grid.chunks()]
        for (attr, _, window), data in self._reconstruct_tasks(
                snap, version, tasks):
            if data is window:
                continue
            if data.shape == schema.shape:
                # A single chunk spanning the whole canvas *is* the
                # canvas: skip the copy.  ArrayData hands out only a
                # read-only view of it, so the contents are exactly as
                # immutable as the copied canvas was.
                attributes[attr.name] = data
            else:
                window[...] = data
        return ArrayData(schema, attributes)

    def read_region(self, snap: ArraySnapshot, grid: ChunkGrid,
                    version: int, lo: tuple[int, ...],
                    hi: tuple[int, ...]) -> ArrayData:
        """Assemble a zero-based hyper-rectangle of one version, every
        chunk located in the pinned snapshot ``snap``.

        When exactly one chunk covers the query, the reconstructed
        chunk already holds the answer: its sliced view is returned
        directly instead of copying through a region-shaped canvas
        (:class:`ArrayData` marks the views read-only, so cached chunk
        contents can never be mutated through the result; a slice
        spanning the whole chunk stays zero-copy).
        """
        from repro.core.array import _sliced_schema

        schema = snap.record.schema
        chunks = list(grid.chunks_overlapping(lo, hi))
        if len(chunks) == 1:
            src, _ = overlap_slices(chunks[0], lo, hi)
            tasks = [(attr, chunks[0], None)
                     for attr in schema.attributes]
            attributes = {
                attr.name: data[src]
                for (attr, _, _), data in self._reconstruct_tasks(
                    snap, version, tasks)
            }
            return ArrayData(_sliced_schema(schema, lo, hi), attributes)

        region_shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        tasks = [(attr, chunk, None) for attr in schema.attributes
                 for chunk in chunks]
        attributes = {
            attr.name: np.empty(region_shape, dtype=attr.dtype)
            for attr in schema.attributes
        }
        for (attr, chunk, _), data in self._reconstruct_tasks(
                snap, version, tasks):
            src, dst = overlap_slices(chunk, lo, hi)
            attributes[attr.name][dst] = data[src]
        return ArrayData(_sliced_schema(schema, lo, hi), attributes)

    def _reconstruct_tasks(self, snap: ArraySnapshot, version: int,
                           tasks: list):
        """Reconstruct every ``(attribute, chunk, out)`` task in one
        snapshot, yielding ``(task, chunk_data)`` pairs in task order.

        The tasks run through the ordered window (:meth:`_ordered`), so
        callers assemble canvases identically to the serial path; each
        chunk's scope is private and the ``out`` windows are disjoint,
        making the tasks fully independent.  A chunk that fails (a
        corrupt payload) settles the window before its error leaves.
        """
        def run(task):
            attr, chunk, out = task
            return self.reconstruct(snap, version, attr.name, chunk,
                                    out=out)

        with closing(self._ordered(run, tasks)) as results:
            yield from zip(tasks, results)


def overlap_slices(chunk: ChunkRef, lo: tuple[int, ...],
                   hi: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Slices mapping a chunk's cells into a query region canvas.

    Returns ``(src, dst)`` where ``src`` indexes within the chunk array
    and ``dst`` within the region-shaped output canvas.
    """
    src = []
    dst = []
    for c_lo, c_hi, r_lo, r_hi in zip(chunk.lo, chunk.hi, lo, hi):
        start = max(c_lo, r_lo)
        stop = min(c_hi, r_hi)
        src.append(np.s_[start - c_lo:stop - c_lo + 1])
        dst.append(np.s_[start - r_lo:stop - r_lo + 1])
    return tuple(src), tuple(dst)
