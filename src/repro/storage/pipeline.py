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
way in, a read's few decode batches on the way out, both through its
one ordered sliding window (:func:`~repro.storage.fan.ordered`).
Nothing below fans again — a batch reads its chains and the consuming
thread places its payload or admits its chunks serially — so no task
ever waits on another, no pool thread touches the chunk cache, and an
operation that raises first cancels or waits out every task it
started.

Two invariants both pipelines are built around:

* **Byte identity across acceleration.**  Every fast path — the chain
  fold at the cell's own width and the compiled kernels in
  :mod:`repro.core.native` — must produce exactly the bytes of the
  numpy forms.  Store fingerprints may never depend on
  ``REPRO_NATIVE``, the fan width, or whether an insert's base canvas
  came from the manager's hot slot or a ``select``.
* **One face per direction, each with its numpy form.**  A chunk is
  encoded by one call of :class:`~repro.core.native.ChunkEncode` and a
  batch of chunks decoded by one :class:`~repro.core.native.FoldBatch`
  run; where the C entry does not take a call (kernels off, a host or
  cell type it does not read, an empty chunk), the face runs its numpy
  form itself and says why once at debug.  No caller branches on
  whether a kernel runs.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, OrderedDict
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
    encode_chunk,
    materialize,
)
from repro.delta.base import (
    DeltaCodec,
    bare_levels,
    chunk_encode,
    chunk_fold,
)
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

#: The delta codecs the ``auto`` policy tries (the registry's own).
_DEFAULT_CANDIDATES = tuple(get_delta_codec(codec.name)
                            for codec in default_delta_candidates())

#: The largest chunk buffer a decoding thread keeps: an L2's worth.
_KEPT_FOLD_BYTES = 2 << 20

#: The fan's hand-off cost as decode work — payload bytes read plus
#: chunk bytes copied (:meth:`DecodePipeline._batches`): a read with
#: less work than this per lane, or per miss, runs as one batch on the
#: calling thread.  Measured on a shared 2-core x86-64 VM: one
#: ``fan.ordered`` item costs 22.4-24.6 us more at width 2 than inline
#: (2 000 rounds of 8 trivial items, five runs), and one batch decodes
#: 7.5-9.4 bytes per ns (16 chunks of 1 MiB int32, sparse chains of
#: depth 1-16, from memory, width 1): 23.5 us x 8.4 bytes/ns.  The
#: Python around one miss is about as long, 20-30 us.  The per-miss
#: half is measured where it decides: a stacked select of 16 versions
#: of a 512 x 512 int32 array with every batch fanned, against width 1
#: (median of 5 selects, 7-13 alternating rounds), took at chunks of
#: 16 / 64 / 128 KiB — below it — +2 / +5 / +7 % at width 2 and
#: +5 / +12 / +19 % at width 4 with the cache off, +3 / +5 % and
#: +5 / +11 % (16 and 128 KiB) cold cached; at 256 / 512 KiB — above
#: it — -16 / -3 % and -4 / -10 % cache off, -16 / -26 % and
#: -6 / -17 % cold cached.
_HANDOFF_BYTES = 197_000

#: The most decode work, in the same measure, one batch takes but for
#: its last run (:meth:`DecodePipeline._batches`): its payloads, and
#: the cells it allocates for the cache, are held together until it
#: returns, so what one lane holds is bounded by this, not by the read.
#: A batch more costs some 45 us at width 1 — its tables and call, and
#: the Python after a call that streamed the L2 out (16 chunks of 1 MiB
#: int32 from memory, depth 0, best of 30: one batch 1.95-2.01 ms, five
#: 2.09-2.22 ms) — under 4 % of the ~1.2 ms this much work takes there,
#: less on deeper chains.  At 1 MiB, one batch per 1 MiB chunk, the e2e
#: ``scan-deep`` workload ran 10-12 % fewer ops/s (8 and 6 alternating
#: runs).
_BATCH_BYTES = 16 << 20

#: Each store delta codec's levels as the one-call decode reads them
#: (:attr:`~repro.delta.base.DeltaCodec.fold_layout`); a codec it
#: cannot read as stored (``hybrid+lz``) is absent, and its levels go
#: to the call as bare sections.
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
        # One buffer per encoding thread for the one-call encode to
        # write a chunk's payload and run list into, reused chunk after
        # chunk: it is dead once the payload is copied out, and a task
        # runs on one thread.
        self._space = threading.local()

    @property
    def wants_base(self) -> bool:
        """Whether the policy ever deltas (the base version is worth
        reconstructing before encoding)."""
        return self.delta_policy != POLICY_MATERIALIZE

    def _candidates(self) -> tuple[DeltaCodec, ...]:
        """The delta codecs the policy tries on a chunk, in the
        race's order."""
        if self.delta_policy == POLICY_CHAIN:
            return (get_delta_codec(self.delta_codec_name),)
        return _DEFAULT_CANDIDATES

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

        A chunk with a delta base is decided and encoded by one call of
        the encode face (:func:`~repro.delta.auto.encode_chunk`),
        written into this thread's buffer and copied out once — in C,
        or in the face's numpy form where no kernel runs, to the same
        bytes; a chunk with no base is the compressor's encode
        (:func:`~repro.delta.auto.materialize`).  The representations
        sized but never produced are recorded in the store's counters.
        ``adopt`` leaves the writable ``base`` window holding
        ``target``'s cells.
        """
        if self.delta_policy == POLICY_MATERIALIZE or base is None:
            planned = materialize(target, compressor)
        else:
            encode = chunk_encode(target.dtype, target.shape,
                                  self._candidates())
            planned = encode_chunk(encode, target, base, compressor,
                                   adopt=adopt,
                                   space=self._space_for(encode.words))
        self.store.stats.record_encode_plan(planned.encodes_avoided,
                                            planned.bytes_saved)
        return planned.decision

    def _space_for(self, words: int) -> np.ndarray:
        """This thread's buffer of at least ``words`` uint64 words."""
        space = getattr(self._space, "words", None)
        if space is None or space.size < words:
            space = self._space.words = np.empty(words, dtype=np.uint64)
        return space

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
    known, the job chosen and its task's canvas window (None when the
    caller takes the chunk).  Nothing changes it once planned: the
    batch decoding it (:meth:`DecodePipeline._decode_batch`) keeps what
    it resolves on the side."""

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
    their place in the box; a read keys their cache entries
    ``(array_id, version, attribute, chunk name)``.  ``schema`` is the
    box's zero-based schema
    (:meth:`~repro.core.schema.ArraySchema.sliced`).

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
                (slice(None),) * len(lo)),)
            return
        self.parts = tuple([(chunk, *overlap_slices(chunk, lo, hi))
                            for chunk in chunks])


class DecodePipeline:
    """The select path: locate → read chain → decompress → fold →
    assemble (Figure 1, right; Figure 2's read pattern).

    Every read — one version or a stack — runs in the same three
    steps (:meth:`_resolve`).  The calling thread *plans* every task
    first: the cache lookup, the chain walk (with its cache probes)
    and the job choice below.  Only the misses are decoded, cut into a
    few batches of about equal work (:meth:`_batches`: one on the
    calling thread at a fan width of 1 or when the read's work would
    not pay for handing a batch to a lane, else two per lane; never
    more than :data:`_BATCH_BYTES` of work but for a last run), each
    one task of the fan that reads, decompresses, folds and places its
    chunks and touches neither the cache nor any scope.  The calling
    thread then *admits* each result in task order.  Hits never reach
    a batch, and the cache sees the same calls in the same order at
    every fan width.  Assembly stays deterministic: every chunk writes
    a disjoint region of the output canvas, so the result is
    byte-identical at every width.

    The batch is the unit of decode: one call of the C entry
    (:class:`~repro.core.native.FoldBatch`, queued in
    :meth:`_decode_batch`) rebuilds every chunk of it in task order —
    per chunk, it copies the base into contiguous cells, folds delta
    levels onto them and copies them, or the box of them the read
    cuts, into the canvas window.  Every store delta codec composes —
    wrapping addition, xor — so levels apply in place, at the cells'
    own width, sparse/hybrid levels at O(nnz).  A cache miss does one
    of two jobs with it, chosen per chunk from what the code can
    observe (the located chain's size, the cache's free space), not
    from a setting:

    * **Read one version** (the default).  One chunk of the call, in C
      with the GIL released, copies the root once into contiguous
      cells, checks and folds the whole chain onto them and copies them
      into the canvas window.  The cells are the caller's canvas
      window when that is contiguous and nothing else will hold on to
      it, a buffer of the chunk's own when the cache or a later layer
      will, and otherwise the decoding thread's chunk buffer.  Only the
      requested version is admitted to the cache.
    * **Warm-fill a chain.**  When every located level fits the
      cache's *free* space, each level is folded into an owning copy
      of the one before — one chunk of the call per version — and
      every intermediate version is admitted too, through the
      non-evicting put: later reads of those versions are hits, and no
      entry a caller asked for is ever displaced.  A chain that does
      not fit is declined and read as one version.

    What the call does not read as stored — an ``lz`` root, an
    LZ-sealed level, a header or frame spelled another way — goes to
    it as cells and bare sections, a declined chunk on its own before
    the batch runs on; with the kernels off the call runs its numpy
    form.  The walk probes the cache at every level, so a cached
    ancestor ends it and only the suffix is read.  Both jobs read the
    same payloads, produce the same bytes, and name a corrupt level
    the same way: array, version and chunk.
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
        of a ``(version, attribute, chunk, src, window)`` read task,
        or the :class:`_Miss` to decode — its chain located
        and its job chosen.

        ``scope`` maps the versions of this chunk that the read's
        earlier tasks of its group resolve (:meth:`_read_stack`) to
        their contents — None for one a miss planned before this one
        will decode, which its batch hands on (:meth:`_decode_batch`).
        A walk stops at the first version in it; a hit, and what a miss
        will resolve, are recorded into it.  ``admitting`` is what the
        read's misses planned before this one will admit: a warm fill
        must fit the free space they leave, as it would had they been
        admitted already."""
        version, attribute, chunk, _, out = task
        record = snap.record
        if self.cache.enabled:
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

    def _decode_batch(self, runs: list[list[_Miss]]) -> list:
        """The pool's task: read, decompress and fold a batch of planned
        misses — runs of one chunk each, a run's misses folding onto
        versions its earlier ones resolve — each into its window.
        Returns, per miss, ``(chunk, resolved)`` for the calling thread
        to admit or hand out (``resolved``: on a warm fill every version
        decoded on the way, deepest first), or None once placed with
        the cache off; touches no cache and no scope.

        Each chain is read by one ``read_chunks`` call (its payloads in
        one open per distinct object), and every chunk of the batch is
        folded and placed by one call of the C entry
        (:class:`~repro.core.native.FoldBatch`), in task order: a
        one-version read is one chunk of the batch, a warm fill the root
        and then each level in turn.  A chunk takes
        the base — the root's stored payload, or cells: a held version,
        a root of another compressor (:meth:`_decode_root`) — and every
        level as stored.  A level the call cannot read as stored
        (``hybrid+lz``) goes in as its bare section
        (:func:`~repro.delta.base.bare_levels`).  A chunk whose header,
        frame or seal byte the call declines goes in again on its own
        the bare way — the root as cells, every level as its bare
        section, every header parsed in Python, which names a corrupt
        one — and the batch runs on past it.  A malformed level is
        named — array, version, chunk — in the error.

        Where a chunk folds: in cells of its own when it outlives the
        call (the cache admits it, the caller takes it, or a miss of
        its run other than the next folds onto it); else in its window
        when that is all of the chunk and contiguous; else in this
        thread's chunk buffer, from which the call copies the box's
        part into the window — a strided window's rows sit a canvas row
        apart and would miss L2 on every level.  With the cache off the
        last miss folding onto a version its run folded folds in place
        on it, so a stack folds each chunk's layers in one buffer,
        whatever its depth."""
        cache_on = self.cache.enabled
        batch = native.FoldBatch()
        folds: dict[tuple, native.ChunkFold] = {}
        scratch: dict[native.ChunkFold, np.ndarray] = {}  # chunk buffers
        steps: list[list] = []      # per chunk: _refold's arguments
        results = []
        for run in runs:
            waiting = Counter([miss.base_version for miss in run]) \
                if len(run) > 1 else {}
            held: dict[int, np.ndarray] = {}
            owned: set[int] = set()     # cells this run allocated
            mine: set[int] = set()      # ... or folded in a chunk buffer
            for index, miss in enumerate(run):
                chain, base, window = miss.chain, miss.base, miss.out
                stored = self.store.read_chunks(
                    [row.location for row in chain])
                last_use = False
                if miss.base_version in held:
                    waiting[miss.base_version] -= 1
                    base = held[miss.base_version]
                    if not waiting[miss.base_version]:
                        del held[miss.base_version]
                        last_use = not cache_on and id(base) in mine
                fold = folds.get((miss.attribute, miss.chunk.shape))
                if fold is None:
                    fold = folds[miss.attribute, miss.chunk.shape] = \
                        chunk_fold(miss.snap.record.schema.attribute(
                            miss.attribute).dtype, miss.chunk.shape)
                box = None if window is None \
                    or window.shape == fold.shape else miss.task[3]
                jobs = [(miss.version, chain, stored)]
                if miss.base_version is None:
                    root, base = chain[-1], stored.pop()
                    jobs = [(miss.version, chain[:-1], stored)]
                    if root.compressor != "none":
                        base = self._decode_root(miss, root, base)
                    if waiting.get(root.version):
                        held[root.version] = base \
                            if type(base) is np.ndarray \
                            else self._decode_root(miss, root, base)
                    if miss.warm_fill:
                        jobs = [(root.version, [], [])] + [
                            (row.version, [row], [payload])
                            for row, payload in zip(reversed(chain[:-1]),
                                                    reversed(stored))]
                elif miss.warm_fill:
                    jobs = [(row.version, [row], [payload]) for row, payload
                            in zip(reversed(chain), reversed(stored))]
                following = run[index + 1] if index + 1 < len(run) else None
                resolved: dict[int, np.ndarray] = {}
                for version, rows, parts in jobs:
                    final = version == miss.version
                    into = window if final else None
                    # Handed straight to the next job: the next miss of
                    # the run folds onto it, and nothing else does.
                    waits = waiting.get(version, 0)
                    handed = final and following is not None \
                        and following.base_version == version \
                        and waits == 1
                    if cache_on or into is None or (waits and not handed):
                        cells = base if last_use and id(base) in owned \
                            else np.empty(fold.shape, fold.dtype)
                        owned.add(id(cells))
                        mine.add(id(cells))
                    elif not rows and not handed:
                        cells = None
                    elif box is None and into.flags.c_contiguous \
                            and not handed:
                        cells, into = into, None
                    else:
                        cells = base if last_use else scratch.get(fold)
                        if cells is None:
                            cells = scratch[fold] = self._chunk_buffer(
                                fold.dtype, fold.shape)
                        mine.add(id(cells))
                    layouts = [_FOLD_LAYOUTS.get(row.delta_codec)
                               for row in rows]
                    handed_in = parts
                    if None in layouts:
                        try:
                            handed_in, layouts = self._bare(miss, rows,
                                                            parts, fold)
                        except DeltaLevelError as exc:
                            raise self._corrupt(miss, rows, exc) from exc
                    batch.add(fold, base, handed_in, layouts, cells, into,
                              box if final else None)
                    steps.append([miss, rows, parts, layouts, fold, base,
                                  cells, into, box if final else None])
                    if miss.warm_fill:
                        resolved[version] = cells
                    if waits:
                        held[version] = cells
                    base, last_use = cells, False
                results.append(None if window is not None and not cache_on
                               else (base, resolved))
        done = 0
        try:
            while True:
                done, status = batch.run(done)
                if not status:
                    break
                self._refold(*steps[done])
                done += 1
        except DeltaLevelError as exc:
            done = exc.chunk
            raise self._corrupt(*steps[done][:2], exc) from exc
        finally:
            for miss, rows, _, layouts, *_ in steps[:done]:
                if rows and not miss.warm_fill:
                    self.store.stats.record_chain_fused(
                        len(rows), sum([bool(layout & native.FOLD_TABLE)
                                        for layout in layouts]))
        return results

    def _refold(self, miss: _Miss, rows: list[ChunkRecord], stored: list,
                layouts: list[int], fold: native.ChunkFold, base, cells,
                window, box) -> None:
        """A chunk of a batch the call declined, on its own the bare
        way: the root as cells, every level as its bare section
        (``layouts`` takes their bits).  A malformed level raises
        :class:`CodecError` naming array, version and chunk."""
        if type(base) is not np.ndarray:
            base = self._decode_root(miss, miss.chain[-1], base)
        one = native.FoldBatch()
        try:
            handed, layouts[:] = self._bare(miss, rows, stored, fold)
            one.add(fold, base, handed, layouts, cells, window, box)
            one.run()
        except DeltaLevelError as exc:
            raise self._corrupt(miss, rows, exc) from exc

    @staticmethod
    def _corrupt(miss: _Miss, rows: list[ChunkRecord],
                 exc: DeltaLevelError) -> CodecError:
        """The error for a malformed level of ``rows``: array, version
        and chunk named."""
        level = rows[exc.level]
        return CodecError(
            f"{miss.snap.record.name!r} version {level.version} "
            f"chunk {miss.chunk.name}: corrupt {level.delta_codec} "
            f"delta: {exc}")

    def _bare(self, miss: _Miss, rows: list[ChunkRecord], stored: list,
              fold: native.ChunkFold) -> tuple[list, list[int]]:
        """``rows``' stored levels as the call takes them bare
        (:func:`~repro.delta.base.bare_levels`)."""
        return bare_levels(self._codecs(miss.snap.record, miss.chunk, rows),
                           stored, fold)

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
        probing = self.cache.enabled

        def resolved(cursor: int) -> bool:
            if probing and cursor not in stop_at and cursor != version:
                cached = self.cache.peek((array_id, cursor, attribute,
                                          chunk.name))
                if cached is not None:
                    stop_at[cursor] = cached
            return cursor in stop_at

        chain = list(snap.walk_chain(version, attribute, chunk.name,
                                     resolved))
        if not chain:
            return chain, version
        base = chain[-1].base_version
        if base is None:
            return chain, None
        if base in stop_at:
            return chain, base
        raise StorageError(
            f"delta cycle detected for {snap.record.name!r} "
            f"chunk {chunk.name} at version {base}")

    @staticmethod
    def _decode_root(miss: _Miss, root: ChunkRecord, payload) -> np.ndarray:
        """Decompress a chain's materialized root, for the fold to copy:
        a zero-copy read-only view where the compressor allows.  A root
        that does not decode to the chunk's dtype and shape is refused
        — array, version and chunk named — before anything is sized
        from it."""
        record, chunk = miss.snap.record, miss.chunk
        dtype = record.schema.attribute(miss.attribute).dtype
        named = f"{record.name!r} version {root.version} chunk {chunk.name}"
        try:
            data = get_codec(root.compressor).decode_view(payload)
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

        Every chunk is lent its window of the canvas — all of it, or
        the part the box cuts — and lands there from the call that
        folds it (:meth:`_decode_batch`); only a cache hit is copied in
        here.
        """
        plan = ReadPlan(snap.record, lo, hi)
        if isinstance(version, list):
            (attribute, layers), = out.items()
            self._read_stack(snap, plan, version, attribute, layers)
            return None
        schema = plan.schema
        if out is None and len(plan.parts) == 1:
            (chunk, src, _), = plan.parts
            tasks = [(version, attr.name, chunk, src, None)
                     for attr in schema.attributes]
            return ArrayData(schema, {
                task[1]: data[src] for task, data in zip(
                    tasks, self._resolve(snap, [[task] for task in tasks]))})
        canvases = out if out is not None else {
            attr.name: np.empty(schema.shape, dtype=attr.dtype)
            for attr in schema.attributes}
        for _ in self._resolve(snap, [
                [(version, attr.name, chunk, src, canvases[attr.name][dst])]
                for attr in schema.attributes if attr.name in canvases
                for chunk, src, dst in plan.parts]):
            pass
        return None if out is not None else ArrayData(schema, canvases)

    def _resolve(self, snap: ArraySnapshot, groups: list[list[tuple]]):
        """The chunk of every ``(version, attribute, chunk, src,
        window)`` task of one snapshot, in task order, each chunk's
        ``src`` cells placed in its canvas ``window`` (None: the caller
        takes the chunk) — the one executor of every read.

        A group is tasks of one chunk that may fold onto each other
        (one stacked chunk's layers, ascending), planned in one scope
        (:meth:`_plan`); a task no other needs is a group of its own.
        Every task is planned first, on this thread, each warm-fill
        choice counting the bytes the read's misses before it will
        admit; a hit is placed at once.  Each group's misses are then
        one run, and the runs are cut into a few batches
        (:meth:`_batches`), each one task (:meth:`_decode_batch`) of
        one ordered window (:func:`fan.ordered`); what they decode is
        admitted here in task order.
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
                    _, _, _, src, window = task
                    if window is not None:
                        window[...] = got[src]
                planned.append(got)
            if run:
                runs.append(run)
        return self._admitted(planned, *self._batches(runs)) if runs \
            else planned

    @staticmethod
    def _batches(runs: list[list[_Miss]]
                 ) -> tuple[list[list[list[_Miss]]], bool]:
        """The read's runs cut into contiguous batches of about equal
        work, in task order, no run split, and whether they run on the
        calling thread.  A miss's work is what the plan already knows it
        moves: its located chain's payload bytes and the chunk's cells.
        A read runs on the calling thread at a fan width of 1, and
        whenever its work is below the fan's hand-off cost
        (:data:`_HANDOFF_BYTES`) per lane — handing it out would cost
        more than it saves — or per miss: a miss's Python, which holds
        the GIL, costs about one hand-off too, so lanes given such
        misses only contend for it.  It is one batch there, else two
        per lane; and never a batch of more than :data:`_BATCH_BYTES`
        of work but for its last run, so what a batch holds at once is
        bounded whatever the read's size."""
        if len(runs) == 1:
            return [runs], True
        width = fan.FAN_WIDTH
        schema = runs[0][0].snap.record.schema     # one per read
        itemsize = {attribute.name: attribute.dtype.itemsize
                    for attribute in schema.attributes}
        costs = [sum([row.location.length for row in miss.chain])
                 + miss.chunk.cell_count * itemsize[miss.attribute]
                 for run in runs for miss in run]
        total = sum(costs)
        inline = width <= 1 \
            or total < max(width, len(costs)) * _HANDOFF_BYTES
        count = min(max(1 if inline else 2 * width,
                        -(-total // _BATCH_BYTES)), len(runs))
        if count == 1:
            return [runs], inline
        batches, batch, spent = [], [], 0
        costs = iter(costs)
        for run in runs:
            batch.append(run)
            spent += sum([next(costs) for _ in run])
            if spent * count >= total * (len(batches) + 1):
                batches.append(batch)
                batch = []
        if batch:
            batches.append(batch)
        return batches, inline

    def _admitted(self, planned: list, batches: list[list[list[_Miss]]],
                  inline: bool):
        decoded = (self._decode_batch(batch) for batch in batches) \
            if inline else fan.ordered(self._decode_batch, batches)
        with closing(decoded):
            results = (result for batch in decoded for result in batch)
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
        IV range selects.  Each chunk's misses are one run of one of the
        read's batches: a layer folds onto the one below it — with the
        cache off in the same cells, which the call copies into each
        layer's window in turn."""
        order = sorted(range(len(versions)), key=versions.__getitem__)
        for _ in self._resolve(snap, [
                [(versions[layer], attribute, chunk, src, layers[layer][dst])
                 for layer in order]
                for chunk, src, dst in plan.parts]):
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
