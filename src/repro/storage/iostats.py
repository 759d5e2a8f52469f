"""Byte-, chunk- and handle-level I/O accounting.

Section IV-D argues that "because chunks read from disk in SciDB are
relatively large (i.e., several megabytes), disk seeks are amortized so
that we can count the number of chunks accessed as a proxy for total I/O
cost".  The evaluation tables report *Bytes Read* alongside wall-clock
time.  Every read and write the chunk store performs is recorded here so
benchmarks can report the same columns as the paper.

Beyond the paper's counters, :class:`IOStats` tracks ``file_opens`` —
how many *distinct objects* the store accessed (logical opens) — which
is what the batched chain read
(:meth:`~repro.storage.chunkstore.ChunkStore.read_chunks`) improves: a
co-located chain of *k* payloads is one object access, not *k* — and
the chunk-cache hit/miss counters, so cache effectiveness shows up in
the same report as the I/O it avoided.  The counter is logical — one
per distinct object per batched read, whatever the backend does to
serve it — so the chain-depth invariants are the same on every
backend and at every fan width.

The object-store backend adds request-level accounting: every ranged
GET it issues is counted in ``ranged_gets``, and every byte the
request-size floor or span coalescing fetched beyond what was asked
for lands in ``bytes_over_fetched`` — so the request-batching
trade-off (fewer round trips, more bytes) is visible in the same
report as the chunk- and handle-level counters it trades against.

The counters are lock-protected: parallel chain reads (the decode
pipeline's per-chunk fan-out) and parallel chunk encodes (the encode
pipeline's write-side fan-out) hammer one shared instance from many
threads, and benchmark invariants like "file opens stay constant in
chain depth" or "one encode task per chunk" only hold if no increment
is ever lost — nor gained after the fact: a pipeline whose operation
raises settles every task it started before the error leaves it, so
the counters stop moving when the call returns.  The write side is
covered by three counters: ``encode_tasks`` (delta+compress units
executed by the encode stage), and ``chunks_written`` and
``bytes_written`` (the placements that follow, one at a time in task
order).

The single-pass encode decision adds three more write-side counters:
``encode_plans`` (chunk encodes decided — a chunk with a delta base by
one call of the encode face, :func:`~repro.delta.auto.encode_chunk`, in
C or in its numpy form, and a chunk with none by
:func:`~repro.delta.auto.materialize`, which count alike),
``codec_encodes_avoided`` (representations sized exactly from the
width histogram but never encoded — losing delta candidates,
plus the materialized payload whenever the cost model proves a delta
wins under the identity compressor), and ``planner_bytes_saved`` (the
total size of those never-produced payloads).  Sizing before encoding
changes no stored byte, so these counters are the only
place its work is visible outside wall-clock time.

The fused read path is covered by three counters: ``chains_fused``
(chunk reconstructions that folded their whole delta chain, one level
or many, onto one copy of the root), ``fused_levels`` (delta levels
those folds absorbed — the per-level copies the fusion avoided), and
``scatter_levels`` (the subset of those levels applied at O(nnz) from
a sparse/hybrid outlier table instead of a dense pass).  A cache warm
fill folds its chain one level at a time, into one owning copy per
level, and counts none of them.  The scan bench reports them next to
MB/s so the fused path's coverage is visible, and the equivalence
oracle asserts they are exactly zero on a warm fill.

A whole-version read the manager's hot slot answers — one copy of the
version it wrote last, no chain read and no fold — is counted in
``hot_reads``, and in nothing else: it reads no chunk, opens no object
and touches no cache.

The cluster coordinator adds replication accounting on its own stats
instance: ``replica_writes`` counts redundant version copies landed on
non-primary replicas, ``failovers`` counts reads that abandoned a dead
or failing replica for the next live one, and ``migrated_chunks``
counts chunk placements performed by ``rebalance`` while resharding
the cluster onto a new node count.  The chaos suite asserts *exact*
values for all three, so they share the lock discipline of the
byte-level counters.

Anti-entropy repair adds three more cluster counters: ``repairs``
(repair passes that actually resynced at least one version onto a
stale or empty replica), ``repaired_versions`` (versions shipped
as stored onto it during those passes), and ``repair_bytes`` (the
logical — dense — bytes of those versions, not the stored bytes
shipped: the numerator of the stale-replica resync MB/s the cluster bench
reports).  Repair under chaos retries until the replica digests
converge, so the counters accumulate across attempts; the fault-free
tests assert exact values.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields


@dataclass
class IOStats:
    """Mutable I/O counters attached to a chunk store."""

    bytes_read: int = 0
    bytes_written: int = 0
    chunks_read: int = 0
    chunks_written: int = 0
    encode_tasks: int = 0
    encode_plans: int = 0
    codec_encodes_avoided: int = 0
    planner_bytes_saved: int = 0
    file_opens: int = 0
    ranged_gets: int = 0
    bytes_over_fetched: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    chains_fused: int = 0
    fused_levels: int = 0
    scatter_levels: int = 0
    hot_reads: int = 0
    failovers: int = 0
    replica_writes: int = 0
    migrated_chunks: int = 0
    repairs: int = 0
    repaired_versions: int = 0
    repair_bytes: int = 0

    def __post_init__(self):
        # Not a dataclass field, so reset/snapshot/delta_since (which
        # iterate ``fields``) keep seeing counters only.
        self._lock = threading.Lock()

    def record_read(self, nbytes: int) -> None:
        """Account one chunk read of ``nbytes``."""
        with self._lock:
            self.bytes_read += nbytes
            self.chunks_read += 1

    def record_reads(self, count: int, nbytes: int) -> None:
        """Account one object of a batched read: one open and ``count``
        chunk reads of ``nbytes`` in all."""
        with self._lock:
            self.file_opens += 1
            self.bytes_read += nbytes
            self.chunks_read += count

    def record_write(self, nbytes: int) -> None:
        """Account one chunk write of ``nbytes``."""
        with self._lock:
            self.bytes_written += nbytes
            self.chunks_written += 1

    def record_encode_task(self) -> None:
        """Account one chunk encode task (the write pipeline's
        delta+compress unit of work; ``chunks_written``/``bytes_written``
        count the placements that follow).  The encode stage's parallel
        fan-out must report exactly one task per chunk regardless of the
        fan width, so the counter shares the lock discipline of the
        read-side counters."""
        with self._lock:
            self.encode_tasks += 1

    def record_encode_plan(self, encodes_avoided: int,
                           bytes_saved: int) -> None:
        """Account one chunk encode decided in a single pass:
        ``encodes_avoided`` representations were sized exactly from the
        width histogram but never encoded, and ``bytes_saved`` is the
        total size of those never-produced payloads.  The decision runs
        inside the encode stage's parallel fan-out, so the counter
        shares the lock discipline of ``encode_tasks``."""
        with self._lock:
            self.encode_plans += 1
            self.codec_encodes_avoided += encodes_avoided
            self.planner_bytes_saved += bytes_saved

    def record_open(self, count: int = 1) -> None:
        """Account ``count`` logical object opens (distinct objects
        accessed)."""
        with self._lock:
            self.file_opens += count

    def record_ranged_gets(self, count: int, over_fetched: int) -> None:
        """Account ``count`` ranged-GET requests that together fetched
        ``over_fetched`` bytes beyond the spans actually asked for (the
        request-size floor and span coalescing trade bytes for round
        trips; both sides of that trade are recorded)."""
        with self._lock:
            self.ranged_gets += count
            self.bytes_over_fetched += over_fetched

    def record_chain_fused(self, levels: int, scatter_levels: int) -> None:
        """Account one chunk reconstruction served by the fused read
        path: ``levels`` delta levels folded onto one copy of the root
        (instead of ``levels`` full-array decodes), of which
        ``scatter_levels`` were applied at O(nnz) from a sparse/hybrid
        outlier table instead of a dense pass.  A cache warm fill,
        which folds level by level to keep every intermediate, is not
        recorded."""
        with self._lock:
            self.chains_fused += 1
            self.fused_levels += levels
            self.scatter_levels += scatter_levels

    def record_hot_read(self) -> None:
        """Account one whole-version read served by copying the hot
        slot's canvases instead of decoding."""
        with self._lock:
            self.hot_reads += 1

    def record_cache_hit(self) -> None:
        """Account one chunk-cache hit (a read the cache absorbed)."""
        with self._lock:
            self.cache_hits += 1

    def record_failover(self) -> None:
        """Account one read failover: a replica that was marked dead or
        raised was abandoned and the next replica in line was tried."""
        with self._lock:
            self.failovers += 1

    def record_replica_writes(self, count: int) -> None:
        """Account ``count`` redundant version copies landed on
        non-primary replicas (one per (version, band, replica>0) that a
        successful cluster write fanned to)."""
        with self._lock:
            self.replica_writes += count

    def record_migrated_chunks(self, count: int) -> None:
        """Account ``count`` chunk placements performed while resharding
        the cluster onto a new node count (``rebalance``)."""
        with self._lock:
            self.migrated_chunks += count

    def record_repair(self, versions: int, nbytes: int) -> None:
        """Account one anti-entropy repair pass that shipped
        ``versions`` versions carrying ``nbytes`` logical payload bytes
        onto a stale or empty replica.  Repair under fault injection
        retries until the digests converge, so increments accumulate
        across attempts; only passes that resynced at least one version
        are recorded."""
        with self._lock:
            self.repairs += 1
            self.repaired_versions += versions
            self.repair_bytes += nbytes

    def record_cache_miss(self) -> None:
        """Account one chunk-cache miss."""
        with self._lock:
            self.cache_misses += 1

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            for field in fields(self):
                setattr(self, field.name, 0)

    def snapshot(self) -> "IOStats":
        """A consistent copy of the current counters."""
        with self._lock:
            return IOStats(**{field.name: getattr(self, field.name)
                              for field in fields(self)})

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Counter increments since an earlier snapshot."""
        return IOStats(**{
            field.name: getattr(self, field.name)
            - getattr(earlier, field.name)
            for field in fields(self)})

    @contextmanager
    def measure(self):
        """Context manager yielding the I/O performed inside the block.

        >>> stats = IOStats()
        >>> with stats.measure() as window:
        ...     stats.record_read(100)
        >>> window.bytes_read
        100
        """
        before = self.snapshot()
        window = IOStats()
        try:
            yield window
        finally:
            delta = self.delta_since(before)
            for field in fields(delta):
                setattr(window, field.name, getattr(delta, field.name))
