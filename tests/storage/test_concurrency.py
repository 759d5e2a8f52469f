"""Concurrent decode, chain warm fill, and transactional write batching.

The pooled select path must be invisible except in wall-clock: the
same bytes, the same exact I/O counters, the same cache occupancy as
the inline pass at a fan width of 1.  The write path must be atomic at version granularity:
a failure anywhere mid-write leaves zero chunk rows in the catalog.
Concurrency itself is held to a census — the process's CPU fan and
sync fan and nothing else, neither nested in the other — and an
operation that raises leaves none of its tasks running.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.errors import CodecError, NoOverwriteError, StorageError
from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.storage import fan, pipeline
from repro.storage import (
    COLOCATED,
    PER_VERSION,
    ChunkLocation,
    ChunkRecord,
    FaultInjectingBackend,
    InMemoryBackend,
    MetadataCatalog,
    VersionedStorageManager,
)


def _two_attr_schema(shape=(24, 24)) -> ArraySchema:
    dims = tuple(Dimension(name, 0, extent - 1)
                 for name, extent in zip("IJ", shape))
    return ArraySchema(dimensions=dims,
                       attributes=(Attribute("a", np.dtype(np.int64)),
                                   Attribute("b", np.dtype(np.float32))))


def _loaded(root, *, versions=4, **kwargs):
    manager = VersionedStorageManager(root, chunk_bytes=800,
                                      compressor="none",
                                      delta_policy="chain", **kwargs)
    schema = _two_attr_schema()
    manager.create_array("A", schema)
    rng = np.random.default_rng(42)
    a = rng.integers(0, 1000, (24, 24)).astype(np.int64)
    b = rng.random((24, 24)).astype(np.float32)
    from repro.core.array import ArrayData
    for _ in range(versions):
        manager.insert("A", ArrayData(schema, {"a": a, "b": b}))
        a = a + rng.integers(0, 3, (24, 24)).astype(np.int64)
        b = b + 0.5
    return manager


def _at_widths(pin_fan, read) -> dict:
    """``read()`` inline (width 1) and through the pool (width 4)."""
    results = {}
    for width in (1, 4):
        with pin_fan(width):
            results[width] = read()
    return results


class TestParallelDecodeDeterminism:
    def test_read_version_byte_identical(self, tmp_path, pin_fan):
        manager = _loaded(tmp_path)
        versions = manager.get_versions("A")
        results = _at_widths(pin_fan, lambda: [
            manager.select("A", version) for version in versions])
        for left, right in zip(results[1], results[4]):
            for attr in ("a", "b"):
                np.testing.assert_array_equal(left.attribute(attr),
                                              right.attribute(attr))
        manager.close()

    def test_read_region_byte_identical(self, tmp_path, pin_fan):
        manager = _loaded(tmp_path)
        regions = [((0, 0), (23, 23)), ((3, 5), (20, 18)),
                   ((7, 7), (7, 7))]
        results = _at_widths(pin_fan, lambda: [
            manager.select_region("A", 4, lo, hi) for lo, hi in regions])
        for left, right in zip(results[1], results[4]):
            for attr in ("a", "b"):
                np.testing.assert_array_equal(left.attribute(attr),
                                              right.attribute(attr))
        manager.close()

    def test_io_counters_exact_under_parallelism(self, tmp_path,
                                                 pin_fan):
        """Lock-protected IOStats: not one lost increment at width 4."""
        manager = _loaded(tmp_path)

        def measured():
            with manager.stats.measure() as window:
                manager.select("A", 4)
            return window

        results = _at_widths(pin_fan, measured)
        assert results[4].chunks_read == results[1].chunks_read
        assert results[4].bytes_read == results[1].bytes_read
        assert results[4].file_opens == results[1].file_opens
        manager.close()

    def test_concurrent_selects_share_one_cache_exactly(self, tmp_path):
        """Many threads select through one locked cache; byte
        accounting must match a single-threaded replay."""
        manager = _loaded(tmp_path, cache_bytes=1 << 20)
        versions = manager.get_versions("A")
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(manager.select, "A", version)
                       for version in versions for _ in range(3)]
            results = [future.result() for future in futures]
        expected = {v: manager.select("A", v) for v in versions}
        for (version, _), result in zip(
                [(v, i) for v in versions for i in range(3)], results):
            np.testing.assert_array_equal(
                result.attribute("a"), expected[version].attribute("a"))
        info = manager.cache_info()
        # Bytes accounting stayed consistent under contention.
        assert info["bytes"] == sum(
            entry.nbytes
            for entry in manager.cache._entries.values())
        manager.close()


class _Threads:
    """Wraps a pipeline stage: the thread each call ran on."""

    def __init__(self, function):
        self.function = function
        self.calls: list[str] = []

    def __call__(self, *args, **kwargs):
        self.calls.append(threading.current_thread().name)
        return self.function(*args, **kwargs)


class _Lanes(_Threads):
    """A :class:`_Threads` spy whose calls on the consuming thread wait
    (a bounded while) until a pool thread has made one: while the
    consumer runs a call itself, the pool takes the next."""

    def __init__(self, function):
        super().__init__(function)
        self.pooled = threading.Event()

    def __call__(self, *args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            self.pooled.wait(timeout=10)
        else:
            self.pooled.set()
        return super().__call__(*args, **kwargs)


def _cached_sequence(root, backend="memory", **kwargs) -> tuple:
    """A fixed read sequence over a tight cache: warm fills, free-space
    refusals and LRU evictions across multi-chunk selects.  Returns
    the store's counters, the cache's, the window of a re-read whose
    entries were evicted on the way, and the threads that called the
    cache."""
    manager = _chained(root, depth=6, backend=backend,
                       cache_bytes=14 * 800, **kwargs)
    calls = [_Threads(getattr(manager.cache, name))
             for name in ("get", "peek", "fits", "put")]
    for spy, name in zip(calls, ("get", "peek", "fits", "put")):
        setattr(manager.cache, name, spy)
    manager.select("C", 3)      # warm fill: v1-v3 of all four chunks
    manager.select("C", 6)      # stops at v3, declined, evicts v1
    manager.select_region("C", 5, (0, 0), (9, 19))
    manager.select_versions_region("C", [2, 4, 6], (5, 5), (14, 14))
    with manager.stats.measure() as reread:
        manager.select("C", 1)
    manager.cache.clear()
    manager.select("C", 4)      # three chains fill, the fourth no longer fits
    counters = (manager.stats.snapshot(), manager.cache_info())
    manager.close()
    return counters + (reread, {name for spy in calls
                                for name in spy.calls})


class TestTheCallingThreadOwnsTheCache:
    """A read plans and admits on the calling thread; the pool only
    reads, decompresses and folds.  The cache therefore sees the same
    calls in the same order at every fan width, and a read the cache
    answers never reaches the pool."""

    @pytest.mark.skipif(fan.FAN_WIDTH < 2,
                        reason="the host has one CPU: the fan is inline")
    def test_default_manager_fans_on_the_host_cpus(self, tmp_path,
                                                   pin_fan, cold,
                                                   monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert fan.FAN_WIDTH == len(os.sched_getaffinity(0))
        data = np.arange(64 * 64, dtype=np.int64).reshape(64, 64)

        def run(root, spy):
            manager = VersionedStorageManager(root, backend="memory",
                                              chunk_bytes=2048)
            manager.create_array("A", ArraySchema.simple((64, 64),
                                                         dtype=np.int64))
            encodes = manager.encoder.encode_chunk = spy(
                manager.encoder.encode_chunk)
            decodes = manager.decoder._decode_batch = spy(
                manager.decoder._decode_batch)
            manager.insert("A", data)
            manager.insert("A", data + 1)
            np.testing.assert_array_equal(
                cold(manager, "A").select("A", 2).single(), data + 1)
            # Two batches per lane of the 16 chunks, or one inline.
            assert len(decodes.calls) == \
                (min(2 * fan.FAN_WIDTH, 16) if fan.FAN_WIDTH > 1 else 1)
            fingerprint = manager.fingerprint()
            manager.close()
            return set(encodes.calls), set(decodes.calls), fingerprint

        # The consumer is one of the fan's lanes; the process's CPU
        # pool's threads are the others, for encodes and decodes alike
        # (the decode's work made worth a lane whatever its size).
        monkeypatch.setattr(pipeline, "_HANDOFF_BYTES", 1)
        encoders, decoders, fanned = run(tmp_path / "default", _Lanes)
        for threads in (encoders, decoders):
            lanes = {name.rsplit("_", 1)[0] for name in threads}
            assert "repro-cpu" in lanes <= {"repro-cpu", "MainThread"}
        with pin_fan(1):
            encoders, decoders, inline = run(tmp_path / "inline", _Threads)
            assert encoders == decoders == {"MainThread"}
            assert fanned == inline

    def test_cache_state_is_the_same_at_every_width(self, tmp_path,
                                                    pin_fan):
        runs = []
        for index, width in enumerate((1, 4, 4)):
            with pin_fan(width):
                runs.append(_cached_sequence(tmp_path / str(index)))
        stats, info, reread, callers = runs[0]
        # The sequence exercises all three admission outcomes.
        assert info["prefetched"] > 0 and info["prefetch_declined"] > 0
        assert reread.cache_misses == 4     # v1 was evicted
        assert callers == {"MainThread"}
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("placement", (COLOCATED, PER_VERSION))
    @pytest.mark.parametrize("spec", (
        "local", "durable", "memory", "object", "object:durable",
        "striped:2", "striped:2:durable", "striped:2:object",
        "faulty:0:durable"))
    def test_counters_repeat_on_every_backend(self, tmp_path, pin_fan,
                                              spec, placement):
        """Whatever the backend legs and placement, the pooled read
        leaves the store's counters and the cache's exactly as the
        inline one does."""
        runs = []
        for width in (1, 4):
            with pin_fan(width):
                runs.append(_cached_sequence(tmp_path / f"w{width}",
                                             backend=spec,
                                             placement=placement))
        inline, pooled = runs
        assert inline[3] == pooled[3] == {"MainThread"}
        assert inline[:3] == pooled[:3]
        assert inline[0].chunks_read > 0

    @pytest.mark.parametrize("stage", ("EncodePipeline", "DecodePipeline"))
    def test_the_pipelines_take_no_width(self, tmp_path, stage):
        """The width is the constant, not a constructor argument."""
        manager = _chained(tmp_path, depth=1, backend="memory")
        with pytest.raises(TypeError):
            getattr(pipeline, stage)(manager.catalog, manager.store,
                                     workers=4)
        manager.close()

    @pytest.mark.parametrize("fan_width", [4], indirect=True)
    def test_a_cached_region_submits_nothing(self, tmp_path, monkeypatch,
                                             fan_width, cold):
        manager = cold(_chained(tmp_path, backend="memory",
                                cache_bytes=1 << 20), "C")
        manager.select("C", 5)      # warm fill: every version cached
        submitted = []
        submit = fan._cpu.submit

        def counting(*args, **kwargs):
            submitted.append(args)
            return submit(*args, **kwargs)

        monkeypatch.setattr(fan._cpu, "submit", counting)
        with manager.stats.measure() as window:
            for version in (5, 3, 1):
                manager.select_region("C", version, (2, 2), (17, 17))
        assert window.cache_hits == 3 * 4 and window.cache_misses == 0
        assert submitted == []
        # The spy sees a region the cache cannot answer, once its work
        # is worth a lane: one batch per chunk.
        manager.cache.clear()
        monkeypatch.setattr(pipeline, "_HANDOFF_BYTES", 1)
        manager.select_region("C", 5, (2, 2), (17, 17))
        assert len(submitted) == 4
        manager.close()


def _repro_threads(before: set) -> list[threading.Thread]:
    """Live library threads started since ``before`` was taken."""
    return [thread for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("repro-")]


class TestTheCallerIsALane:
    """The consuming thread is one of the fan's lanes: a call whose
    pool threads get no CPU (another process holds it) still finishes,
    on the calling thread, at the serial pace."""

    @pytest.mark.parametrize("fan_width", [4], indirect=True)
    def test_a_call_finishes_while_its_pool_is_busy(self, tmp_path,
                                                     fan_width,
                                                     monkeypatch):
        from repro.core.array import ArrayData
        manager = _loaded(tmp_path, versions=2)
        old = manager.select("A", 2)
        new = ArrayData(old.schema, {name: old.attribute(name) + 1
                                     for name in ("a", "b")})
        release = threading.Event()
        for _ in range(fan_width - 1):
            fan._cpu.submit(release.wait, 30)
        encodes = manager.encoder.encode_chunk = _Threads(
            manager.encoder.encode_chunk)
        decodes = manager.decoder._decode_batch = _Threads(
            manager.decoder._decode_batch)
        # Every read's batches worth a lane, so they reach the busy pool.
        monkeypatch.setattr(pipeline, "_HANDOFF_BYTES", 1)
        reads = {}

        def call():
            manager.insert("A", new)
            reads.update(old=manager.select("A", 2),
                         new=manager.select("A", 3))

        caller = threading.Thread(target=call, name="caller")
        caller.start()
        caller.join(timeout=10)
        finished = not caller.is_alive()
        release.set()
        caller.join()
        assert finished, "the call waited on busy pool threads"
        assert set(encodes.calls) == set(decodes.calls) == {"caller"}
        for name in ("a", "b"):
            np.testing.assert_array_equal(reads["old"].attribute(name),
                                          old.attribute(name))
            np.testing.assert_array_equal(reads["new"].attribute(name),
                                          new.attribute(name))
        manager.close()


@pytest.mark.parametrize("fan_width", [4], indirect=True)
class TestThreadCensus:
    """The process's two fans and nothing else: whatever the backend
    spec and placement, a manager at a fan width of 4 runs its encodes
    and decodes on the CPU fan and — only where a leg of the backend
    has a real barrier — its fsyncs on the sync fan.  Closing a manager
    ends none of those threads (they are the process's) and leaves its
    backend serving.  ``tests/cluster/test_coordinator.py`` holds the
    census across managers."""

    SPECS = ("local", "durable", "memory", "object", "object:durable",
             "striped:2", "striped:2:durable", "striped:2:object",
             "faulty:0:durable")

    @pytest.mark.parametrize("placement", (COLOCATED, PER_VERSION))
    @pytest.mark.parametrize("spec", SPECS)
    def test_a_closed_manager_leaves_its_backend_serving(
            self, tmp_path, monkeypatch, spec, placement, fan_width):
        before = set(threading.enumerate())
        submitted = {"cpu": 0, "sync": 0}
        for name in submitted:
            pool = getattr(fan, f"_{name}")

            def counting(*args, _submit=pool.submit, _name=name,
                         **kwargs):
                submitted[_name] += 1
                return _submit(*args, **kwargs)

            monkeypatch.setattr(pool, "submit", counting)
        manager = _loaded(tmp_path, versions=5, backend=spec,
                          placement=placement)
        manager.select("A", 5)
        manager.select_region("A", 4, (3, 5), (20, 18))
        manager.delete_version("A", 3)

        assert submitted["cpu"] > 0
        # The sync fan runs exactly where a barrier does.
        assert (submitted["sync"] > 0) == ("durable" in spec)
        pools = set(fan._cpu._threads) | set(fan._sync._threads)
        assert set(_repro_threads(before)) <= pools

        backend = manager.backend
        manager.close()
        # Closed is not dead: the backend serves, and raises its
        # barrier, again.
        backend.write("probe/a.dat", b"xy")
        backend.append("probe/b.dat", b"z")
        backend.sync(["probe/a.dat", "probe/b.dat"])
        assert backend.read_many("probe/a.dat", [(1, 1), (0, 1)]) == \
            [b"y", b"x"]
        backend.close()
        assert set(_repro_threads(before)) <= pools


class _InFlight:
    """Wraps a pipeline's task function: how many calls have started,
    and how many are running right now."""

    def __init__(self, function):
        self.function = function
        self.started = 0
        self.running = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.started += 1
            self.running += 1
        try:
            return self.function(*args, **kwargs)
        finally:
            with self._lock:
                self.running -= 1


@pytest.mark.parametrize("fan_width", [4], indirect=True)
class TestFailedOperationsLeaveNothingRunning:
    """An insert or select that raises has cancelled or waited out
    every task it started by the time the caller sees the error: the
    counters stop with it and a retry's window is its own."""

    SHAPE = (512, 512)

    def _manager(self, tmp_path, backend):
        manager = VersionedStorageManager(
            tmp_path, chunk_bytes=16 * 1024, delta_policy="chain",
            backend=backend)
        manager.create_array(
            "A", ArraySchema.simple(self.SHAPE, dtype=np.int32))
        return manager

    def test_failed_insert_stops_its_encode_tasks(self, tmp_path,
                                                  fan_width):
        rng = np.random.default_rng(20)
        data = rng.integers(0, 1000, self.SHAPE).astype(np.int32)
        clean = self._manager(tmp_path / "clean", InMemoryBackend())
        with clean.stats.measure() as expected:
            clean.insert("A", data)
        clean.close()
        assert expected.encode_tasks == 64

        backend = FaultInjectingBackend(
            InMemoryBackend(), schedule={"append": frozenset({3})})
        manager = self._manager(tmp_path / "faulty", backend)
        encodes = manager.encoder.encode_chunk = _InFlight(
            manager.encoder.encode_chunk)
        with pytest.raises(StorageError, match="append #3"):
            manager.insert("A", data)
        at_raise = manager.stats.snapshot(), encodes.started
        assert encodes.running == 0
        time.sleep(0.3)
        assert (manager.stats.snapshot(), encodes.started) == at_raise
        # The window that was in flight, not the rest of the version.
        assert 3 <= encodes.started < 64

        # The schedule is spent; the retry's window is a clean insert's.
        with manager.stats.measure() as retried:
            assert manager.insert("A", data) == 1
        assert retried == expected
        np.testing.assert_array_equal(manager.select("A", 1).single(),
                                      data)
        manager.close()

    def test_failed_select_stops_its_decode_tasks(self, tmp_path,
                                                  fan_width, cold,
                                                  monkeypatch):
        rng = np.random.default_rng(21)
        data = rng.integers(0, 1000, self.SHAPE).astype(np.int32)
        manager = self._manager(tmp_path, "memory")
        manager.insert("A", data)
        manager.insert("A", data + 1)
        cold(manager, "A")
        record = manager.catalog.get_array("A")
        # Smash the second chunk's delta level (in read order): its
        # frame no longer parses, the 62 chunks queued behind it still
        # would.
        index = 1
        victim = manager.catalog.get_chunk(
            record.array_id, 2, record.schema.attributes[0].name,
            list(record.grid.chunks())[index].name)
        location = victim.location
        blob = bytearray(manager.backend.read(
            location.path, 0, manager.backend.total_bytes(location.path)))
        blob[location.offset:location.offset + location.length] = \
            b"\xff" * location.length
        manager.backend.write(location.path, bytes(blob))

        # Every batch worth a lane: two per lane, of eight chunks each,
        # the victim in the first.
        monkeypatch.setattr(pipeline, "_HANDOFF_BYTES", 1)
        decodes = manager.decoder._decode_batch = _InFlight(
            manager.decoder._decode_batch)
        with pytest.raises(CodecError):
            manager.select("A", 2)
        at_raise = manager.stats.snapshot(), decodes.started
        assert decodes.running == 0
        time.sleep(0.3)
        assert (manager.stats.snapshot(), decodes.started) == at_raise
        # The ordered window: when the victim's error reaches the
        # consumer, only its batch and the window behind it (width +
        # 1, one refilled) have been submitted, of 2 x width batches.
        assert 1 <= decodes.started <= fan_width + 2 < 2 * fan_width
        # Version 1 shares the objects but not the smashed bytes.
        np.testing.assert_array_equal(manager.select("A", 1).single(),
                                      data)
        manager.close()


def _chained(root, depth=5, **kwargs):
    """A 2x2-chunk array whose five versions form full delta chains
    (the same construction test_pipeline's chain-read tests rely on)."""
    manager = VersionedStorageManager(root, chunk_bytes=800,
                                      compressor="none",
                                      delta_policy="chain", **kwargs)
    manager.create_array("C", ArraySchema.simple((20, 20),
                                                 dtype=np.int64))
    rng = np.random.default_rng(2012)
    data = rng.integers(0, 1000, (20, 20)).astype(np.int64)
    for _ in range(depth):
        manager.insert("C", data)
        data = np.where(rng.random((20, 20)) > 0.9, data + 1, data)
    return manager


def _answers(snap) -> tuple:
    """Everything a snapshot answers about its array."""
    versions = snap.get_versions()
    chains = {(row.version, row.attribute, row.chunk_name):
              list(snap.walk_chain(row.version, row.attribute,
                                   row.chunk_name))
              for row in snap.all_chunks()}
    return (versions, snap.latest_version(), snap.labels_of(),
            [snap.merge_parents_of(row.version) for row in versions],
            [snap.chunks_for_version(row.version) for row in versions],
            snap.all_chunks(), chains)


class TestOneSnapshotPerCall:
    """A reader resolves a whole call from one published catalog
    snapshot: a writer's commits publish new ones beside it and never
    change it."""

    def test_pinned_snapshot_survives_later_commits(self, tmp_path):
        manager = _chained(tmp_path)
        manager.label_version("C", 3, "middle")
        pinned = manager.catalog.snapshot("C")
        before = _answers(pinned)

        def writer():
            manager.insert("C", manager.select("C", 5).single() + 1)
            manager.delete_version("C", 3)
            manager.label_version("C", 6, "middle")

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert _answers(pinned) == before
        current = manager.catalog.snapshot("C")
        assert [row.version for row in current.get_versions()] == \
            [1, 2, 4, 5, 6]
        assert current.labels_of() == [("middle", 6)]
        manager.close()

    def test_selects_beside_layout_swaps_see_one_snapshot(self, tmp_path,
                                                          fan_width):
        # Per-version placement never reuses an object name, so a read
        # pinned on a snapshot whose objects were reclaimed can only be
        # refused (co-located staging appends to a recreated base path).
        manager = _chained(tmp_path, depth=8, backend="memory",
                           placement=PER_VERSION)
        truth = {v: manager.select("C", v).single().copy()
                 for v in range(1, 9)}
        # Which snapshot each chunk of each whole-version read was
        # located in, keyed by the canvas its window belongs to.
        located: list[tuple[np.ndarray, object]] = []
        decode = manager.decoder._decode_batch

        def spy(runs):
            located.extend((miss.out.base, miss.snap) for run in runs
                           for miss in run if miss.out is not None)
            return decode(runs)

        manager.decoder._decode_batch = spy
        stop = threading.Event()
        wrong: list[str] = []
        reads = [0]

        def reader():
            rng = np.random.default_rng(fan_width)
            while not stop.is_set():
                version = int(rng.integers(1, 9))
                try:
                    got = manager.select("C", version).single()
                except StorageError as error:
                    # A read pinned before a swap whose objects the
                    # rewrite then reclaimed: refused, never wrong.
                    if "missing chunk file" not in str(error):
                        wrong.append(repr(error))
                    continue
                if not np.array_equal(got, truth[version]):
                    wrong.append(f"C@{version}")
                reads[0] += 1

        thread = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave reads and the swaps
        thread.start()
        try:
            for _ in range(3):
                manager.apply_layout("C", {8: None, 7: 8, 6: 7, 5: 6,
                                           4: 5, 3: 4, 2: 3, 1: 2})
                manager.apply_layout("C", {1: None, 2: 1, 3: 2, 4: 3,
                                           5: 4, 6: 5, 7: 6, 8: 7})
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert wrong == [] and reads[0] > 0
        by_canvas: dict[int, set[int]] = {}
        for canvas, snap in located:
            by_canvas.setdefault(id(canvas), set()).add(id(snap))
        assert all(len(snaps) == 1 for snaps in by_canvas.values())
        assert len({id(snap) for _, snap in located}) > 1  # swaps landed
        manager.close()

    @staticmethod
    def _stalled_select(manager, name, version):
        """Start ``select(name, version)`` on a thread that stalls right
        after its first chunk read, holding those payloads and its
        snapshot, until ``release`` is set.  Returns (release, thread,
        result); ``result`` receives the array or the error."""
        stalled, release = threading.Event(), threading.Event()
        read_chunks = manager.store.read_chunks

        def spy(locations):
            payloads = read_chunks(locations)
            if not stalled.is_set():
                stalled.set()
                release.wait(timeout=60)
            return payloads

        manager.store.read_chunks = spy
        result: list = []

        def reader():
            try:
                result.append(manager.select(name, version).single())
            except StorageError as error:
                result.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        assert stalled.wait(timeout=60)
        return release, thread, result

    @pytest.mark.parametrize("cache", [dict(cache_bytes=1 << 20),
                                       dict(cache_bytes=800)],
                             ids=["warm-fill", "fused"])
    def test_read_pinned_before_a_delete_never_caches_it(self, tmp_path,
                                                         cache, cold):
        # Co-located with the reclaim held back: the deleted head's
        # bytes stay, so the read pinned before the swap succeeds — and
        # must not leave the deleted contents cached under the number
        # the next insert reuses.
        manager = _chained(tmp_path, depth=3, backend="memory",
                           placement=COLOCATED, **cache)
        old = manager.select("C", 3).single().copy()
        manager.cache.clear()
        release, thread, result = self._stalled_select(
            cold(manager, "C"), "C", 3)
        reclaim = manager.store.reclaim
        manager.store.reclaim = lambda paths: None
        manager.delete_version("C", 3)
        manager.store.reclaim = reclaim
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        np.testing.assert_array_equal(result[0], old)
        assert not [key for key in manager.cache._entries if key[1] == 3]
        assert manager.insert("C", old + 7) == 3
        np.testing.assert_array_equal(manager.select("C", 3).single(),
                                      old + 7)
        manager.close()

    def test_read_pinned_before_a_drop_never_caches_it(self, tmp_path,
                                                       cold):
        # SQLite hands the re-created array the dropped one's id, so a
        # stale entry would be read as the new array's version 1.
        manager = VersionedStorageManager(tmp_path, backend="memory",
                                          cache_bytes=1 << 20)
        schema = ArraySchema.simple((8, 8), dtype=np.int64)
        array_id = manager.create_array("D", schema).array_id
        manager.insert("D", np.ones((8, 8), np.int64))
        release, thread, result = self._stalled_select(
            cold(manager, "D"), "D", 1)
        manager.delete_array("D")
        assert manager.create_array("D", schema).array_id == array_id
        manager.insert("D", np.full((8, 8), 5, np.int64))
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        np.testing.assert_array_equal(result[0], 1)
        np.testing.assert_array_equal(manager.select("D", 1).single(), 5)
        manager.close()


class TestChainPrefetch:
    """A cache miss does one of two jobs: warm-fill the whole chain
    when it fits the cache's free space, or read just the requested
    version (fused) when it does not."""

    def test_roomy_cache_warm_fills_whole_chain(self, tmp_path, cold):
        manager = cold(_chained(tmp_path, cache_bytes=1 << 20), "C")
        with manager.stats.measure() as first:
            manager.select("C", 5)  # decodes every chain root→5 once
        assert first.chunks_read == 4 * 5  # 4 chunks, 5-deep chains
        assert first.chains_fused == 0
        info = manager.cache_info()
        assert info["prefetched"] == 4 * 4  # every level below v5
        assert info["prefetch_declined"] == 0
        with manager.stats.measure() as window:
            for version in (1, 2, 3, 4):
                manager.select("C", version)
        assert window.chunks_read == 0  # all served by the warm fill
        assert window.cache_misses == 0
        manager.close()

    def test_cached_ancestor_terminates_later_chain_walks(self, tmp_path,
                                                          cold):
        manager = cold(_chained(tmp_path, cache_bytes=1 << 20), "C")
        manager.select("C", 3)
        with manager.stats.measure() as window:
            manager.select("C", 5)  # chain walk stops at cached v3
        # Only the v4+v5 suffix of each of the four chains is read.
        assert window.chunks_read == 4 * 2
        manager.close()

    def test_tight_cache_fuses_and_admits_requested_only(self, tmp_path,
                                                         fan_width, cold):
        # Budget: one whole version (4 chunks of 800 B) plus one chunk
        # — a 5-deep chain of any chunk can never fit the free space.
        budget = 5 * 800
        manager = cold(_chained(tmp_path, cache_bytes=budget), "C")
        manager.select("C", 1)  # demanded: v1's four chunks
        demanded = manager.cache_info()["entries"]
        assert demanded == 4
        with manager.stats.measure() as window:
            manager.select("C", 5)  # deep cold read
        assert window.chains_fused == 4
        info = manager.cache_info()
        assert info["prefetch_declined"] == 4
        assert info["prefetched"] == 0
        assert info["bytes"] <= budget
        # Only the requested version went in; versions 2-4 did not.
        with manager.stats.measure() as window:
            manager.select("C", 5)
        assert window.chunks_read == 0
        for version in (2, 3, 4):
            with manager.stats.measure() as window:
                manager.select("C", version)
                assert manager.cache_info()["bytes"] <= budget
            assert window.cache_misses == 4
        manager.close()

    def test_a_call_warm_fills_only_what_its_free_space_holds(
            self, tmp_path, fan_width):
        # Room for two of the four 3-deep chains plus two single
        # chunks.  The whole call is planned before anything is
        # admitted, yet each warm fill must see the free space the
        # chunks before it will take: two fill, two read fused.
        budget = 2 * 3 * 800 + 2 * 800
        manager = _chained(tmp_path, cache_bytes=budget)
        with manager.stats.measure() as window:
            manager.select("C", 3)
        info = manager.cache_info()
        assert info["prefetch_declined"] == 2
        assert info["prefetched"] == 2 * 2      # v1 and v2 of two chunks
        assert window.chains_fused == 2
        assert info["entries"] == 2 * 3 + 2 and info["bytes"] == budget
        manager.close()

    def test_deep_cold_read_keeps_demanded_entries(self, tmp_path,
                                                   fan_width, cold):
        # Budget: array D's four demanded chunks plus the four chunks
        # of the version about to be requested.  The free space is
        # under one 5-deep chain, so every fill declines, the requested
        # chunks fit exactly, and nothing demanded is evicted.
        budget = 8 * 800
        manager = _chained(tmp_path, cache_bytes=budget)
        manager.create_array("D", ArraySchema.simple((20, 20),
                                                     dtype=np.int64))
        manager.insert("D", np.arange(400, dtype=np.int64)
                       .reshape(20, 20))
        cold(manager, "D").select("D", 1)
        with manager.stats.measure() as window:
            manager.select("C", 5)
        assert window.chains_fused == 4
        info = manager.cache_info()
        assert info["prefetch_declined"] == 4
        assert info["entries"] == 8 and info["bytes"] <= budget
        with manager.stats.measure() as window:
            manager.select("D", 1)
        assert window.chunks_read == 0  # still cached
        manager.close()

    def test_fused_read_leaves_cached_base_untouched(self, tmp_path,
                                                     fan_width, cold):
        """A fused walk that stops at a cached ancestor applies onto a
        fresh accumulator, never through the cached array."""
        manager = cold(_chained(tmp_path, cache_bytes=8 * 800), "C")
        manager.select("C", 2)  # warm fill: v1 + v2 use every byte
        before = manager.select("C", 2).single().copy()
        with manager.stats.measure() as window:
            manager.select("C", 5)  # walk stops at cached v2, fuses 3
        assert window.chains_fused == 4
        assert window.fused_levels == 4 * 3
        assert window.chunks_read == 4 * 3
        np.testing.assert_array_equal(manager.select("C", 2).single(),
                                      before)
        manager.close()

    @pytest.mark.parametrize("cache_bytes", (5 * 800, 1 << 20))
    def test_identical_results_either_job(self, tmp_path, cache_bytes):
        plain = _chained(tmp_path / "plain")  # cache off entirely
        cached = _chained(tmp_path / "cached", cache_bytes=cache_bytes)
        for version in (5, 1, 3, 2, 4, 5):
            np.testing.assert_array_equal(
                cached.select("C", version).single(),
                plain.select("C", version).single())
        plain.close()
        cached.close()


class TestTransactionalWriteBatching:
    def test_mid_write_failure_leaves_zero_chunk_rows(self, tmp_path):
        manager = _loaded(tmp_path, versions=2)
        record = manager.catalog.get_array("A")
        original = manager.store.write_chunk
        calls = {"n": 0}

        def failing_write(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:  # fail mid-version, after some payloads
                raise StorageError("disk full")
            return original(*args, **kwargs)

        manager.store.write_chunk = failing_write
        data = manager.select("A", 2)
        with pytest.raises(StorageError):
            manager.insert("A", data)
        manager.store.write_chunk = original

        # Zero chunk rows and no version row for the failed insert.
        assert manager.catalog.chunks_for_version(record.array_id, 3) \
            == []
        assert manager.get_versions("A") == [1, 2]
        # The store recovers: the next insert lands cleanly as v3.
        assert manager.insert("A", data) == 3
        np.testing.assert_array_equal(
            manager.select("A", 3).attribute("a"), data.attribute("a"))
        manager.close()

    def test_put_chunks_rolls_back_whole_batch(self):
        catalog = MetadataCatalog()
        schema = ArraySchema.simple((4, 4), dtype=np.int32)
        record = catalog.create_array("A", schema, chunk_bytes=64,
                                      compressor="none", created_at=0.0)

        def chunk_row(name, offset):
            return ChunkRecord(
                array_id=record.array_id, version=1, attribute="value",
                chunk_name=name, delta_codec=None, base_version=None,
                compressor="none",
                location=ChunkLocation("A/chunks/value/" + name,
                                       offset, 16))

        poisoned = chunk_row("chunk-1", 16)
        # A location sqlite cannot bind: executemany fails after BEGIN.
        object.__setattr__(poisoned, "location",
                           ChunkLocation("A", object(), 16))
        with pytest.raises(Exception):
            catalog.put_chunks([chunk_row("chunk-0", 0), poisoned])
        assert catalog.chunks_for_version(record.array_id, 1) == []

        catalog.put_chunks([chunk_row("chunk-0", 0),
                            chunk_row("chunk-1", 16)])
        assert len(catalog.chunks_for_version(record.array_id, 1)) == 2
        catalog.close()

    def test_failed_branch_leaves_no_partial_array(self, tmp_path):
        manager = _loaded(tmp_path, versions=2)
        original = manager.store.write_chunk
        calls = {"n": 0}

        def failing_write(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise StorageError("disk full")
            return original(*args, **kwargs)

        manager.store.write_chunk = failing_write
        with pytest.raises(StorageError):
            manager.branch("A", 2, "B")
        manager.store.write_chunk = original
        assert manager.list_arrays() == ["A"]
        # The branch works once the fault clears.
        manager.branch("A", 2, "B")
        assert manager.get_versions("B") == [1]
        manager.close()

    def test_failed_merge_leaves_no_partial_array(self, tmp_path):
        manager = _loaded(tmp_path, versions=3)
        original = manager.store.write_chunk
        calls = {"n": 0}

        def failing_write(*args, **kwargs):
            calls["n"] += 1
            # Let the first parent replay fully, fail during the second.
            if calls["n"] > 20:
                raise StorageError("disk full")
            return original(*args, **kwargs)

        manager.store.write_chunk = failing_write
        with pytest.raises(StorageError):
            manager.merge([("A", 1), ("A", 3)], "M")
        manager.store.write_chunk = original
        assert manager.list_arrays() == ["A"]
        manager.merge([("A", 1), ("A", 3)], "M")
        assert manager.get_versions("M") == [1, 2]
        manager.close()

    def test_rejected_overwrite_keeps_cache_warm(self, tmp_path, cold):
        """Regression: NoOverwriteError must not invalidate the cache."""
        manager = cold(_loaded(tmp_path, versions=2, cache_bytes=1 << 20),
                       "A")
        contents = manager.select("A", 2)  # warms the cache
        warm = manager.cache_info()["entries"]
        assert warm > 0
        record = manager.catalog.get_array("A")
        with pytest.raises(NoOverwriteError):
            manager.encoder.write_version(
                record, manager.grid_for(record), 2, contents,
                base_data=None, base_version=None)
        assert manager.cache_info()["entries"] == warm
        with manager.stats.measure() as window:
            manager.select("A", 2)
        assert window.chunks_read == 0  # still served from cache
        manager.close()
