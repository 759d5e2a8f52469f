"""Fused-vs-stepwise delta-chain read equivalence oracle.

The read path (:meth:`DecodePipeline.read_region`) copies the decoded
root once into contiguous cells — the caller's canvas window when that
is contiguous, else the decoding thread's chunk buffer, which is copied
into the window after the fold — and folds every level of the chain
onto those cells in place, at the cells' own width; a cache warm fill
folds the same levels one at a time, into an owning copy per level.
Its contract is byte-exactness: for every delta policy, both delta
modes (ARITHMETIC for integers, XOR for floats), every cell type, chain
depth and destination layout, and adversarial cell values (wraparound
at every width, NaN / signed-zero / infinity bit patterns), the fused
result and every warm-filled level must equal the level-by-level
result bit for bit, kernels on or off.  The level-by-level reference
is :func:`_stepwise_select` below — the stored chain walked with one
``decode_forward`` per level, straight off the catalog and the chunk
store — so every side decodes the very same stored bytes.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.compression.registry import get_codec
from repro.core import native
from repro.core.errors import CodecError
from repro.core.schema import ArraySchema
from repro.core.serial import pack_array_header
from repro.delta.base import DeltaCodec, frame_size
from repro.delta.registry import get_delta_codec
from repro.storage import pipeline
from repro.storage.manager import VersionedStorageManager
from repro.storage.pipeline import ChunkCache, DecodePipeline

DEPTH = 8
SHAPE = (16, 16)
#: Bytes of one decoded chunk of the int64 ``SHAPE`` arrays below.
CHUNK = 16 * 16 * 8

#: (policy-id, manager kwargs) — the delta-policy axis of the oracle.
POLICIES = [
    ("dense", dict(delta_policy="chain", delta_codec="dense")),
    ("sparse", dict(delta_policy="chain", delta_codec="sparse")),
    ("hybrid", dict(delta_policy="chain", delta_codec="hybrid")),
    ("hybrid+lz", dict(delta_policy="chain", delta_codec="hybrid+lz")),
    ("auto", dict(delta_policy="auto")),
]


def _int_versions() -> list[np.ndarray]:
    """A DEPTH-long int64 version chain exercising ARITHMETIC mode.

    The root holds both int64 extremes; every level nudges the
    iinfo.max cell by +100, so the running value wraps around the
    signed range mid-chain — the fused accumulator must telescope
    through the wrap exactly.  Remaining mutations are small and
    sparse so every delta codec beats materialization and the chain
    actually reaches DEPTH levels.
    """
    rng = np.random.default_rng(7)
    info = np.iinfo(np.int64)
    cur = rng.integers(-1000, 1000, SHAPE, dtype=np.int64)
    cur[0, 0] = info.max
    cur[0, 1] = info.min
    versions = [cur]
    for level in range(1, DEPTH):
        cur = cur.copy()
        with np.errstate(over="ignore"):
            cur[0, 0] += 100          # crosses iinfo.max and wraps
            cur[0, 1] -= 100          # crosses iinfo.min and wraps
        rows = rng.integers(1, SHAPE[0], 6)
        cols = rng.integers(0, SHAPE[1], 6)
        cur[rows, cols] += rng.integers(-500, 500, 6)
        versions.append(cur)
    return versions


def _float_versions() -> list[np.ndarray]:
    """A DEPTH-long float64 version chain exercising XOR mode.

    The root seeds every special bit pattern (NaN, both signed zeros,
    both infinities, a denormal); some levels leave them untouched
    (identity folds must preserve the exact bit patterns) and later
    levels rewrite them (NaN -> finite, finite -> -0.0, -0.0 -> NaN),
    so the accumulator also composes the large XOR codes such
    transitions produce.
    """
    rng = np.random.default_rng(11)
    cur = rng.normal(0, 100, SHAPE)
    cur[0, 0] = np.nan
    cur[0, 1] = -0.0
    cur[0, 2] = 0.0
    cur[0, 3] = np.inf
    cur[0, 4] = -np.inf
    cur[0, 5] = 5e-324              # smallest positive denormal
    versions = [cur]
    for level in range(1, DEPTH):
        cur = cur.copy()
        rows = rng.integers(1, SHAPE[0], 6)
        cols = rng.integers(0, SHAPE[1], 6)
        cur[rows, cols] += rng.normal(0, 1, 6)
        if level == 4:
            cur[0, 0] = 1.5         # NaN -> finite
            cur[0, 2] = -0.0        # +0.0 -> -0.0 (sign-bit-only code)
        if level == 6:
            cur[0, 1] = np.nan      # -0.0 -> NaN
            cur[0, 3] = -np.inf     # inf sign flip
        versions.append(cur)
    return versions


MODES = [("arith", np.int64, _int_versions),
         ("xor", np.float64, _float_versions)]


def _build(root, versions, dtype, **kwargs):
    manager = VersionedStorageManager(root, **kwargs)
    manager.create_array(
        "A", ArraySchema.simple(SHAPE, dtype, attribute="value"))
    for data in versions:
        manager.insert("A", data.copy())
    return manager


def _read_whole(decoder, manager, version):
    """The whole of ``A@version`` through ``decoder``'s box read."""
    snap = manager.catalog.snapshot("A")
    shape = snap.record.schema.shape
    return decoder.read_region(snap, version, (0,) * len(shape),
                               tuple(extent - 1 for extent in shape))


def _stepwise_select(manager, name, version) -> np.ndarray:
    """The reference decode: each chunk's stored chain, root first,
    one full-array ``decode_forward`` per delta level."""
    record = manager.catalog.get_array(name)
    attr = record.schema.attributes[0]
    out = np.empty(record.schema.shape, dtype=attr.dtype)
    for chunk in manager.grid_for(record).chunks():
        chain = list(manager.catalog.snapshot(name).walk_chain(
            version, attr.name, chunk.name))
        payloads = manager.store.read_chunks(
            [level.location for level in chain])
        data = get_codec(chain[-1].compressor).decode(payloads[-1])
        for level, payload in zip(reversed(chain[:-1]),
                                  reversed(payloads[:-1])):
            data = get_delta_codec(level.delta_codec) \
                .decode_forward(payload, data)
        out[chunk.slices()] = data
    return out


@pytest.mark.parametrize("policy,kwargs", POLICIES,
                         ids=[p for p, _ in POLICIES])
@pytest.mark.parametrize("mode,dtype,make_versions", MODES,
                         ids=[m for m, _, _ in MODES])
def test_fused_equals_stepwise(tmp_path, policy, kwargs, mode, dtype,
                               make_versions):
    """Byte-identical arrays at every depth 1..DEPTH."""
    versions = make_versions()
    with _build(tmp_path / "s", versions, dtype, **kwargs) as manager:
        before = manager.fingerprint("A")
        for depth in range(1, DEPTH + 1):
            got_fused = manager.select("A", depth).attribute("value")
            got_step = _stepwise_select(manager, "A", depth)
            expected = versions[depth - 1]
            # tobytes() comparison is NaN-exact and sign-of-zero-exact.
            assert got_fused.tobytes() == got_step.tobytes()
            assert got_fused.tobytes() == \
                np.ascontiguousarray(expected).tobytes()
        # Depth-3+ selects must actually fuse.
        assert manager.stats.snapshot().chains_fused > 0
        # Reading must not disturb the store.
        assert manager.fingerprint("A") == before


def test_fused_counters_exact(tmp_path, cold):
    """One deep select records exactly one fused chain, all levels."""
    versions = _int_versions()
    with cold(_build(tmp_path / "s", versions, np.int64,
                     delta_policy="chain", delta_codec="sparse"),
              "A") as manager:
        with manager.stats.measure() as window:
            manager.select("A", DEPTH)
        assert window.chains_fused == 1
        assert window.fused_levels == DEPTH - 1
        # Every sparse level composes by scatter, not a dense pass.
        assert window.scatter_levels == DEPTH - 1
    with cold(_build(tmp_path / "d", versions, np.int64,
                     delta_policy="chain", delta_codec="dense"),
              "A") as manager:
        with manager.stats.measure() as window:
            manager.select("A", DEPTH)
        assert window.chains_fused == 1
        assert window.fused_levels == DEPTH - 1
        assert window.scatter_levels == 0


def test_depth_one_chain_folds(tmp_path, cold):
    """One delta level folds like any other chain (a stepwise decode
    would build a full-size codes canvas and widen the root for it);
    a bare materialized root is no chain at all."""
    versions = _int_versions()[:2]
    with cold(_build(tmp_path / "s", versions, np.int64,
                     delta_policy="chain", delta_codec="sparse"),
              "A") as manager:
        with manager.stats.measure() as window:
            got = manager.select("A", 2).attribute("value")
        assert np.array_equal(got, versions[1])
        assert (window.chains_fused, window.fused_levels,
                window.scatter_levels) == (1, 1, 1)
        with manager.stats.measure() as window:
            got = manager.select("A", 1).attribute("value")
        assert np.array_equal(got, versions[0])
        assert window.chains_fused == 0


def test_select_versions_shares_chain_scope(tmp_path, cold):
    """Multi-version stacked selects fold common chain prefixes once.

    The fused path records only requested versions into the shared
    scope, so ``_stacked_select`` resolves in ascending version order —
    each chain walk stops at the previous version and the payload-read
    count stays exactly one per stored chunk for any requested order.
    """
    versions = _int_versions()
    order = [DEPTH, 3, 5, 1]        # deliberately unsorted
    with cold(_build(tmp_path / "s", versions, np.int64,
                     delta_policy="chain", delta_codec="hybrid"),
              "A") as m:
        with m.stats.measure() as window:
            full = m.select_versions("A", list(range(1, DEPTH + 1)))
        # Ascending contiguous range: every chunk payload is read
        # exactly once.
        total_chunks = sum(
            len(m.catalog.chunks_for_version(1, v))
            for v in range(1, DEPTH + 1))
        assert window.chunks_read == total_chunks
        assert np.array_equal(full, np.stack(versions))
        with m.stats.measure() as window:
            picked = m.select_versions("A", order)
        # Sorted, the walks are 1, 3->1, 5->3, 8->5: the multi-level
        # ones fuse, and again no payload is read twice.
        assert window.chunks_read == DEPTH
        assert window.chains_fused == 3
    for layer, version in enumerate(order):
        assert np.array_equal(picked[layer], versions[version - 1])


def _cached_chain(root, versions, **cache):
    manager = VersionedStorageManager(
        root, delta_policy="chain", delta_codec="sparse", **cache)
    manager.create_array(
        "A", ArraySchema.simple(SHAPE, np.int64, attribute="value"))
    for data in versions:
        manager.insert("A", data.copy())
    return manager


def test_roomy_cache_warm_fills_stepwise(tmp_path, cold):
    """A chain that fits the cache's free space is warm-filled level by
    level: no fusion on that first read, every version along the chain
    admitted, and every later read a hit."""
    versions = _int_versions()
    with cold(_cached_chain(tmp_path / "s", versions,
                            cache_bytes=64 * CHUNK), "A") as manager:
        with manager.stats.measure() as window:
            manager.select("A", DEPTH)
        assert window.chains_fused == 0
        assert manager.cache_info()["prefetched"] == DEPTH - 1
        with manager.stats.measure() as window:
            for version in range(1, DEPTH + 1):
                got = manager.select("A", version).attribute("value")
                assert got.tobytes() == versions[version - 1].tobytes()
        assert window.chunks_read == 0
        assert window.cache_misses == 0


def test_tight_cache_fuses_and_admits_requested_only(tmp_path, cold):
    """A chain that does not fit the free space is read for the
    requested version alone: fused, one admission, repeat reads hit."""
    versions = _int_versions()
    with cold(_cached_chain(tmp_path / "s", versions,
                            cache_bytes=2 * CHUNK), "A") as manager:
        with manager.stats.measure() as window:
            first = manager.select("A", DEPTH).attribute("value")
        assert window.chains_fused == 1
        info = manager.cache_info()
        assert (info["entries"], info["prefetched"],
                info["prefetch_declined"]) == (1, 0, 1)
        with manager.stats.measure() as window:
            again = manager.select("A", DEPTH).attribute("value")
        assert window.chunks_read == 0
        assert first.tobytes() == again.tobytes() \
            == versions[DEPTH - 1].tobytes()


def test_append_leaves_cache_in_place(tmp_path, cold):
    """Version contents are immutable, so an append invalidates
    nothing: old versions are still hits afterwards."""
    versions = _int_versions()
    with cold(_cached_chain(tmp_path / "s", versions[:-1],
                            cache_bytes=64 * CHUNK), "A") as manager:
        manager.select("A", DEPTH - 1)
        entries = manager.cache_info()["entries"]
        assert entries == DEPTH - 1
        manager.insert("A", versions[-1].copy())
        cold(manager, "A")
        assert manager.cache_info()["entries"] == entries
        with manager.stats.measure() as window:
            old = manager.select("A", 3).attribute("value")
        assert window.chunks_read == 0 and window.cache_misses == 0
        assert old.tobytes() == versions[2].tobytes()
        # The new head reads through the cached chain below it.
        with manager.stats.measure() as window:
            head = manager.select("A", DEPTH).attribute("value")
        assert window.chunks_read == 1
        assert head.tobytes() == versions[-1].tobytes()


def test_read_region_single_chunk_returns_view(tmp_path):
    """``read_region`` with one covering chunk slices the reconstructed
    chunk directly instead of copying through a canvas."""
    versions = _int_versions()
    with _build(tmp_path / "s", versions, np.int64,
                delta_policy="chain", delta_codec="hybrid") as manager:
        # SHAPE fits one default chunk, so any region is single-chunk.
        region = manager.select_region("A", DEPTH, (2, 3), (9, 12))
        got = region.attribute("value")
        assert np.array_equal(got, versions[DEPTH - 1][2:10, 3:13])
        # The full-array region is a zero-copy view of the chunk.
        full = manager.select_region(
            "A", DEPTH, (0, 0), (SHAPE[0] - 1, SHAPE[1] - 1))
        assert np.array_equal(full.attribute("value"),
                              versions[DEPTH - 1])
        assert not full.attribute("value").flags.writeable


# ----------------------------------------------------------------------
# The equivalence grid: cell type x depth x destination layout x width
# ----------------------------------------------------------------------
CELL_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
              np.uint32, np.uint64, np.bool_, np.float16, np.float32,
              np.float64]

#: (id, array shape, chunk shape): where a chunk lies in its canvas.
LAYOUTS = [
    ("contiguous", (1024,), (256,)),          # a run of the canvas
    ("row-strided", (40, 36), (20, 16)),      # rows one stride apart
    ("one-column", (600, 3), (300, 1)),       # unit-extent inner axis
    ("three-d", (8, 12, 10), (4, 6, 5)),      # no two strides describe it
    ("whole-canvas", (20, 24), None),         # the chunk is the canvas
]

#: The codec each version is written with — every fold layout, and the
#: sealed one, inside one chain.
LEVEL_CODECS = ["dense", "sparse", "hybrid", "hybrid+lz"]


def _grid_versions(dtype, shape, depth: int) -> list[np.ndarray]:
    """``depth`` versions of any cell type, edited through the
    unsigned image of the cells so every width wraps: cell 0 starts at
    the type's largest value and gains 3 per level (int8 crosses +127,
    uint64 runs past 2**64 - 1), cell 1 starts at its smallest and
    loses 3 (unsigned cells land above the top bit), and levels
    alternate between a few large edits (which wrap wherever they
    land) and many +-1 edits (kept off the wrap boundaries, so those
    levels stay narrow enough for the dense codec to beat
    materializing) — sparse tables and dense small-code sections both
    occur."""
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(2012)
    count = int(np.prod(shape))
    if dtype.kind == "b":
        image = (rng.random(count) < 0.5).astype(np.uint8)
    else:
        image = np.frombuffer(rng.bytes(count * dtype.itemsize),
                              dtype=f"u{dtype.itemsize}").copy()
        bits = 8 * dtype.itemsize
        image[:2] = [(1 << bits - 1) - 1, 1 << bits - 1] \
            if dtype.kind == "i" else [(1 << bits) - 1, 0]
    versions = [image.view(dtype).reshape(shape).copy()]
    for level in range(1, depth):
        image = image.copy()
        many = level % 2 == 0
        cells = rng.choice(count, count * 6 // 10 if many else count // 20,
                           replace=False)
        cells = cells[cells > 1]
        if dtype.kind == "b":
            image[cells] ^= 1
        elif dtype.kind == "f":
            image[cells] ^= rng.integers(
                1, 4 if many else 1 << 8 * dtype.itemsize - 1,
                cells.size, dtype=np.uint64).astype(image.dtype)
            image[0] ^= 1 << level          # walks up into the exponent
        else:
            if many:
                near_wrap = (image[cells] + 1) % (1 << bits - 1) < 2
                cells = cells[~near_wrap]
            image[cells] += rng.integers(
                -1 if many else -(1 << 20), 2 if many else 1 << 20,
                cells.size).astype(image.dtype)
            image[:1] += 3
            image[1:2] -= 3
        versions.append(image.view(dtype).reshape(shape).copy())
    return versions


def _build_grid(root, dtype, shape, chunk_shape, versions):
    manager = VersionedStorageManager(root, backend="memory",
                                      delta_policy="chain")
    manager.create_array(
        "A", ArraySchema.simple(shape, dtype, attribute="value"),
        chunk_shape=chunk_shape)
    for level, data in enumerate(versions):
        manager.encoder.delta_codec_name = \
            LEVEL_CODECS[level % len(LEVEL_CODECS)]
        manager.insert("A", data.copy())
    return manager


@pytest.mark.parametrize("layout,shape,chunk_shape", LAYOUTS,
                         ids=[name for name, _, _ in LAYOUTS])
@pytest.mark.parametrize("dtype", CELL_TYPES, ids=str)
def test_equivalence_grid(tmp_path, pin_fan, cold, dtype, layout, shape,
                          chunk_shape):
    """Fused read == stepwise ``decode_forward`` == kernels off ==
    every level of a warm fill, by ``tobytes()``, at every depth 1..8,
    inline and fanned."""
    versions = _grid_versions(dtype, shape, DEPTH)
    with pin_fan(1), cold(_build_grid(tmp_path / "s", dtype, shape,
                                      chunk_shape, versions),
                          "A") as manager:
        record = manager.catalog.get_array("A")
        grid = manager.grid_for(record)
        # The deepest read really is a mixed chain of DEPTH - 1 levels,
        # in every chunk.
        for chunk in grid.chunks():
            chain = list(manager.catalog.snapshot("A").walk_chain(
                DEPTH, "value", chunk.name))
            assert [level.delta_codec for level in reversed(chain)] == \
                [None] + [LEVEL_CODECS[level % 4]
                          for level in range(1, DEPTH)]
        fanned = DecodePipeline(manager.catalog, manager.store)
        for depth in range(1, DEPTH + 1):
            _check_warm_fill(manager, record, grid, depth, versions)
            expected = versions[depth - 1].tobytes()
            assert _stepwise_select(manager, "A", depth).tobytes() \
                == expected
            with manager.stats.measure() as window:
                got = manager.select("A", depth).attribute("value")
            assert got.tobytes() == expected
            assert window.fused_levels == \
                (depth - 1) * len(grid.chunks())
            with pin_fan(4):
                assert _read_whole(fanned, manager, depth) \
                    .attribute("value").tobytes() == expected
            with native.disabled():
                assert manager.select("A", depth).attribute("value") \
                    .tobytes() == expected


def _check_warm_fill(manager, record, grid, depth, versions) -> None:
    """One read of ``depth`` through an empty, roomy cache: a warm fill
    that folds nothing as a chain, admits every version along it, and
    whose every admitted level is that version, byte for byte."""
    chunks = grid.chunks()
    nbytes = sum(version.nbytes for version in versions)
    warm = DecodePipeline(manager.catalog, manager.store,
                          cache=ChunkCache(max_bytes=4 * nbytes))
    with manager.stats.measure() as window:
        got = _read_whole(warm, manager, depth).attribute("value")
    assert got.tobytes() == versions[depth - 1].tobytes()
    assert window.chains_fused == 0
    info = warm.cache.info()
    assert info["prefetched"] == (depth - 1) * len(chunks)
    assert info["entries"] == depth * len(chunks)
    for (_, version, _, name), data in warm.cache._entries.items():
        (chunk,) = [chunk for chunk in chunks if chunk.name == name]
        assert data.tobytes() == np.ascontiguousarray(
            versions[version - 1][chunk.slices()]).tobytes()


def test_misaligned_zero_copy_root(tmp_path):
    """An int64 root read through the identity compressor is a
    zero-copy view 21 bytes into its payload — unaligned for its cells;
    the one root copy must not care."""
    versions = _int_versions()
    with _build(tmp_path / "s", versions, np.int64,
                delta_policy="chain", delta_codec="hybrid") as manager:
        record = manager.catalog.get_array("A")
        (root,) = manager.catalog.chunks_for_version(record.array_id, 1)
        payload, = manager.store.read_chunks([root.location])
        view = get_codec(root.compressor).decode_view(payload)
        assert not view.flags.aligned and not view.flags.writeable
        got = manager.select("A", DEPTH).attribute("value")
        assert got.tobytes() == versions[-1].tobytes()


def test_cache_entries_own_their_bytes(tmp_path):
    """With the cache on a fold never lands in the caller's canvas:
    every admitted entry is a buffer of its own, byte-accounted
    exactly, and survives the canvases handed out."""
    versions = _grid_versions(np.int32, (40, 36), DEPTH)
    manager = VersionedStorageManager(
        tmp_path / "s", backend="memory", delta_policy="chain",
        cache_bytes=3 * 40 * 36 * 4)
    with manager:
        manager.create_array(
            "A", ArraySchema.simple((40, 36), np.int32, attribute="value"),
            chunk_shape=(20, 16))
        for data in versions:
            manager.insert("A", data.copy())
        canvases = [manager.select("A", depth).attribute("value")
                    for depth in (DEPTH, 3, DEPTH, 1, 5)]
        info = manager.cache_info()
        entries = list(manager.cache._entries.values())
        assert info["entries"] == len(entries) > 0
        assert info["bytes"] == sum(entry.nbytes for entry in entries)
        assert info["prefetch_declined"] > 0      # folds happened
        for entry in entries:
            assert not any(np.shares_memory(entry, canvas)
                           for canvas in canvases)
        for canvas, depth in zip(canvases, (DEPTH, 3, DEPTH, 1, 5)):
            assert canvas.tobytes() == versions[depth - 1].tobytes()


@pytest.mark.skipif(not native.available(),
                    reason="the numpy fold unpacks into temporaries")
@pytest.mark.parametrize("fan_width", [1], indirect=True)
def test_read_allocates_no_chunk_sized_temporary(tmp_path, fan_width,
                                                cold):
    """The decode half of the allocation gate: a cache-off read of a
    16-chunk, depth-8 int32 array peaks at its canvas plus small
    change — each strided chunk's root is copied into the thread's
    chunk buffer (allocated by the warm-up read; what it keeps is
    bounded by ``test_fold_buffer_kept_is_bounded``), the chain folded
    there and the result copied into the canvas, so there is no widened
    accumulator, no concatenated position / delta arrays and no
    narrowed copy per chunk."""
    shape, chunk_shape = (1024, 1024), (256, 256)
    rng = np.random.default_rng(5)
    data = rng.integers(-1000, 1000, shape).astype(np.int32)
    manager = VersionedStorageManager(tmp_path / "s", backend="local",
                                      delta_policy="chain")
    with manager:
        manager.create_array(
            "A", ArraySchema.simple(shape, np.int32, attribute="value"),
            chunk_shape=chunk_shape)
        for _ in range(DEPTH):
            manager.insert("A", data)
            data = data.copy()
            cells = rng.choice(data.size, 2000, replace=False)
            data.reshape(-1)[cells] += rng.integers(
                -50, 50, cells.size).astype(np.int32)
        record = manager.catalog.get_array("A")
        grid = manager.grid_for(record)
        assert len(grid.chunks()) == 16
        cold(manager, "A").select("A", DEPTH)   # kernels built, pools warm
        tracemalloc.start()
        try:
            got = _read_whole(manager.decoder, manager, DEPTH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        canvas = got.attribute("value")
        # One 256 KiB root payload is in flight at a time; everything
        # else (chain payloads, catalog rows, ctypes arrays) is small.
        assert peak <= canvas.nbytes + (256 << 10) + (128 << 10), peak


def _corrupt_level(manager, version: int, like: np.ndarray):
    """Make the entry count of ``version``'s sparse table (past its
    frame) huge in the stored bytes; that version's chunk row."""
    record = manager.catalog.get_array("A")
    (level,) = manager.catalog.chunks_for_version(record.array_id, version)
    backend, path = manager.store.backend, level.location.path
    stored = bytearray(backend.read(path, 0, backend.total_bytes(path)))
    at = level.location.offset + frame_size(like)
    stored[at:at + 8] = (1 << 40).to_bytes(8, "little")
    backend.write(path, bytes(stored))
    return level


def test_corrupt_level_is_named(tmp_path, cold):
    """A malformed level's error says which array, version and chunk."""
    versions = _int_versions()
    with cold(_build(tmp_path / "s", versions, np.int64, backend="memory",
                     delta_policy="chain", delta_codec="sparse"),
              "A") as manager:
        level = _corrupt_level(manager, 5, versions[0])
        for kernels_off in (False, True):
            with pytest.raises(CodecError) as refused:
                if kernels_off:
                    with native.disabled():
                        manager.select("A", DEPTH)
                else:
                    manager.select("A", DEPTH)
            message = str(refused.value)
            assert "'A' version 5" in message
            assert f"chunk {level.chunk_name}" in message
            assert "sparse" in message
        # Versions below the damage still read.
        assert manager.select("A", 4).attribute("value").tobytes() == \
            versions[3].tobytes()


def test_corrupt_level_is_named_alike_on_a_warm_fill(tmp_path, cold):
    """A warm fill folds level by level; a malformed level in the
    middle of its chain raises the very error a cache-off read raises,
    naming array, version and chunk, and nothing is admitted."""
    versions = _int_versions()
    with cold(_build(tmp_path / "s", versions, np.int64, backend="memory",
                     delta_policy="chain", delta_codec="sparse"),
              "A") as manager:
        level = _corrupt_level(manager, 5, versions[0])
        warm = DecodePipeline(manager.catalog, manager.store,
                              cache=ChunkCache(max_bytes=64 * CHUNK))
        refusals = []
        for read in (lambda: manager.select("A", DEPTH),
                     lambda: _read_whole(warm, manager, DEPTH)):
            with pytest.raises(CodecError) as refused:
                read()
            refusals.append(str(refused.value))
        info = warm.cache.info()
        assert info["prefetch_declined"] == 0      # it was a warm fill
        assert info["entries"] == 0
        assert refusals[0] == refusals[1]
        assert "'A' version 5" in refusals[1]
        assert f"chunk {level.chunk_name}" in refusals[1]


def test_concurrent_reads_fold_in_their_own_buffers(tmp_path, fan_width):
    """Every decoding thread folds in a chunk buffer of its own: four
    clients reading different versions at once (strided windows, chunks
    of two sizes, cache off) each get exactly their version."""
    versions = _grid_versions(np.int32, (40, 36), DEPTH)
    manager = VersionedStorageManager(tmp_path / "s", backend="memory",
                                      delta_policy="chain")
    with manager:
        manager.create_array(
            "A", ArraySchema.simple((40, 36), np.int32, attribute="value"),
            chunk_shape=(20, 16))
        for data in versions:
            manager.insert("A", data.copy())
        wrong = []
        start = threading.Barrier(4)

        def client(first: int) -> None:
            start.wait()
            for turn in range(12):
                version = (first + turn) % DEPTH + 1
                got = manager.select("A", version).attribute("value")
                if got.tobytes() != versions[version - 1].tobytes():
                    wrong.append(version)

        clients = [threading.Thread(target=client, args=(first,))
                   for first in (1, 3, 5, 7)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the clients finely
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert wrong == []
        assert manager.stats.snapshot().chains_fused > 0


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "dropped"])
def test_fold_buffer_kept_is_bounded(tmp_path, monkeypatch, fan_width,
                                     kept):
    """What the decoding threads keep once a read is over, counted from
    before their first read: one strided chunk's cells per thread while
    a chunk fits ``_KEPT_FOLD_BYTES``, released with the manager that
    read them, and nothing for a chunk larger than that."""
    if not kept:
        monkeypatch.setattr(pipeline, "_KEPT_FOLD_BYTES", 64 << 10)
    shape, chunk_shape = (512, 512), (256, 256)
    chunk_bytes, slack = 256 * 256 * 4, 128 << 10
    rng = np.random.default_rng(9)
    data = rng.integers(-1000, 1000, shape).astype(np.int32)
    native.available()              # the kernels load before counting
    manager = VersionedStorageManager(tmp_path / "s", backend="memory",
                                      delta_policy="chain")
    manager.create_array(
        "A", ArraySchema.simple(shape, np.int32, attribute="value"),
        chunk_shape=chunk_shape)
    for level in range(DEPTH):
        if level:
            data = data.copy()
            cells = rng.choice(data.size, 500, replace=False)
            data.reshape(-1)[cells] += 7
        manager.insert("A", data)
    record = manager.catalog.get_array("A")
    grid = manager.grid_for(record)
    tracemalloc.start()
    try:
        got = _read_whole(manager.decoder, manager, DEPTH)
        held, _ = tracemalloc.get_traced_memory()
        manager.close()
        del manager     # its decoder, and every thread's buffer with it
        released, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    canvas = got.attribute("value")
    assert canvas.tobytes() == data.tobytes()
    threads = min(fan_width, len(grid.chunks()))
    if kept:
        assert chunk_bytes <= held - canvas.nbytes \
            <= threads * chunk_bytes + slack, held
    else:
        assert held - canvas.nbytes <= slack, held
    assert released - canvas.nbytes <= slack, released


# ----------------------------------------------------------------------
# One native call per chunk, and the long way for what it declines
# ----------------------------------------------------------------------
def _hybrid_chain(root, **kwargs):
    """A (40, 36) int32 array of DEPTH versions in (20, 16) chunks —
    six chunks, strided windows of two widths — every level hybrid."""
    versions = _grid_versions(np.int32, (40, 36), DEPTH)
    manager = VersionedStorageManager(root, delta_policy="chain",
                                      **kwargs)
    manager.create_array(
        "A", ArraySchema.simple((40, 36), np.int32, attribute="value"),
        chunk_shape=(20, 16))
    for data in versions:
        manager.insert("A", data.copy())
    return manager, versions


def _count_calls(monkeypatch) -> list:
    """Count the calls into the compiled fold entry (from any thread)."""
    lib = native._load()
    real, calls = lib.repro_fold_chain, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lib, "repro_fold_chain", counted)
    return calls


@pytest.mark.skipif(not native.available(),
                    reason="counts the compiled calls")
def test_one_native_call_per_chunk(tmp_path, monkeypatch, fan_width, cold):
    """A cache-off whole-version select of a depth-k chain is exactly
    one compiled call per chunk — root copy, root header and frame
    checks, every level and the window copy — and no frame is parsed in
    Python, inline and fanned."""
    manager, versions = _hybrid_chain(tmp_path / "s", backend="memory")
    with cold(manager, "A"):
        chunks = manager.grid_for(manager.catalog.get_array("A")).chunks()
        snap = manager.catalog.snapshot("A")
        assert all(len(list(snap.walk_chain(DEPTH, "value", chunk.name)))
                   == DEPTH for chunk in chunks)
        calls = _count_calls(monkeypatch)
        sections = []
        section = DeltaCodec.section
        monkeypatch.setattr(
            DeltaCodec, "section",
            lambda codec, *args: sections.append(codec)
            or section(codec, *args))
        for depth in (1, 2, 5, DEPTH):
            calls.clear()
            with manager.stats.measure() as window:
                got = manager.select("A", depth).attribute("value")
            assert got.tobytes() == versions[depth - 1].tobytes()
            assert len(calls) == len(chunks)
            assert window.fused_levels == (depth - 1) * len(chunks)
        assert sections == []


def test_lz_sealed_levels_take_the_long_way(tmp_path, monkeypatch):
    """Levels stored LZ-sealed under the plain ``hybrid`` name are
    valid (the codec inflates them) but not the compiled call's to
    read: it declines each chunk before writing anything, and the long
    way reads every version byte for byte."""
    root = tmp_path / "s"
    manager, versions = _hybrid_chain(root, backend="local",
                                      delta_codec="hybrid+lz")
    manager.catalog._conn.execute(
        "UPDATE chunks SET delta_codec = 'hybrid'"
        " WHERE delta_codec = 'hybrid+lz'")
    manager.catalog._conn.commit()
    manager.close()
    with VersionedStorageManager(root, delta_policy="chain") as manager:
        snap = manager.catalog.snapshot("A")
        assert {row.delta_codec for row in snap.walk_chain(
            DEPTH, "value", "chunk-0-0-19-15.dat")} == {"hybrid", None}
        for kernels in (True, False):
            with contextlib.nullcontext() if kernels else native.disabled():
                for depth in range(1, DEPTH + 1):
                    assert manager.select("A", depth).attribute("value") \
                        .tobytes() == versions[depth - 1].tobytes()


def _rewrite_stored(manager, edit) -> None:
    """Apply ``edit(payload) -> payload`` (same length) to every stored
    payload of array A."""
    record = manager.catalog.get_array("A")
    backend = manager.store.backend
    for row in manager.catalog.all_chunks(record.array_id):
        path, at = row.location.path, row.location.offset
        stored = bytearray(backend.read(path, 0, backend.total_bytes(path)))
        payload = edit(bytes(stored[at:at + row.location.length]))
        assert len(payload) == row.location.length
        stored[at:at + len(payload)] = payload
        backend.write(path, bytes(stored))


def test_respelled_headers_take_the_long_way(tmp_path, cold):
    """Every root header and delta frame spelling its dtype "=i4"
    rather than "<i4" is valid: the compiled call declines each one and
    the long way reads every version byte for byte, cache on or off."""
    for cache in (0, 1 << 20):
        manager, versions = _hybrid_chain(tmp_path / f"s{cache}",
                                          backend="memory",
                                          cache_bytes=cache)
        with cold(manager, "A"):
            _rewrite_stored(manager,
                            lambda payload: payload[:1] + b"=" + payload[2:])
            for depth in (DEPTH, *range(1, DEPTH + 1)):
                assert manager.select("A", depth).attribute("value") \
                    .tobytes() == versions[depth - 1].tobytes()


@pytest.mark.parametrize("kernels", [True, False], ids=["native", "numpy"])
def test_root_header_disagreeing_with_the_chunk_is_named(tmp_path, cold,
                                                         kernels):
    """A root whose header names another shape with the same cells is
    refused — array, version and chunk named — whether the chain above
    it is empty or not, and never reshaped into the canvas."""
    manager, _ = _hybrid_chain(tmp_path / "s", backend="memory")
    with cold(manager, "A"):
        header = pack_array_header(np.dtype(np.int32), (20, 16))
        swapped = pack_array_header(np.dtype(np.int32), (16, 20))
        _rewrite_stored(manager, lambda payload: swapped
                        + payload[len(header):]
                        if payload.startswith(header) else payload)
        for depth in (1, DEPTH):
            with contextlib.nullcontext() if kernels \
                    else native.disabled():
                with pytest.raises(CodecError) as refused:
                    manager.select("A", depth)
            message = str(refused.value)
            assert message.startswith("'A' version 1 chunk chunk-0-0-19-15")
            assert "root (int32, (16, 20)) does not match the chunk" \
                in message


def test_corrupt_level_names_what_the_long_way_names(tmp_path, cold,
                                                    monkeypatch):
    """A malformed level fails the compiled call part-way; the read
    then raises exactly the error the long way alone raises."""
    versions = _int_versions()
    with cold(_build(tmp_path / "s", versions, np.int64, backend="memory",
                     delta_policy="chain", delta_codec="sparse"),
              "A") as manager:
        _corrupt_level(manager, 5, versions[0])
        refusals = []
        for one_call in (True, False):
            if not one_call:
                monkeypatch.setattr(DecodePipeline, "_decode_in_one_call",
                                    lambda *args: None)
            with pytest.raises(CodecError) as refused:
                manager.select("A", DEPTH)
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        assert refusals[0].startswith("'A' version 5 chunk ")
