"""Fused-vs-stepwise delta-chain read equivalence oracle.

The fused read path (:meth:`DecodePipeline.reconstruct`) copies the
decoded root once — into the caller's canvas window when it can — and
folds every composable level of the chain onto those cells in place, at
the cells' own width.  Its contract is byte-exactness: for every delta
policy, both delta modes (ARITHMETIC for integers, XOR for floats),
every cell type, chain depth and destination layout, and adversarial
cell values (wraparound at every width, NaN / signed-zero / infinity
bit patterns), the fused result must equal the level-by-level result
bit for bit, kernels on or off.  The level-by-level reference is
:func:`_stepwise_select` below — the stored chain walked with one
``decode_forward`` per level, straight off the catalog and the chunk
store — so both sides decode the very same stored bytes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.compression.registry import get_codec
from repro.core import native
from repro.core.errors import CodecError
from repro.core.schema import ArraySchema
from repro.delta.registry import get_delta_codec
from repro.storage.manager import VersionedStorageManager
from repro.storage.pipeline import DecodePipeline

DEPTH = 8
SHAPE = (16, 16)

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


def _stepwise_select(manager, name, version) -> np.ndarray:
    """The reference decode: each chunk's stored chain, root first,
    one full-array ``decode_forward`` per delta level."""
    record = manager.catalog.get_array(name)
    attr = record.schema.attributes[0]
    out = np.empty(record.schema.shape, dtype=attr.dtype)
    for chunk in manager.grid_for(record).chunks():
        chain = manager.catalog.get_chunk_chain(
            record.array_id, version, attr.name, chunk.name)
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
        # Depth-3+ selects of a composable chain must actually fuse.
        assert manager.stats.snapshot().chains_fused > 0
        # Reading must not disturb the store.
        assert manager.fingerprint("A") == before


def test_fused_counters_exact(tmp_path):
    """One deep select records exactly one fused chain, all levels."""
    versions = _int_versions()
    with _build(tmp_path / "s", versions, np.int64,
                delta_policy="chain", delta_codec="sparse") as manager:
        with manager.stats.measure() as window:
            manager.select("A", DEPTH)
        assert window.chains_fused == 1
        assert window.fused_levels == DEPTH - 1
        # Every sparse level composes by scatter, not a dense pass.
        assert window.scatter_levels == DEPTH - 1
    with _build(tmp_path / "d", versions, np.int64,
                delta_policy="chain", delta_codec="dense") as manager:
        with manager.stats.measure() as window:
            manager.select("A", DEPTH)
        assert window.chains_fused == 1
        assert window.fused_levels == DEPTH - 1
        assert window.scatter_levels == 0


def test_depth_one_chain_folds(tmp_path):
    """One delta level folds like any other chain (a stepwise decode
    would build a full-size codes canvas and widen the root for it);
    a bare materialized root is no chain at all."""
    versions = _int_versions()[:2]
    with _build(tmp_path / "s", versions, np.int64,
                delta_policy="chain", delta_codec="sparse") as manager:
        with manager.stats.measure() as window:
            got = manager.select("A", 2).attribute("value")
        assert np.array_equal(got, versions[1])
        assert (window.chains_fused, window.fused_levels,
                window.scatter_levels) == (1, 1, 1)
        with manager.stats.measure() as window:
            got = manager.select("A", 1).attribute("value")
        assert np.array_equal(got, versions[0])
        assert window.chains_fused == 0


@pytest.mark.parametrize("codec", ["bsdiff", "mpeg-like"])
def test_non_composable_codecs_fall_back(tmp_path, codec):
    """Directional codecs decode level-by-level, results still exact."""
    versions = _int_versions()
    with _build(tmp_path / "s", versions, np.int64,
                delta_policy="chain", delta_codec=codec) as manager:
        with manager.stats.measure() as window:
            got = manager.select("A", DEPTH).attribute("value")
        assert got.tobytes() == \
            np.ascontiguousarray(versions[DEPTH - 1]).tobytes()
        assert window.chains_fused == 0


def test_select_versions_shares_chain_scope(tmp_path):
    """Multi-version stacked selects fold common chain prefixes once.

    The fused path records only requested versions into the shared
    scope, so ``_stacked_select`` resolves in ascending version order —
    each chain walk stops at the previous version and the payload-read
    count stays exactly one per stored chunk for any requested order.
    """
    versions = _int_versions()
    order = [DEPTH, 3, 5, 1]        # deliberately unsorted
    with _build(tmp_path / "s", versions, np.int64,
                delta_policy="chain", delta_codec="hybrid") as m:
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


def test_roomy_cache_warm_fills_stepwise(tmp_path):
    """A chain that fits the cache's free space is warm-filled: no
    fusion on that first read, every version along the chain admitted,
    and every later read a hit."""
    versions = _int_versions()
    with _cached_chain(tmp_path / "s", versions,
                       cache_chunks=64) as manager:
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


def test_tight_cache_fuses_and_admits_requested_only(tmp_path):
    """A chain that does not fit the free space is read for the
    requested version alone: fused, one admission, repeat reads hit."""
    versions = _int_versions()
    with _cached_chain(tmp_path / "s", versions,
                       cache_chunks=2) as manager:
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


def test_append_leaves_cache_in_place(tmp_path):
    """Version contents are immutable, so an append invalidates
    nothing: old versions are still hits afterwards."""
    versions = _int_versions()
    with _cached_chain(tmp_path / "s", versions[:-1],
                       cache_chunks=64) as manager:
        manager.select("A", DEPTH - 1)
        entries = manager.cache_info()["entries"]
        assert entries == DEPTH - 1
        manager.insert("A", versions[-1].copy())
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
# The equivalence grid: cell type x depth x destination layout x workers
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
                                      delta_policy="chain", workers=0)
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
def test_equivalence_grid(tmp_path, dtype, layout, shape, chunk_shape):
    """Fused read == stepwise ``decode_forward`` == kernels off, by
    ``tobytes()``, at every depth 1..8, serial and fanned."""
    versions = _grid_versions(dtype, shape, DEPTH)
    with _build_grid(tmp_path / "s", dtype, shape, chunk_shape,
                     versions) as manager:
        record = manager.catalog.get_array("A")
        grid = manager.grid_for(record)
        # The deepest read really is a mixed chain of DEPTH - 1 levels,
        # in every chunk.
        for chunk in grid.chunks():
            chain = manager.catalog.get_chunk_chain(
                record.array_id, DEPTH, "value", chunk.name)
            assert [level.delta_codec for level in reversed(chain)] == \
                [None] + [LEVEL_CODECS[level % 4]
                          for level in range(1, DEPTH)]
        fanned = DecodePipeline(manager.catalog, manager.store, workers=4)
        try:
            for depth in range(1, DEPTH + 1):
                expected = versions[depth - 1].tobytes()
                assert _stepwise_select(manager, "A", depth).tobytes() \
                    == expected
                with manager.stats.measure() as window:
                    got = manager.select("A", depth).attribute("value")
                assert got.tobytes() == expected
                assert window.fused_levels == \
                    (depth - 1) * grid.chunk_count
                assert fanned.read_version(record, grid, depth) \
                    .attribute("value").tobytes() == expected
                with native.disabled():
                    assert manager.select("A", depth).attribute("value") \
                        .tobytes() == expected
        finally:
            fanned.close()


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
        workers=0, cache_bytes=3 * 40 * 36 * 4)
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
def test_read_allocates_no_chunk_sized_temporary(tmp_path):
    """The decode half of the allocation gate: a cache-off read of a
    16-chunk, depth-8 int32 array peaks at its canvas plus small
    change — the root is copied straight into the canvas and the chain
    folded there, so there is no widened accumulator, no concatenated
    position / delta arrays and no narrowed copy per chunk."""
    shape, chunk_shape = (1024, 1024), (256, 256)
    rng = np.random.default_rng(5)
    data = rng.integers(-1000, 1000, shape).astype(np.int32)
    manager = VersionedStorageManager(tmp_path / "s", backend="local",
                                      workers=0, delta_policy="chain")
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
        assert grid.chunk_count == 16
        manager.select("A", DEPTH)          # kernels built, pools warm
        tracemalloc.start()
        try:
            got = manager.decoder.read_version(record, grid, DEPTH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        canvas = got.attribute("value")
        # One 256 KiB root payload is in flight at a time; everything
        # else (chain payloads, catalog rows, ctypes arrays) is small.
        assert peak <= canvas.nbytes + (256 << 10) + (128 << 10), peak


def test_corrupt_level_is_named(tmp_path):
    """A malformed level's error says which array, version and chunk."""
    versions = _int_versions()
    with _build(tmp_path / "s", versions, np.int64, backend="memory",
                delta_policy="chain", delta_codec="sparse") as manager:
        record = manager.catalog.get_array("A")
        (level,) = manager.catalog.chunks_for_version(record.array_id, 5)
        stored = manager.store.backend._objects[level.location.path] \
            .consolidated()
        # Past the frame: the sparse table's entry count, made huge.
        at = level.location.offset + \
            get_delta_codec("sparse")._frame_size(versions[0])
        stored[at:at + 8] = (1 << 40).to_bytes(8, "little")
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
