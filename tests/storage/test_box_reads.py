"""The one box read behind every select form.

``DecodePipeline.read_region`` folds each overlapping chunk's chain
into a box: a chunk wholly inside the box is lent its window of the
canvas, a chunk the box cuts is decoded on its own and its overlap
copied.  Whole, region, stacked and stacked-region selects are all
calls of it, so they must agree with one another and with the data
inserted — into a caller's strided window or not, cache off, tight or
roomy, at every fan width and under both placements — and a read into
the caller's canvases must allocate nothing box-sized.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.array import ArrayData
from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.storage import COLOCATED, PER_VERSION, VersionedStorageManager
from repro.storage import pipeline
from repro.storage.pipeline import DecodePipeline

#: A 4 x 4 grid of ragged chunks over non-zero-based coordinates.
ORIGIN = (3, -2)
SHAPE = (20, 18)
CHUNK_SHAPE = (6, 5)
DEPTH = 5
SCHEMA = ArraySchema(
    dimensions=tuple(Dimension(name, lo, lo + extent - 1) for name, lo, extent
                     in zip(("I", "J"), ORIGIN, SHAPE)),
    attributes=(Attribute("count", np.dtype(np.int32)),
                Attribute("level", np.dtype(np.float64))))
#: Bytes of the largest decoded chunk.
CHUNK_BYTES = CHUNK_SHAPE[0] * CHUNK_SHAPE[1] * 8
CACHES = {"off": 0, "tight": CHUNK_BYTES, "roomy": 1 << 20}
SENTINEL = -7


def _versions(seed: int) -> list[dict[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    data = {"count": rng.integers(-1000, 1000, SHAPE).astype(np.int32),
            "level": rng.normal(size=SHAPE)}
    versions = [data]
    for _ in range(DEPTH - 1):
        data = {name: cells.copy() for name, cells in data.items()}
        picks = rng.choice(data["count"].size, size=12, replace=False)
        data["count"].reshape(-1)[picks] += 3
        data["level"].reshape(-1)[picks[:6]] *= -0.5
        versions.append(data)
    return versions


def _strided_window(shape: tuple[int, ...], dtype) -> tuple:
    """A sentinel-filled canvas and a strided ``shape`` window of it."""
    canvas = np.full((shape[0] + 3, 2 * shape[1] + 4), SENTINEL,
                     dtype=dtype)
    return canvas, canvas[1:1 + shape[0], 2:2 + 2 * shape[1]:2]


corner = st.tuples(st.integers(0, SHAPE[0] - 1),
                   st.integers(0, SHAPE[1] - 1))


# ``pin_fan`` hands back one stateless function, so sharing it across
# examples is safe.
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(first=corner, second=corner, whole=st.booleans(),
       versions=st.lists(st.integers(1, DEPTH), min_size=1, max_size=6),
       cache=st.sampled_from(sorted(CACHES)),
       width=st.sampled_from((1, 4)),
       placement=st.sampled_from((COLOCATED, PER_VERSION)),
       seed=st.integers(0, 2 ** 16))
def test_every_select_form_reads_the_same_box(pin_fan, first, second,
                                              whole, versions, cache,
                                              width, placement, seed):
    lo = tuple(map(min, first, second))
    hi = tuple(map(max, first, second))
    if whole:
        lo, hi = (0, 0), tuple(extent - 1 for extent in SHAPE)
    box = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
    corner_lo = tuple(l + o for l, o in zip(lo, ORIGIN))
    corner_hi = tuple(h + o for h, o in zip(hi, ORIGIN))
    truth = _versions(seed)
    # Hypothesis reruns the body, so it pins the width itself.
    with pin_fan(width), VersionedStorageManager(
            "/unused/box", backend="memory", placement=placement,
            delta_policy="chain", cache_bytes=CACHES[cache]) as manager:
        manager.create_array("A", SCHEMA, chunk_shape=CHUNK_SHAPE)
        for data in truth:
            manager.insert("A", ArrayData(SCHEMA, data))
        regions = {}
        for version in versions:
            whole_read = manager.select("A", version)
            region = manager.select_region("A", version, corner_lo,
                                           corner_hi)
            windows = {}
            for attr in SCHEMA.attributes:
                windows[attr.name] = _strided_window(region.schema.shape,
                                                     attr.dtype)
            assert manager.select_region(
                "A", version, corner_lo, corner_hi,
                out={name: window for name, (_, window)
                     in windows.items()}) is None
            for attr in SCHEMA.attributes:
                name = attr.name
                expected = truth[version - 1][name][box]
                np.testing.assert_array_equal(
                    whole_read.attribute(name)[box], expected)
                np.testing.assert_array_equal(region.attribute(name),
                                              expected)
                canvas, window = windows[name]
                np.testing.assert_array_equal(window, expected)
                outside = np.ones(canvas.shape, dtype=bool)
                outside[1:1 + window.shape[0],
                        2:2 + 2 * window.shape[1]:2] = False
                assert (canvas[outside] == SENTINEL).all()
            regions[version] = region
        for attr in SCHEMA.attributes:
            stacked = manager.select_versions_region(
                "A", versions, corner_lo, corner_hi, attribute=attr.name)
            np.testing.assert_array_equal(stacked, np.stack(
                [regions[v].attribute(attr.name) for v in versions]))
            if whole:
                np.testing.assert_array_equal(
                    manager.select_versions("A", versions,
                                            attribute=attr.name), stacked)


def _chain(tmp_path, shape, chunk_shape, depth):
    """A cache-off chain-policy store of ``depth`` int32 versions."""
    rng = np.random.default_rng(11)
    data = rng.integers(-1000, 1000, shape).astype(np.int32)
    manager = VersionedStorageManager(tmp_path / "s", backend="memory",
                                      delta_policy="chain")
    manager.create_array(
        "A", ArraySchema.simple(shape, np.int32, attribute="value"),
        chunk_shape=chunk_shape)
    versions = []
    for _ in range(depth):
        manager.insert("A", data)
        versions.append(data)
        data = data.copy()
        cells = rng.choice(data.size, 2000, replace=False)
        data.reshape(-1)[cells] += 5
    return manager, versions


def test_region_into_out_allocates_no_box_sized_temporary(tmp_path,
                                                          fan_width,
                                                          cold):
    """A cache-off ``select_region(out=)`` of a 64-chunk box folds each
    inner chunk through its window of ``out`` and each cut chunk into
    cells of its own: nothing box-sized is ever allocated."""
    shape, chunk_shape = (1024, 1024), (128, 128)
    chunk_bytes = 128 * 128 * 4
    manager, versions = _chain(tmp_path, shape, chunk_shape, 4)
    with manager:
        lo, hi = (100, 100), (899, 899)
        out = np.empty((800, 800), dtype=np.int32)
        cold(manager, "A").select_region("A", 4, lo, hi,
                                         out={"value": out})  # warm up
        out[...] = 0
        tracemalloc.start()
        try:
            manager.select_region("A", 4, lo, hi, out={"value": out})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, versions[-1][100:900, 100:900])
        # The fan's window holds a few chunks (and their payloads) at
        # once; the box is 2.4 MiB.
        bound = (fan_width + 2) * 2 * chunk_bytes + (128 << 10)
        assert bound < out.nbytes // 2
        assert peak <= bound, peak


@pytest.mark.parametrize("box", [((0, 0), (511, 511)),
                                 ((30, 30), (480, 480))],
                         ids=["whole", "region"])
def test_stacked_select_holds_one_chunk_per_version(tmp_path, fan_width,
                                                    cold, box):
    """A cache-off stacked select resolves chunk after chunk, each
    chunk's versions sharing one scope that dies with the chunk: it
    peaks at the stack plus one chunk per version and small change."""
    shape, chunk_shape, depth = (512, 512), (128, 128), 6
    chunk_bytes = 128 * 128 * 4
    manager, versions = _chain(tmp_path, shape, chunk_shape, depth)
    with manager:
        lo, hi = box
        layers = list(range(1, depth + 1))
        cold(manager, "A").select_versions_region("A", layers, lo, hi)
        tracemalloc.start()
        try:
            stack = manager.select_versions_region("A", layers, lo, hi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
        np.testing.assert_array_equal(
            stack, np.stack([version[window] for version in versions]))
        assert peak <= stack.nbytes + depth * chunk_bytes + (256 << 10), \
            peak


@pytest.mark.parametrize("box", [((0, 0), (511, 511)),
                                 ((30, 30), (480, 480))],
                         ids=["whole", "region"])
def test_stacked_layers_folding_onto_one_version(tmp_path, fan_width, cold,
                                                 box):
    """A cache-off stack over a star layout — every version a delta of
    version 1 — folds two or more layers of each chunk onto one held
    version: the layer that takes it in turn must not fold over it
    while a later one still needs it.  Every layer equals its own
    select, inline and fanned."""
    shape, chunk_shape, depth = (512, 512), (128, 128), 6
    manager, versions = _chain(tmp_path, shape, chunk_shape, depth)
    with manager:
        manager.apply_layout("A", {1: None, **{v: 1 for v in
                                                range(2, depth + 1)}})
        lo, hi = box
        window = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
        layers = [1, 3, 2, 6, 4, 5]
        stack = cold(manager, "A").select_versions_region("A", layers,
                                                          lo, hi)
        np.testing.assert_array_equal(
            stack, np.stack([versions[v - 1][window] for v in layers]))


@pytest.mark.parametrize("cache", ["off", "roomy"])
def test_one_chunk_box_is_a_view_only_across_whole_rows(cache, cold):
    """With one chunk under the box and no ``out``, each attribute is
    the chunk's cells cut to the box: a view of the chunk when the box
    spans whole rows of it, else the one contiguous copy ``ArrayData``
    makes.  Both are read-only, and no cached chunk can be written
    through either, not even by setting the flag back."""
    with VersionedStorageManager("/unused/view", backend="memory",
                                 delta_policy="chain",
                                 cache_bytes=CACHES[cache]) as manager:
        manager.create_array("A", SCHEMA, chunk_shape=CHUNK_SHAPE)
        truth = _versions(5)[:2]
        for data in truth:
            manager.insert("A", ArrayData(SCHEMA, data))
        cold(manager, "A")
        snap = manager.catalog.snapshot("A")
        chunk = snap.record.grid.chunk_at((1, 1))
        rows = chunk.lo, (chunk.hi[0] - 2, chunk.hi[1])
        cut = chunk.lo, (chunk.hi[0], chunk.hi[1] - 1)
        boxes = {"whole": (chunk.lo, chunk.hi), "rows": rows, "cut": cut}
        reads = {label: [manager.decoder.read_region(snap, 2, lo, hi)
                         for _ in range(2)]
                 for label, (lo, hi) in boxes.items()}
        for label, (lo, hi) in boxes.items():
            window = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
            for attr in SCHEMA.attributes:
                name = attr.name
                first, again = (read.attribute(name)
                                for read in reads[label])
                np.testing.assert_array_equal(again, truth[1][name][window])
                assert np.shares_memory(first, again) == \
                    (label != "cut" and cache == "roomy")
                for cells in (first, again):
                    assert not cells.flags.writeable
                    with pytest.raises(ValueError):
                        cells[(0,) * cells.ndim] = 1
                if cache == "off":
                    continue
                entry = manager.cache.peek(
                    (snap.record.array_id, 2, name, chunk.name))
                assert np.shares_memory(again, entry) == (label != "cut")
                assert not entry.flags.writeable
                if label != "cut":
                    with pytest.raises(ValueError):
                        again.setflags(write=True)
                np.testing.assert_array_equal(
                    entry, truth[1][name][chunk.slices()])


def test_stacked_select_is_one_plan_and_one_fan_batch(monkeypatch,
                                                      fan_width, cold):
    """A cache-off stacked select builds one read plan for all its
    layers and cuts every chunk x layer into batches at once, one run
    per chunk — here one batch, as its work does not pay for a lane;
    each run's walks stop at the layer below, so every chunk row in the
    box is read once."""
    truth = _versions(3)
    with VersionedStorageManager("/unused/stack", backend="memory",
                                 delta_policy="chain") as manager:
        manager.create_array("A", SCHEMA, chunk_shape=CHUNK_SHAPE)
        for data in truth:
            manager.insert("A", ArrayData(SCHEMA, data))
        cold(manager, "A")
        plans, batches = [], []

        class CountedPlan(pipeline.ReadPlan):
            def __init__(self, *args):
                plans.append(args)
                super().__init__(*args)

        cut = DecodePipeline._batches

        def spy(runs):
            made, inline = cut(runs)
            batches.append([len(batch) for batch in made])
            return made, inline

        monkeypatch.setattr(pipeline, "ReadPlan", CountedPlan)
        monkeypatch.setattr(DecodePipeline, "_batches", staticmethod(spy))
        lo, hi = (2, 3), (15, 12)
        versions = [DEPTH, 2, 4, 1, 3]
        with manager.stats.measure() as window:
            stack = manager.select_versions_region(
                "A", versions, tuple(map(sum, zip(lo, ORIGIN))),
                tuple(map(sum, zip(hi, ORIGIN))), attribute="count")
        chunks = manager.catalog.snapshot("A").record.grid \
            .chunks_overlapping(lo, hi)
    box = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
    np.testing.assert_array_equal(
        stack, np.stack([truth[v - 1]["count"][box] for v in versions]))
    assert len(plans) == 1
    assert batches == [[len(chunks)]]
    assert window.chunks_read == DEPTH * len(chunks)


def _stacking(monkeypatch) -> list:
    """Spy on the cut into batches: each read that decodes is recorded
    as the length of each run of each batch its misses make."""
    calls, cut = [], DecodePipeline._batches

    def spy(runs):
        made, inline = cut(runs)
        calls.append([[len(run) for run in batch] for batch in made])
        return made, inline

    monkeypatch.setattr(DecodePipeline, "_batches", staticmethod(spy))
    return calls


@pytest.mark.parametrize("cache", ["tight", "roomy"])
def test_cached_stacked_select_is_one_fan_batch(monkeypatch, fan_width,
                                                cold, cache):
    """With the cache on, a cold stacked select plans every chunk x
    layer first too: its misses are cut into batches at once — here
    one batch — one run per chunk holding every layer, each walk stopping
    at the layer below, so every chunk row in the box is read once.
    Each layer's chunk is then admitted: a second stack is answered by
    the cache alone when it holds every chunk."""
    truth = _versions(5)
    with VersionedStorageManager("/unused/stack", backend="memory",
                                 delta_policy="chain",
                                 cache_bytes=CACHES[cache]) as manager:
        manager.create_array("A", SCHEMA, chunk_shape=CHUNK_SHAPE)
        for data in truth:
            manager.insert("A", ArrayData(SCHEMA, data))
        cold(manager, "A")
        calls = _stacking(monkeypatch)
        lo, hi = (2, 3), (15, 12)
        corners = (tuple(map(sum, zip(lo, ORIGIN))),
                   tuple(map(sum, zip(hi, ORIGIN))))
        versions = [DEPTH, 2, 4, 1, 3]
        with manager.stats.measure() as window:
            stack = manager.select_versions_region(
                "A", versions, *corners, attribute="count")
        chunks = manager.catalog.snapshot("A").record.grid \
            .chunks_overlapping(lo, hi)
        assert calls == [[[DEPTH] * len(chunks)]]
        assert window.chunks_read == DEPTH * len(chunks)
        assert window.cache_misses == DEPTH * len(chunks)
        again = manager.select_versions_region(
            "A", versions, *corners, attribute="count")
        assert len(calls) == (1 if cache == "roomy" else 2)
    box = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
    expected = np.stack([truth[v - 1]["count"][box] for v in versions])
    np.testing.assert_array_equal(stack, expected)
    np.testing.assert_array_equal(again, expected)


@pytest.mark.parametrize("layout", ["chain", "head"])
@pytest.mark.parametrize("versions", [[DEPTH, 2, 4, 1, 3], [4, 2, 4],
                                      [3, DEPTH]],
                         ids=["all", "repeated", "suffix"])
def test_cached_stack_equals_uncached_stack_and_layer_selects(
        cold, fan_width, layout, versions):
    """A stack read through the cache — cold, then warm — equals the
    cache-off stack and one ``select_region`` per layer, on a forward
    chain and after ``reorganize(mode="head")`` turns it around (the
    head materialized, every older version a delta of the next)."""
    truth = _versions(11)
    lo, hi = (1, 0), (18, 16)
    corners = (tuple(map(sum, zip(lo, ORIGIN))),
               tuple(map(sum, zip(hi, ORIGIN))))
    stacks = {}
    for cache, budget in sorted(CACHES.items()):
        with VersionedStorageManager("/unused/stack", backend="memory",
                                     delta_policy="chain",
                                     cache_bytes=budget) as manager:
            manager.create_array("A", SCHEMA, chunk_shape=CHUNK_SHAPE)
            for data in truth:
                manager.insert("A", ArrayData(SCHEMA, data))
            if layout == "head":
                manager.reorganize("A", mode="head")
            cold(manager, "A")
            for attr in ("count", "level"):
                layers = np.stack([manager.select_region(
                    "A", v, *corners).attribute(attr) for v in versions])
                manager.cache.clear()
                for turn in ("cold", "warm"):
                    stacks[cache, attr, turn] = stack = \
                        manager.select_versions_region(
                            "A", versions, *corners, attribute=attr)
                    np.testing.assert_array_equal(stack, layers)
    box = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
    for (_, attr, _), stack in stacks.items():
        np.testing.assert_array_equal(stack, np.stack(
            [truth[v - 1][attr][box] for v in versions]))
