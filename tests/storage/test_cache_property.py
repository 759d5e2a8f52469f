"""Property tests of the chunk cache's two admission strengths and of
cached stores against a cache-off twin.

Whatever the chain depth, codec, cache budget, parallelism, and
interleaving of reads with appends, a cached store must return exactly
what the same store returns with the cache off; its byte budget must
hold after every operation; and a speculative
(non-evicting) admission must never cost the cache an entry.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schema import ArraySchema
from repro.storage import ChunkCache, VersionedStorageManager

SHAPE = (24, 24)
CHUNK_BYTES = 12 * 12 * 8  # a 2x2 grid of 8-byte cells
CHUNKS = 4


@settings(max_examples=200, deadline=None)
@given(max_bytes=st.sampled_from((0, 64, 200, 1000)),
       ops=st.lists(st.tuples(st.sampled_from(("put", "fill", "get")),
                              st.integers(0, 9),
                              st.sampled_from((8, 40, 160, 320))),
                    max_size=40))
def test_cache_budgets_and_no_evict_admission(max_bytes, ops):
    cache = ChunkCache(max_bytes=max_bytes)
    for kind, key, nbytes in ops:
        before = cache.info()
        if kind == "get":
            cache.get((key,))
            continue
        cache.put((key,), np.zeros(nbytes, dtype=np.uint8),
                  evict=kind == "put")
        after = cache.info()
        if max_bytes:
            assert after["bytes"] <= max_bytes
        if kind == "fill":
            # Speculative admission only ever takes free space: the
            # cache grows by this one entry or does not change at all.
            grew = after["entries"] - before["entries"]
            assert grew in (0, 1)
            assert after["prefetched"] - before["prefetched"] == grew
            assert after["bytes"] - before["bytes"] == grew * nbytes
    total = sum(entry.nbytes for entry in cache._entries.values())
    assert cache.info()["bytes"] == total


def _step(rng, data):
    """Next version: a few scattered cells and one small patch."""
    data = data.copy()
    flat = data.reshape(-1)
    picks = rng.choice(flat.size, size=6, replace=False)
    if data.dtype.kind == "f":
        flat[picks] += rng.normal(size=6)
    else:
        flat[picks] += rng.integers(-50, 50, 6)
    r, c = rng.integers(0, SHAPE[0] - 3, 2)
    data[r:r + 3, c:c + 3] = data[r:r + 3, c:c + 3] + 1
    return data


@settings(max_examples=30, deadline=None)
@given(depth=st.integers(2, 7),
       codec=st.sampled_from(("dense", "sparse", "hybrid")),
       dtype=st.sampled_from((np.int64, np.float64)),
       budget=st.sampled_from(("off", "chunk", "half-chain", "all")),
       workers=st.sampled_from((0, 4)),
       ops=st.lists(st.one_of(
           st.tuples(st.just("read"), st.integers(0, 63)),
           st.tuples(st.just("range"), st.integers(0, 63)),
           st.tuples(st.just("append"), st.just(0))),
           min_size=1, max_size=14),
       seed=st.integers(0, 2 ** 16))
def test_cached_store_equals_cache_off_store(depth, codec, dtype,
                                             budget, workers, ops, seed):
    max_bytes = {"off": 0, "chunk": CHUNK_BYTES,
                 "half-chain": max(1, depth // 2) * CHUNK_BYTES,
                 "all": 64 * CHUNKS * CHUNK_BYTES}[budget]
    rng = np.random.default_rng(seed)
    schema = ArraySchema.simple(SHAPE, dtype=dtype)
    stores = [VersionedStorageManager(
        f"/unused/{name}", backend="memory", chunk_bytes=CHUNK_BYTES,
        delta_policy="chain", delta_codec=codec, workers=workers,
        cache_bytes=cache_bytes)
        for name, cache_bytes in (("plain", 0), ("cached", max_bytes))]
    plain, cached = stores
    truth: list[np.ndarray] = []

    def append():
        data = _step(rng, truth[-1]) if truth else (
            rng.normal(size=SHAPE) if np.dtype(dtype).kind == "f"
            else rng.integers(-1000, 1000, SHAPE)).astype(dtype)
        for store in stores:
            assert store.insert("A", data) == len(truth) + 1
        truth.append(data)

    if workers == 0:
        # Serial reads make before/after comparable: a speculative
        # admission must never cost the cache an entry.
        admit = cached.cache.put

        def checked_put(key, data, *, evict=True, valid=None):
            before = cached.cache_info()["entries"]
            admit(key, data, evict=evict, valid=valid)
            assert evict or cached.cache_info()["entries"] >= before

        cached.cache.put = checked_put

    def check_budgets():
        info = cached.cache_info()
        if max_bytes:
            assert info["bytes"] <= max_bytes

    try:
        for store in stores:
            store.create_array("A", schema)
        for _ in range(depth):
            append()
        for kind, pick in ops:
            if kind == "append":
                append()
            elif kind == "read":
                version = 1 + pick % len(truth)
                got = cached.select("A", version).single()
                want = plain.select("A", version).single()
                assert got.tobytes() == want.tobytes() \
                    == truth[version - 1].tobytes()
            else:
                start = 1 + pick % len(truth)
                versions = list(range(start, min(len(truth),
                                                 start + 2) + 1))
                got = cached.select_versions("A", versions)
                want = plain.select_versions("A", versions)
                assert got.tobytes() == want.tobytes()
            check_budgets()
        if budget == "off":
            assert cached.cache_info()["entries"] == 0
    finally:
        for store in stores:
            store.close()
