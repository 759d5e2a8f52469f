"""Where the write path gets a version's contents, byte for byte.

An insert under a delta policy needs its base version, and a
delta-list update the version it patches.  Both ask one manager
function, ``_version_contents``: the hot slot's snapshot when that is
the version held, else an ordinary ``select`` — so a base is always a
canvas, and which of the two served it must never show in the stored
bytes.  Every scenario here runs one logical history twice, once with
the slot serving and once with it cold (the store reopened, the slot
taken by another array's write, forgotten by ``delete_version``, or
holding a different version than the one a delta-list names), and
holds the two stores to one fingerprint across every delta mode's
dtype family, both delta policies and the chunk cache on and off.
The counter and allocation gates pin what a cold base costs: exactly
a ``select`` of that version, and one canvas.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import native
from repro.core.array import DeltaListPayload
from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager

DTYPES = [np.int64, np.int32, np.int16, np.uint8, np.uint64,
          np.bool_, np.float64, np.float32]


def _versions(dtype, depth=5, shape=(40, 40), seed=2012):
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        cur = rng.integers(0, 2, shape).astype(dtype)
    elif dtype.kind == "f":
        cur = rng.normal(size=shape).astype(dtype)
    else:
        info = np.iinfo(dtype)
        cur = rng.integers(info.min // 2 if info.min else 0,
                           info.max // 2, shape).astype(dtype)
    out = [cur]
    for _ in range(depth - 1):
        cur = cur.copy()
        flat = cur.reshape(-1)
        picks = rng.choice(flat.size, flat.size // 20, replace=False)
        if dtype == np.bool_:
            flat[picks] = ~flat[picks]
        elif dtype.kind == "f":
            flat[picks] += rng.normal(size=picks.size).astype(dtype)
        else:
            flat[picks] = (flat[picks] + 3).astype(dtype)
        out.append(cur)
    return out


class _Store:
    """One store under test: reopenable, and recording — per call of
    ``_version_contents`` — whether the hot slot or ``select`` served."""

    def __init__(self, root, **kwargs):
        self.root = root
        self.kwargs = dict(chunk_bytes=4000, **kwargs)
        self.sources: list[str] = []
        self.manager = None
        self.reopen()

    def reopen(self) -> None:
        if self.manager is not None:
            self.manager.close()
        manager = self.manager = VersionedStorageManager(
            self.root, **self.kwargs)
        resolve = manager._version_contents

        def recording(record, version):
            held = manager._hot.get(record.name, version)
            self.sources.append("select" if held is None else "hot")
            return resolve(record, version)

        manager._version_contents = recording

    def prime(self, name: str, version: int) -> None:
        """Put ``name@version`` in the hot slot, as having just
        written it would."""
        self.manager._hot.remember(name, version,
                                   self.manager.select(name, version))

    def create(self, name: str, like: np.ndarray) -> None:
        self.manager.create_array(
            name, ArraySchema.simple(like.shape, dtype=like.dtype))


def _patch(data: np.ndarray, base_version: int, seed: int):
    """A delta-list touching a handful of cells of ``data``, and the
    array it denotes."""
    rng = np.random.default_rng(seed)
    cells = np.unravel_index(rng.choice(data.size, 6, replace=False),
                             data.shape)
    values = data[cells][::-1].copy()
    patched = data.copy()
    patched[cells] = values
    return DeltaListPayload.of(np.stack(cells, axis=1), values,
                               base_version), patched


def _reopen_before_every_insert(store, versions, cold):
    store.create("a", versions[0])
    for data in versions:
        if cold:
            store.reopen()
        store.manager.insert("a", data)
    return {"a": versions}


def _another_array_steals_the_slot(store, versions, cold):
    others = [np.flip(data).copy() for data in versions]
    store.create("a", versions[0])
    store.create("b", versions[0])
    if cold:
        for data, other in zip(versions, others):
            store.manager.insert("a", data)
            store.manager.insert("b", other)
    else:
        for data in versions:
            store.manager.insert("a", data)
        for other in others:
            store.manager.insert("b", other)
    return {"a": versions, "b": others}


def _insert_after_delete_version(store, versions, cold):
    # Deleting version 2 re-encodes version 3 against version 1 while
    # the slot holds version 4, and then forgets the slot: both writes
    # find it cold unless it is primed with the base they need.
    store.create("a", versions[0])
    for data in versions[:4]:
        store.manager.insert("a", data)
    if not cold:
        store.prime("a", 1)
    store.manager.delete_version("a", 2)
    if not cold:
        store.prime("a", 4)
    store.manager.insert("a", versions[4])
    return {"a": versions[:1] + [None] + versions[2:]}


def _delta_list_updates(store, versions, cold):
    # Against the head, one snapshot serves the patch and the delta
    # base; against an old version only the delta base can be hot.
    store.create("a", versions[0])
    for data in versions[:3]:
        store.manager.insert("a", data)
    on_head, fourth = _patch(versions[2], 3, seed=1)
    on_old, fifth = _patch(versions[0], 1, seed=2)
    for payload in (on_head, on_old):
        if cold:
            store.reopen()
        store.manager.insert("a", payload)
    return {"a": versions[:3] + [fourth, fifth]}


SCENARIOS = {
    "reopen": (_reopen_before_every_insert,
               ["hot"] * 4, ["select"] * 4),
    "stolen-slot": (_another_array_steals_the_slot,
                    ["hot"] * 8, ["select"] * 8),
    "after-delete": (_insert_after_delete_version,
                     ["hot"] * 5, ["hot"] * 3 + ["select"] * 2),
    "delta-list": (_delta_list_updates,
                   ["hot", "hot", "hot", "hot", "select", "hot"],
                   ["hot", "hot"] + ["select"] * 4),
}


class TestOneFingerprint:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("cache_bytes", [0, 1 << 20],
                             ids=["cache-off", "cache-on"])
    @pytest.mark.parametrize("delta_policy", ["chain", "auto"])
    @pytest.mark.parametrize("dtype", DTYPES,
                             ids=[np.dtype(d).name for d in DTYPES])
    def test_hot_and_select_bases_store_the_same_bytes(
            self, tmp_path, dtype, delta_policy, cache_bytes, scenario):
        run, hot_sources, cold_sources = SCENARIOS[scenario]
        versions = _versions(dtype)
        prints = {}
        for label, cold, expected in (("hot", False, hot_sources),
                                      ("cold", True, cold_sources)):
            store = _Store(tmp_path / label, delta_policy=delta_policy,
                           cache_bytes=cache_bytes)
            contents = run(store, versions, cold)
            # The scenario really took the path it is named for.
            assert store.sources == expected
            prints[label] = store.manager.fingerprint()
            for name, history in contents.items():
                for number, data in enumerate(history, start=1):
                    if data is not None:
                        assert np.array_equal(
                            store.manager.select(name, number).single(),
                            data)
            store.manager.close()
        assert prints["hot"] == prints["cold"]


    @pytest.mark.parametrize("kwargs", [
        dict(delta_policy="chain", delta_codec="bsdiff"),
        dict(delta_policy="materialize"),
    ], ids=["stepwise-base", "no-base"])
    def test_policies_the_fold_does_not_serve(self, tmp_path, kwargs):
        # A bsdiff chain decodes level by level, so that is how its
        # cold base is read; the materialize policy asks for no base.
        versions = _versions(np.int64, depth=3, shape=(16, 16))
        prints = {}
        for label, cold in (("hot", False), ("cold", True)):
            store = _Store(tmp_path / label, **kwargs)
            _reopen_before_every_insert(store, versions, cold)
            if kwargs["delta_policy"] == "materialize":
                assert store.sources == []
            prints[label] = store.manager.fingerprint()
            for number, data in enumerate(versions, start=1):
                assert np.array_equal(
                    store.manager.select("a", number).single(), data)
            store.manager.close()
        assert prints["hot"] == prints["cold"]


class TestColdBaseCost:
    def test_reads_its_base_exactly_as_a_select_does(self, tmp_path):
        versions = _versions(np.int32, depth=6)
        store = _Store(tmp_path / "s", delta_policy="chain")
        store.create("a", versions[0])
        for data in versions[:5]:
            store.manager.insert("a", data)
        chunks = len(list(store.manager.grid_for(
            store.manager.catalog.get_array("a")).chunks()))
        assert chunks > 1

        def window(action):
            store.reopen()
            manager = store.manager
            located = []
            locate = manager.decoder._locate_chain

            def counting(*args):
                located.append(args)
                return locate(*args)

            manager.decoder._locate_chain = counting
            with manager.stats.measure() as stats:
                action(manager)
            return stats, len(located)

        read, read_locates = window(lambda m: m.select("a", 5))
        wrote, write_locates = window(lambda m: m.insert("a", versions[5]))
        assert read_locates == write_locates == chunks
        assert wrote.chains_fused == read.chains_fused == chunks
        for counter in ("chunks_read", "bytes_read", "fused_levels",
                        "scatter_levels", "cache_misses", "ranged_gets"):
            assert getattr(wrote, counter) == getattr(read, counter), \
                counter
        assert store.sources[-1] == "select"
        store.manager.close()

    @pytest.mark.skipif(not native.available(),
                        reason="native kernels did not compile")
    def test_cold_base_insert_allocates_one_canvas(self, tmp_path):
        # 16 chunks of 256 KiB, depth 8.  The slot is emptied rather
        # than the store reopened so that its own snapshot canvas — the
        # same allocation on a hot insert — stays out of the window.
        # The base is then the select's output canvas plus one root
        # payload at a time.
        shape = (1024, 1024)
        versions = _versions(np.int32, depth=9, shape=shape)
        version_bytes = versions[0].nbytes
        manager = VersionedStorageManager(
            tmp_path / "s", chunk_bytes=256 << 10, delta_policy="chain",
            backend="local", workers=0)
        manager.create_array("a", ArraySchema.simple(shape,
                                                     dtype=np.int32))
        for data in versions[:8]:
            manager.insert("a", data)
        manager._hot.forget("a")
        tracemalloc.start()
        try:
            manager.insert("a", versions[8])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * version_bytes, peak / version_bytes
        assert np.array_equal(manager.select("a", 9).single(),
                              versions[8])
        manager.close()
