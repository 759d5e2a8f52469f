"""Where the write path gets a version's contents, byte for byte.

An insert under a delta policy needs its base version, and a
delta-list update the version it patches.  Both ask one write-path
function, ``writes.version_contents``: the hot slot's snapshot when that is
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
from repro.storage import VersionedStorageManager, pipeline, writes
from repro.storage.writes import _HotSlot

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
    ``writes.version_contents`` on its manager — whether the hot slot
    or ``select`` served."""

    def __init__(self, root, monkeypatch, **kwargs):
        self.root = root
        self.kwargs = dict(chunk_bytes=4000, **kwargs)
        self.sources: list[str] = []
        self.manager = None
        self.reopen()
        resolve = writes.version_contents

        def recording(manager, record, version):
            if manager is self.manager:
                held = manager._hot.get(record.name, version)
                self.sources.append("select" if held is None else "hot")
            return resolve(manager, record, version)

        monkeypatch.setattr(writes, "version_contents", recording)

    def reopen(self) -> None:
        if self.manager is not None:
            self.manager.close()
        self.manager = VersionedStorageManager(self.root, **self.kwargs)

    def prime(self, name: str, version: int) -> None:
        """Put ``name@version`` in the hot slot, as having just
        written it would."""
        self.manager._hot.remember(
            name, version, self.manager.select(name, version),
            self.manager.catalog.snapshot(name).get_version(version))

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
            self, tmp_path, monkeypatch, dtype, delta_policy, cache_bytes,
            scenario):
        run, hot_sources, cold_sources = SCENARIOS[scenario]
        versions = _versions(dtype)
        prints = {}
        for label, cold, expected in (("hot", False, hot_sources),
                                      ("cold", True, cold_sources)):
            store = _Store(tmp_path / label, monkeypatch,
                           delta_policy=delta_policy, cache_bytes=cache_bytes)
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
        dict(delta_policy="materialize"),
    ], ids=["no-base"])
    def test_policies_the_fold_does_not_serve(self, tmp_path, monkeypatch,
                                              kwargs):
        # The materialize policy asks for no base.
        versions = _versions(np.int64, depth=3, shape=(16, 16))
        prints = {}
        for label, cold in (("hot", False), ("cold", True)):
            store = _Store(tmp_path / label, monkeypatch, **kwargs)
            _reopen_before_every_insert(store, versions, cold)
            assert store.sources == []
            prints[label] = store.manager.fingerprint()
            for number, data in enumerate(versions, start=1):
                assert np.array_equal(
                    store.manager.select("a", number).single(), data)
            store.manager.close()
        assert prints["hot"] == prints["cold"]


class TestColdBaseCost:
    def test_reads_its_base_exactly_as_a_select_does(self, tmp_path,
                                                     monkeypatch):
        versions = _versions(np.int32, depth=6)
        store = _Store(tmp_path / "s", monkeypatch, delta_policy="chain")
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
    @pytest.mark.parametrize("fan_width", [1], indirect=True)
    def test_cold_base_insert_allocates_one_canvas(self, tmp_path,
                                                   fan_width,
                                                   monkeypatch):
        # 16 chunks of 256 KiB, depth 8.  The slot is emptied rather
        # than the store reopened so that its own snapshot canvas — the
        # same allocation on a hot insert — stays out of the window.
        # The base is then the select's output canvas plus one decode
        # batch's payloads at a time, bounded by the batch budget, set
        # here to about two chunks: far below the read.
        monkeypatch.setattr(pipeline, "_BATCH_BYTES", 512 << 10)
        shape = (1024, 1024)
        versions = _versions(np.int32, depth=9, shape=shape)
        version_bytes = versions[0].nbytes
        manager = VersionedStorageManager(
            tmp_path / "s", chunk_bytes=256 << 10, delta_policy="chain",
            backend="local")
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


def _replayed(root, history, **kwargs) -> tuple[str, list]:
    """The fingerprint and stored digests of a fresh store that
    inserted ``history`` (with the hot slot serving every base)."""
    manager = VersionedStorageManager(root, chunk_bytes=1600, **kwargs)
    manager.create_array("a", ArraySchema.simple(history[0].shape,
                                                 dtype=history[0].dtype))
    for data in history:
        manager.insert("a", data)
    stored = manager.fingerprint(), manager.stored_digests("a")
    manager.close()
    return stored


class TestHotSlotAdoption:
    """An insert whose base the hot slot holds is encoded onto the
    slot's canvas, which so becomes the new version without a copy.
    Whatever happens to the canvas on the way, the stored bytes are
    those of a store that never had a hot slot."""

    def _manager(self, root, **kwargs):
        manager = VersionedStorageManager(root, chunk_bytes=1600,
                                          **kwargs)
        manager.create_array("a", ArraySchema.simple((40, 40),
                                                     dtype=np.int32))
        return manager

    def test_a_hot_insert_is_adopted_not_copied(self, tmp_path,
                                                monkeypatch):
        versions = _versions(np.int32, depth=4)
        manager = self._manager(tmp_path / "s", backend="memory")
        manager.insert("a", versions[0])
        copies = []
        remember = _HotSlot.remember
        monkeypatch.setattr(_HotSlot, "remember",
                            lambda slot, *args: copies.append(args[:2])
                            or remember(slot, *args))
        for data in versions[1:]:
            manager.insert("a", data)
        assert copies == []
        assert np.array_equal(manager._hot.get("a", 4).attribute("value"),
                              versions[3])
        assert manager.fingerprint() == _replayed(
            tmp_path / "replay", versions, backend="memory")[0]
        manager.close()

    def test_mutating_the_callers_buffer_changes_no_delta(self, tmp_path):
        versions = _versions(np.int32, depth=4)
        manager = self._manager(tmp_path / "s", backend="memory")
        buffer = versions[0].copy()
        for number, data in enumerate(versions, start=1):
            buffer[...] = data
            manager.insert("a", buffer)
            # The caller goes on writing into the buffer it inserted.
            buffer[...] = -7
        for number, data in enumerate(versions, start=1):
            assert np.array_equal(manager.select("a", number).single(),
                                  data)
        assert manager.fingerprint() == _replayed(
            tmp_path / "replay", versions, backend="memory")[0]
        manager.close()

    @pytest.mark.parametrize("fault", [6, 8], ids=["mid-version",
                                                   "last-chunk"])
    def test_a_failed_stage_leaves_no_stale_canvas(self, tmp_path, fault,
                                                   fan_width):
        # Four chunks a version, appended in order: append 6 is the
        # second chunk of version 2, append 8 its last.  The chunks
        # encoded before the fault have overwritten their canvas
        # windows; a retry with other data must not delta against them.
        from repro.core.errors import StorageError
        from repro.storage.backend import (
            FaultInjectingBackend,
            InMemoryBackend,
        )

        versions = _versions(np.int32, depth=3)
        backend = FaultInjectingBackend(
            InMemoryBackend(), schedule={"append": frozenset({fault})})
        manager = self._manager(tmp_path / "s", backend=backend)
        manager.insert("a", versions[0])
        with pytest.raises(StorageError):
            manager.insert("a", versions[1])
        assert manager.get_versions("a") == [1]
        retried = versions[2]
        assert manager.insert("a", retried) == 2
        assert np.array_equal(manager.select("a", 2).single(), retried)
        # The failed placements left bytes no row names, so offsets
        # differ from the replay's; the stored payloads may not.
        assert manager.stored_digests("a") == _replayed(
            tmp_path / "replay", [versions[0], retried],
            backend="memory")[1]
        manager.close()

    def test_a_multi_version_stage_adopts_only_a_head_on_the_canvas(
            self, tmp_path):
        versions = _versions(np.int32, depth=4)
        manager = self._manager(tmp_path / "s", backend="memory")
        manager.insert("a", versions[0])
        manager.insert("a", versions[1])
        # Version 3 deltas against the slot's canvas (lent and
        # overwritten), version 4 against version 3's payload: the head
        # is not on the canvas, so the commit copies it in.
        staged = writes.stage(manager, "a", [versions[2], versions[3]])
        assert staged.lease is None
        assert manager._hot.get("a", 2) is None
        writes.commit(manager, staged)
        assert np.array_equal(manager._hot.get("a", 4).attribute("value"),
                              versions[3])
        # A one-version stage on the canvas is adopted as it stands.
        staged = writes.stage(manager, "a", [versions[0]])
        assert staged.lease is not None
        writes.commit(manager, staged)
        assert np.array_equal(manager._hot.get("a", 5).attribute("value"),
                              versions[0])
        assert manager.fingerprint() == _replayed(
            tmp_path / "replay", versions + [versions[0]],
            backend="memory")[0]
        manager.close()

    def test_parallel_encodes_adopt_disjoint_windows(self, tmp_path,
                                                     pin_fan):
        # More encode threads than cores, each adopting its chunks'
        # windows of one canvas, with thread switches forced often: the
        # canvas must still be exactly the head after every insert.
        import sys

        versions = _versions(np.int32, depth=12, shape=(64, 64))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pin_fan(8):
                manager = VersionedStorageManager(
                    tmp_path / "s", chunk_bytes=256, backend="memory")
                manager.create_array("a", ArraySchema.simple(
                    (64, 64), dtype=np.int32))
                for number, data in enumerate(versions, start=1):
                    manager.insert("a", data)
                    assert np.array_equal(
                        manager._hot.get("a", number).attribute("value"),
                        data)
                prints = manager.fingerprint()
                manager.close()
        finally:
            sys.setswitchinterval(interval)
        with pin_fan(1):
            serial = VersionedStorageManager(
                tmp_path / "serial", chunk_bytes=256, backend="memory")
            serial.create_array("a", ArraySchema.simple((64, 64),
                                                        dtype=np.int32))
            for data in versions:
                serial.insert("a", data)
            assert serial.fingerprint() == prints
            serial.close()
