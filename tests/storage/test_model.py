"""Random operation sequences on one store, checked against a model.

A hypothesis state machine drives two arrays of one ``local`` manager
through inserts, delta-list updates, branches, merges,
``delete_version``, ``reorganize(mode="space")``, shipping an array to
a second manager (``export_versions`` → ``import_versions``) and
close + reopen.  Three twin managers take every rule too: one with a
small chunk cache, so each rule's reads run through cache hits,
misses, warm fills and evictions there and through the cache-off path
here; one whose every rule and read runs through a CPU fan four lanes
wide, where the others run every encode and decode inline (fan width
1); and one both cached and four lanes wide, so a cached stack's runs
fan too.  The model is a dict of arrays: per array name, each live
version's contents.  After every rule each live version reads back
equal, on every manager, by ``select``, by one ``select_region``
window and by ``select_versions``; the catalog's snapshot equals its
SQL rows (``catalog_oracle``); and a whole read of the version the hot
slot holds — one copy of the slot — equals a cold decode of it.  At
teardown all four stores' ``fingerprint()`` equal that of a fresh
manager the same operations were replayed into: stored bytes are a
function of the logical history alone, cache or no cache, at any fan
width.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from catalog_oracle import assert_catalog_matches_sql
from conftest import pinned_fan
from repro.core.array import DeltaListPayload
from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager

NAMES = ("a", "b")
SCHEMA = ArraySchema.simple((8, 6), dtype=np.int32)
#: 16 cells a chunk: every version spans several chunks.
OPTIONS = dict(chunk_bytes=64, backend="local")
#: The twin's cache: about a dozen chunks, so reads evict and some
#: chains are declined a warm fill.
CACHED = dict(OPTIONS, cache_bytes=768)
#: The wide twin's fan width; the other managers run at width 1.
WIDE = 4
seeds = st.integers(0, 2 ** 16)


def _run(manager: VersionedStorageManager, op: tuple,
         options: dict = OPTIONS) -> VersionedStorageManager:
    """Apply one logged operation to ``manager``; return the manager
    to go on with (a reopened one, with ``options``, after
    ``reopen``)."""
    kind, *args = op
    if kind == "reopen":
        manager.close()
        return VersionedStorageManager(manager.root, **options)
    if kind == "create":
        manager.create_array(args[0], SCHEMA)
    elif kind == "insert":
        manager.insert(*args)
    elif kind == "update":
        name, base, coords, values = args
        manager.insert(name, DeltaListPayload.of(coords, values, base))
    elif kind in ("branch", "merge"):
        source, versions, target = args
        if target in manager.list_arrays():
            manager.delete_array(target)
        if kind == "branch":
            manager.branch(source, versions[0], target)
        else:
            manager.merge([(source, v) for v in versions], target)
    elif kind == "delete_version":
        manager.delete_version(*args)
    else:
        assert kind == "reorganize"
        manager.reorganize(args[0], mode="space")
    return manager


def _identity(manager: VersionedStorageManager, name: str):
    """Array ``name``'s record as every copy of it stores it."""
    return replace(manager.catalog.get_array(name), array_id=None,
                   created_at=None)


class StoreModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="repro-model-"))
        self.manager = VersionedStorageManager(self.root / "store",
                                               **OPTIONS)
        self.cached = VersionedStorageManager(self.root / "cached",
                                              **CACHED)
        self.wide = VersionedStorageManager(self.root / "wide", **OPTIONS)
        self.cached_wide = VersionedStorageManager(
            self.root / "cached-wide", **CACHED)
        self.second = VersionedStorageManager(self.root / "second",
                                              chunk_bytes=64,
                                              backend="memory")
        #: name → {version: contents}, the model.
        self.model: dict[str, dict[int, np.ndarray]] = {}
        self.log: list[tuple] = []
        for name in NAMES:
            self._apply(("create", name))
            self.model[name] = {}

    def _apply(self, op: tuple) -> None:
        self.log.append(op)
        with pinned_fan(1):
            self.manager = _run(self.manager, op)
            self.cached = _run(self.cached, op, CACHED)
        with pinned_fan(WIDE):
            self.wide = _run(self.wide, op)
            self.cached_wide = _run(self.cached_wide, op, CACHED)

    def _live(self, name: str) -> list[int]:
        return sorted(self.model[name])

    def _next(self, name: str) -> int:
        return max(self.model[name], default=0) + 1

    def _some_version(self, name: str, pick: int) -> int:
        live = self._live(name)
        return live[pick % len(live)]

    def _holding(self, name: str) -> str:
        """``name``, or the other array when ``name`` holds no version."""
        return name if self.model[name] \
            else next(n for n in NAMES if self.model[n])

    # -- rules ----------------------------------------------------------
    @rule(name=st.sampled_from(NAMES), seed=seeds, fresh=st.booleans())
    def insert(self, name, seed, fresh):
        rng = np.random.default_rng(seed)
        versions = self.model[name]
        if versions and not fresh:
            data = versions[max(versions)].copy()
            mask = rng.random(SCHEMA.shape) < 0.2
            data[mask] += rng.integers(1, 50, int(mask.sum()),
                                       dtype=np.int32)
        else:
            data = rng.integers(-1000, 1000, SCHEMA.shape, dtype=np.int32)
        number = self._next(name)
        self._apply(("insert", name, data))
        versions[number] = data

    @precondition(lambda self: any(self.model.values()))
    @rule(name=st.sampled_from(NAMES), pick=seeds, seed=seeds)
    def update(self, name, pick, seed):
        """A delta-list insert patching any live version."""
        name = self._holding(name)
        base = self._some_version(name, pick)
        rng = np.random.default_rng(seed)
        cells = rng.choice(SCHEMA.cell_count, 3, replace=False)
        coords = np.stack(np.unravel_index(cells, SCHEMA.shape), axis=1)
        values = rng.integers(-1000, 1000, 3, dtype=np.int32)
        data = self.model[name][base].copy()
        data[tuple(coords.T)] = values
        number = self._next(name)
        self._apply(("update", name, base, coords, values))
        self.model[name][number] = data

    @precondition(lambda self: any(self.model.values()))
    @rule(source=st.sampled_from(NAMES), picks=st.lists(seeds, min_size=1,
                                                         max_size=3))
    def branch_or_merge(self, source, picks):
        """One pick branches ``source`` into the other array's name,
        more merge that many of its versions into it (the old array of
        that name dropped first)."""
        source = self._holding(source)
        target = next(n for n in NAMES if n != source)
        versions = [self._some_version(source, pick) for pick in picks]
        kind = "branch" if len(versions) == 1 else "merge"
        self._apply((kind, source, versions, target))
        self.model[target] = {number: self.model[source][v]
                              for number, v in enumerate(versions, 1)}

    @precondition(lambda self: any(self.model.values()))
    @rule(name=st.sampled_from(NAMES), pick=seeds)
    def delete_version(self, name, pick):
        name = self._holding(name)
        version = self._some_version(name, pick)
        self._apply(("delete_version", name, version))
        del self.model[name][version]

    @precondition(lambda self: any(self.model.values()))
    @rule(name=st.sampled_from(NAMES))
    def reorganize(self, name):
        name = self._holding(name)
        self._apply(("reorganize", name))

    @rule()
    def reopen(self):
        self._apply(("reopen",))

    @rule(name=st.sampled_from(NAMES))
    def ship(self, name):
        """Ship ``name`` to the second manager as repair does: only the
        tail when the copy there holds a prefix, else the whole array
        into a fresh array of that name, created by the import."""
        source = self.manager.stored_digests(name)
        held = None
        if name in self.second.list_arrays():
            held = self.second.stored_digests(name)
            if held != source[:len(held)] or \
                    _identity(self.second, name) != _identity(self.manager,
                                                              name):
                self.second.delete_array(name)
                held = None
        if held is None:
            shipment = self.manager.export_versions(name)
            self.second.import_versions(name, replace(
                shipment, record=replace(shipment.record, array_id=None)))
        else:
            self.second.import_versions(name, self.manager.export_versions(
                name, held[-1][0] if held else 0))
        assert self.second.stored_digests(name) == source
        for version, data in self.model[name].items():
            np.testing.assert_array_equal(
                self.second.select(name, version).single(), data)

    # -- invariants -----------------------------------------------------
    @invariant()
    def every_select_form_reads_the_model(self):
        with pinned_fan(1):
            for manager in (self.manager, self.cached):
                self._reads_the_model(manager)
        with pinned_fan(WIDE):
            for manager in (self.wide, self.cached_wide):
                self._reads_the_model(manager)

    def _reads_the_model(self, manager: VersionedStorageManager) -> None:
        for name in NAMES:
            live = self._live(name)
            assert manager.get_versions(name) == live
            for version in live:
                np.testing.assert_array_equal(
                    manager.select(name, version).single(),
                    self.model[name][version])
                np.testing.assert_array_equal(
                    manager.select_region(name, version, (2, 1),
                                          (6, 3)).single(),
                    self.model[name][version][2:7, 1:4])
            if live:
                np.testing.assert_array_equal(
                    manager.select_versions(name, live),
                    np.stack([self.model[name][v] for v in live]))

    @invariant()
    def the_catalog_matches_its_rows(self):
        assert_catalog_matches_sql(self.manager.catalog)
        assert_catalog_matches_sql(self.cached.catalog)
        assert_catalog_matches_sql(self.wide.catalog)
        assert_catalog_matches_sql(self.cached_wide.catalog)

    @invariant()
    def the_slot_reads_as_a_cold_decode(self):
        manager = self.manager
        key = manager._hot._key
        if key is None:
            return
        name, version = key
        assert version in self.model[name], key
        before = manager.stats.hot_reads
        hot = manager.select(name, version).single()
        assert manager.stats.hot_reads == before + 1
        snap = manager.catalog.snapshot(name)
        cold = manager.decoder.read_region(
            snap, version, (0, 0), tuple(n - 1 for n in SCHEMA.shape))
        np.testing.assert_array_equal(hot, cold.single())
        np.testing.assert_array_equal(hot, self.model[name][version])

    def teardown(self):
        try:
            replayed = VersionedStorageManager(self.root / "replay",
                                               **OPTIONS)
            for op in self.log:
                replayed = _run(replayed, op)
            assert replayed.fingerprint() == self.manager.fingerprint() \
                == self.cached.fingerprint() == self.wide.fingerprint() \
                == self.cached_wide.fingerprint()
            replayed.close()
        finally:
            self.manager.close()
            self.cached.close()
            self.wide.close()
            self.cached_wide.close()
            self.second.close()
            shutil.rmtree(self.root, ignore_errors=True)


StoreModel.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestStoreModel = StoreModel.TestCase
