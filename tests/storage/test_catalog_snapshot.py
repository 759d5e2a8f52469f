"""The catalog's snapshots against SQLite, its log.

Every read is answered from an immutable per-array snapshot derived
after each commit, never re-read.  These tests hold the derived state
to the SQL oracle (:mod:`catalog_oracle`) after every step of seeded
operation sequences — lineage, layout, label and lifecycle operations,
close and reopen — and after transactions that roll back, and bound
what a snapshot costs in memory per chunk row.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from catalog_oracle import assert_catalog_matches_sql
from repro.core.schema import ArraySchema
from repro.storage import (
    COLOCATED,
    PER_VERSION,
    ChunkLocation,
    ChunkRecord,
    MetadataCatalog,
    VersionedStorageManager,
    VersionRecord,
)

SHAPE = (8, 8)


class _Store:
    """A local store whose manager a step may close and reopen."""

    def __init__(self, root, placement):
        self.root, self.placement = root, placement
        self.manager = self._open()

    def _open(self) -> VersionedStorageManager:
        return VersionedStorageManager(self.root, chunk_bytes=64,
                                       placement=self.placement,
                                       backend="local")

    def reopen(self) -> None:
        self.manager.close()
        self.manager = self._open()


def _step(store: _Store, rng: np.random.Generator, step: int) -> str:
    """One seeded operation whose preconditions hold; its name."""
    manager = store.manager
    names = manager.list_arrays()
    name = names[int(rng.integers(len(names)))]
    versions = manager.get_versions(name)
    choices = ["insert", "insert", "reopen", "recreate"]
    if versions:
        choices += ["branch", "merge", "label", "drop-label"]
    if len(versions) >= 2:
        choices += ["delete-head", "reverse", "reorganize"]
    if len(versions) >= 3:
        choices += ["delete-middle"]
    op = choices[int(rng.integers(len(choices)))]
    data = rng.integers(0, 50, SHAPE).astype(np.int32)
    if op == "insert":
        manager.insert(name, data)
    elif op == "branch":
        manager.branch(name, versions[-1], f"{name}b{step}")
    elif op == "merge":
        manager.merge([(name, versions[0]), (name, versions[-1])],
                      f"{name}m{step}")
    elif op == "label":   # set, or move an existing label
        manager.label_version(name, versions[int(rng.integers(
            len(versions)))], ("keep", "head")[int(rng.integers(2))])
    elif op == "drop-label":
        manager.catalog.drop_label(manager.catalog.get_array(name).array_id,
                                   "keep")
    elif op == "delete-head":
        manager.delete_version(name, versions[-1])
    elif op == "delete-middle":
        manager.delete_version(name, versions[len(versions) // 2])
    elif op == "reverse":
        manager.apply_layout(name, {v: (versions[i + 1]
                                        if i + 1 < len(versions) else None)
                                    for i, v in enumerate(versions)})
    elif op == "reorganize":
        manager.reorganize(name, mode=("space", "head")[step % 2])
    elif op == "recreate":
        manager.delete_array(name)
        manager.create_array(name, ArraySchema.simple(SHAPE,
                                                      dtype=np.int32))
    else:
        store.reopen()
    return op


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("placement", [COLOCATED, PER_VERSION])
def test_every_step_reads_what_sql_holds(tmp_path, placement, seed):
    store = _Store(tmp_path, placement)
    store.manager.create_array("A", ArraySchema.simple(SHAPE,
                                                       dtype=np.int32))
    rng = np.random.default_rng(seed)
    ran = set()
    for step in range(30):
        ran.add(_step(store, rng, step))
        assert_catalog_matches_sql(store.manager.catalog)
    store.manager.close()
    assert {"insert", "delete-head", "reverse", "reopen"} <= ran


def _row(array_id, version, name, offset=0, base=None) -> ChunkRecord:
    return ChunkRecord(array_id, version, "value", name,
                       None if base is None else "hybrid", base, "none",
                       ChunkLocation(f"A/chunks/value/{name}", offset, 16))


def test_rolled_back_transactions_publish_nothing():
    catalog = MetadataCatalog()
    record = catalog.create_array("A", ArraySchema.simple(SHAPE, np.int32),
                                  chunk_bytes=64, compressor="none",
                                  created_at=1.0)
    first = VersionRecord(record.array_id, 1, None, "insert", 1.0)
    catalog.put_chunks([_row(record.array_id, 1, "c0"),
                        _row(record.array_id, 1, "c1", 16)], [(first, ())])
    catalog.set_label(record.array_id, "one", 1)
    published = catalog.snapshot("A")

    # A location sqlite cannot bind fails the batch after its version
    # row and first chunk row ran; a duplicate version row fails at once.
    poisoned = _row(record.array_id, 2, "c1", 48, base=1)
    object.__setattr__(poisoned, "location",
                       ChunkLocation("A", object(), 16))
    for failing in (
            lambda: catalog.put_chunks(
                [_row(record.array_id, 2, "c0", 32, base=1), poisoned],
                [(VersionRecord(record.array_id, 2, 1, "insert", 2.0), ())]),
            lambda: catalog.put_chunks(
                [poisoned], drop=first),
            lambda: catalog.put_chunks([], [(first, ())])):
        with pytest.raises(Exception):
            failing()
        assert catalog.snapshot("A") is published
        assert_catalog_matches_sql(catalog)
    catalog.close()


def test_one_commit_publishes_several_versions_with_merge_parents():
    catalog = MetadataCatalog()
    array_id = catalog.create_array(
        "A", ArraySchema.simple(SHAPE, np.int32), chunk_bytes=64,
        compressor="none", created_at=1.0).array_id
    first, second = (VersionRecord(array_id, version, version - 1 or None,
                                   "merge", float(version))
                     for version in (1, 2))
    # Version 1 deltas against version 2, which the same batch adds.
    catalog.put_chunks([_row(array_id, 1, "c0", base=2),
                        _row(array_id, 2, "c0", 16)],
                       versions=[(first, [("X", 3)]),
                                 (second, [("Y", 1), ("Z", 2)])])
    snap = catalog.snapshot("A")
    assert snap.get_versions() == [first, second]
    assert snap.merge_parents_of(1) == [("X", 3)]
    assert snap.merge_parents_of(2) == [("Y", 1), ("Z", 2)]
    assert [row.version for row in snap.walk_chain(1, "value", "c0")] == \
        [1, 2]
    assert_catalog_matches_sql(catalog)
    # A batch whose second version row already exists commits neither.
    with pytest.raises(Exception):
        catalog.put_chunks(
            [_row(array_id, 3, "c0", 32)],
            versions=[(VersionRecord(array_id, 3, 2, "insert", 3.0), ()),
                      (second, ())])
    assert catalog.snapshot("A") is snap
    assert_catalog_matches_sql(catalog)
    catalog.close()


@pytest.mark.parametrize("placement,bound", [(COLOCATED, 300),
                                             (PER_VERSION, 380)])
def test_snapshot_costs_a_bounded_number_of_bytes_per_row(tmp_path,
                                                          placement,
                                                          bound):
    """Built on first touch from 256 versions x 16 chunks of rows, a
    snapshot holds each row's repeated values once per snapshot."""
    path = tmp_path / "metadata.db"
    catalog = MetadataCatalog(path)
    record = catalog.create_array("A", ArraySchema.simple((64, 64),
                                                          np.int32),
                                  chunk_bytes=1024, compressor="none",
                                  created_at=1.0)
    rows = []
    for version in range(1, 257):
        for chunk in range(16):
            where = f"v{version}" if placement == PER_VERSION else "chunks"
            rows.append((record.array_id, version, "value",
                         f"chunk-{chunk}.dat", "hybrid" if version > 1
                         else None, version - 1 or None, "none",
                         f"A/{where}/value/chunk-{chunk}.dat",
                         version * 1000, 1000))
    with catalog._conn:
        catalog._conn.executemany(
            "INSERT INTO versions VALUES (?, ?, ?, 'insert', ?)",
            [(record.array_id, v, v - 1 or None, float(v))
             for v in range(1, 257)])
        catalog._conn.executemany(
            "INSERT INTO chunks VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
    catalog.close()

    reopened = MetadataCatalog(path)
    tracemalloc.start()
    try:
        snap = reopened.snapshot("A")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snap.all_chunks()) == len(rows)
    assert held / len(rows) < bound, held / len(rows)
    reopened.close()


def test_a_cold_stack_fetches_one_row_per_level_walked(monkeypatch):
    """A stacked select's layer walks stop at the layer below without
    fetching its row: on a cold chain of one-level deltas, each layer's
    walk is one ``get_chunk`` call, and the bottom layer's walks down to
    the root one call per level."""
    from repro.storage.metadata import ArraySnapshot

    manager = VersionedStorageManager(
        "unused", backend="memory", delta_policy="chain")
    manager.create_array("A", ArraySchema.simple(SHAPE, np.int32),
                         chunk_shape=(4, 8))
    data = np.arange(64, dtype=np.int32).reshape(SHAPE)
    versions = []
    for step in range(6):
        data = data + np.int32(step % 3)
        manager.insert("A", data)
        versions.append(data)
    manager._hot.forget("A")
    fetched = []
    real = ArraySnapshot.get_chunk
    monkeypatch.setattr(ArraySnapshot, "get_chunk",
                        lambda self, *args: fetched.append(args)
                        or real(self, *args))
    stack = manager.select_versions("A", [4, 5, 6])
    assert np.array_equal(stack, np.stack(versions[3:]))
    # Two chunks: version 4 walks its 4 levels down to the root, 5 and
    # 6 one level each.
    assert len(fetched) == 2 * (4 + 1 + 1)
    manager.close()
