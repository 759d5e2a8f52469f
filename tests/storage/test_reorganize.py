"""Tests for one-call background re-organization (Section IV-E)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import native
from repro.core.errors import ReproError, StorageError, WorkloadError
from repro.core.schema import ArraySchema
from repro.datasets import periodic_series
from repro.materialize import RangeQuery, SnapshotQuery, WeightedQuery
from repro.storage import VersionedStorageManager
from repro.storage.iostats import IOStats


@pytest.fixture
def periodic_store(tmp_path):
    manager = VersionedStorageManager(tmp_path, chunk_bytes=64 * 1024,
                                      compressor="lz",
                                      delta_codec="hybrid+lz")
    series = periodic_series(9, distinct=3, shape=(32, 32))
    manager.create_array("P", ArraySchema.simple((32, 32),
                                                 dtype=np.int32))
    for frame in series:
        manager.insert("P", frame)
    return manager, series


class TestReorganize:
    def test_space_mode_shrinks_periodic_data(self, periodic_store):
        manager, series = periodic_store
        before = manager.store.total_bytes("P")
        manager.reorganize("P", mode="space")
        after = manager.store.total_bytes("P")
        assert after < before / 2  # recurrences become near-zero deltas
        for number, expected in enumerate(series, 1):
            np.testing.assert_array_equal(
                manager.select("P", number).single(), expected)

    def test_head_mode_materializes_newest(self, periodic_store):
        manager, _ = periodic_store
        manager.reorganize("P", mode="head")
        array_id = manager.catalog.get_array("P").array_id
        newest = manager.catalog.chunks_for_version(array_id, 9)
        assert all(not chunk.is_delta for chunk in newest)

    def test_workload_mode(self, periodic_store):
        manager, series = periodic_store
        workload = [WeightedQuery(SnapshotQuery(5), weight=10.0)]
        manager.reorganize("P", mode="workload", workload=workload)
        # The hammered version must be cheap: at most a short chain.
        array_id = manager.catalog.get_array("P").array_id
        chunks = manager.catalog.chunks_for_version(array_id, 5)
        assert all(not chunk.is_delta for chunk in chunks)
        np.testing.assert_array_equal(
            manager.select("P", 5).single(), series[4])

    def test_workload_mode_requires_workload(self, periodic_store):
        manager, _ = periodic_store
        with pytest.raises(StorageError):
            manager.reorganize("P", mode="workload")

    def test_unknown_mode(self, periodic_store):
        manager, _ = periodic_store
        with pytest.raises(StorageError):
            manager.reorganize("P", mode="maximal")

    def test_sampled_matrix_mode(self, periodic_store):
        manager, series = periodic_store
        manager.reorganize("P", mode="space", sample_fraction=0.2)
        for number, expected in enumerate(series, 1):
            np.testing.assert_array_equal(
                manager.select("P", number).single(), expected)


#: Arguments ``reorganize`` refuses, and what the refusal says.
REFUSALS = [(dict(mode="maximal"), "unknown reorganize mode"),
            (dict(mode="workload"), "needs a workload"),
            (dict(sample_fraction=0.0), "sample_fraction"),
            (dict(sample_fraction=1.5), "sample_fraction"),
            (dict(attribute="ghost"), "no attribute 'ghost'")]


@pytest.mark.parametrize("kwargs,message", REFUSALS,
                         ids=["mode", "workload", "fraction-0",
                              "fraction-1.5", "attribute"])
def test_reorganize_refuses_before_it_reads(periodic_store, kwargs,
                                            message):
    """A bad mode, a workload mode with no workload, a sample fraction
    outside (0, 1] and an attribute the array lacks are refused before
    the matrix selects a single version."""
    manager, _ = periodic_store
    manager.stats.reset()
    with pytest.raises(ReproError, match=message):
        manager.reorganize("P", **kwargs)
    assert manager.stats.chunks_read == 0


def test_reorganize_refuses_an_unknown_version_before_it_reads(
        periodic_store):
    """A workload naming a version the array lacks is refused against
    the snapshot's version list: no chunk read, no hot-slot copy, no
    cache probe — no read counter moves."""
    manager, _ = periodic_store
    workload = [WeightedQuery(SnapshotQuery(3)),
                WeightedQuery(RangeQuery(8, 10))]
    before = manager.stats.snapshot()
    with pytest.raises(WorkloadError, match=r"unknown versions \[10\]"):
        manager.reorganize("P", mode="workload", workload=workload)
    assert manager.stats.delta_since(before) == IOStats()


class TestApplyLayoutMemory:
    """``apply_layout`` streams versions out of the old layout one at a
    time, so its peak allocation is a few canvases at any chain depth —
    not one per version."""

    SHAPE = (256, 256)

    def _reverse_chain_peak(self, root, versions: int) -> int:
        """Peak traced bytes of reversing a ``versions``-deep chain."""
        rng = np.random.default_rng(versions)
        history = [rng.integers(0, 1 << 20, self.SHAPE).astype(np.int32)]
        for _ in range(versions - 1):
            step = history[-1].copy()
            flat = step.reshape(-1)
            flat[rng.choice(flat.size, flat.size // 100,
                            replace=False)] += 1
            history.append(step)
        with VersionedStorageManager(root, backend="memory") as manager:
            manager.create_array("A", ArraySchema.simple(
                self.SHAPE, dtype=np.int32))
            for data in history:
                manager.insert("A", data)
            layout = {v: v + 1 for v in range(1, versions)}
            layout[versions] = None
            tracemalloc.start()
            try:
                manager.apply_layout("A", layout)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            record = manager.catalog.get_array("A")
            assert not any(chunk.is_delta for chunk in
                           manager.catalog.chunks_for_version(
                               record.array_id, versions))
            for number in (1, versions // 2, versions):
                np.testing.assert_array_equal(
                    manager.select("A", number).single(),
                    history[number - 1])
        return peak

    def test_reversing_a_chain_holds_a_few_canvases(self, tmp_path):
        canvas = np.dtype(np.int32).itemsize * self.SHAPE[0] * self.SHAPE[1]
        peaks = {versions: self._reverse_chain_peak(tmp_path / str(versions),
                                                    versions) / canvas
                 for versions in (16, 32)}
        # Twice the versions, no more memory ...
        assert peaks[32] < peaks[16] + 1, peaks
        # ... and little of it.  The numpy reference kernels allocate
        # temporaries of their own per encode, so the absolute bound
        # holds the compiled path.
        if native.available():
            assert max(peaks.values()) < 6, peaks
