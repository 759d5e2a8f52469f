"""Tests for the Table V workload generators and execution harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schema import ArraySchema
from repro.materialize.workload_opt import RangeQuery, SnapshotQuery
from repro.storage import VersionedStorageManager
from paper.workloads import (
    RANGE,
    SNAPSHOT,
    UPDATE,
    Operation,
    head_workload,
    mixed_workload,
    random_workload,
    range_workload,
    run_workload,
    to_optimizer_workload,
    update_workload,
    workload_by_name,
)

VERSIONS = 30


class TestGenerators:
    def test_head_mostly_latest(self):
        operations = head_workload(VERSIONS, repetitions=200, seed=1)
        latest = sum(1 for op in operations if op.first == VERSIONS)
        assert len(operations) == 200
        assert 0.8 < latest / 200 < 1.0
        assert all(op.kind == SNAPSHOT for op in operations)

    def test_random_uniform_singletons(self):
        operations = random_workload(VERSIONS, repetitions=300, seed=2)
        assert all(op.kind == SNAPSHOT for op in operations)
        versions = {op.first for op in operations}
        assert len(versions) > VERSIONS // 2
        assert all(1 <= op.first <= VERSIONS for op in operations)

    def test_range_mix(self):
        operations = range_workload(VERSIONS, repetitions=300, seed=3)
        ranges = [op for op in operations if op.kind == RANGE]
        singles = [op for op in operations if op.kind == SNAPSHOT]
        assert 0.8 < len(ranges) / 300 <= 1.0
        assert len(singles) + len(ranges) == 300
        lengths = [op.last - op.first + 1 for op in ranges]
        assert 3 < np.std(lengths) < 20  # sigma ~ 10, clipped
        assert all(op.last <= VERSIONS for op in ranges)

    def test_mixed_contains_all_types(self):
        operations = mixed_workload(VERSIONS, repetitions=300, seed=4)
        kinds = {op.kind for op in operations}
        assert kinds == {SNAPSHOT, RANGE}

    def test_update_distinct_versions(self):
        operations = update_workload(VERSIONS, repetitions=5, seed=5)
        assert len(operations) == 5
        assert all(op.kind == UPDATE for op in operations)
        assert len({op.first for op in operations}) == 5

    def test_workload_by_name(self):
        for name in ("head", "random", "range", "mixed", "update"):
            assert workload_by_name(name, VERSIONS)
        with pytest.raises(ValueError):
            workload_by_name("bogus", VERSIONS)

    def test_deterministic_by_seed(self):
        a = range_workload(VERSIONS, seed=7)
        b = range_workload(VERSIONS, seed=7)
        assert a == b


class TestRunWorkload:
    @pytest.fixture
    def loaded_manager(self, tmp_path, rng):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=2048)
        manager.create_array(
            "A", ArraySchema.simple((16, 16), dtype=np.int32))
        data = rng.integers(0, 100, (16, 16)).astype(np.int32)
        for _ in range(5):
            manager.insert("A", data)
            data = data + 1
        return manager

    def test_reads_reported(self, loaded_manager):
        operations = [Operation(SNAPSHOT, 5, 5),
                      Operation(RANGE, 1, 3)]
        report = run_workload(loaded_manager, "A", operations,
                              name="smoke")
        assert report.operations == 2
        assert report.bytes_read > 0
        assert report.seconds >= 0
        assert report.name == "smoke"

    def test_update_creates_new_version(self, loaded_manager):
        before = loaded_manager.get_versions("A")
        run_workload(loaded_manager, "A",
                     [Operation(UPDATE, 2, 2)], update_cells=4)
        after = loaded_manager.get_versions("A")
        assert len(after) == len(before) + 1
        # The new version inherits version 2's contents except the
        # modified cells.
        newest = loaded_manager.select("A", after[-1]).single()
        base = loaded_manager.select("A", 2).single()
        assert np.sum(newest != base) <= 4

    def test_unknown_kind_rejected(self, loaded_manager):
        with pytest.raises(ValueError):
            run_workload(loaded_manager, "A",
                         [Operation("scan", 1, 1)])


class TestOptimizerBridge:
    def test_aggregates_weights(self):
        operations = [Operation(SNAPSHOT, 3, 3),
                      Operation(SNAPSHOT, 3, 3),
                      Operation(RANGE, 1, 4),
                      Operation(UPDATE, 2, 2)]
        workload = to_optimizer_workload(operations)
        assert len(workload) == 2  # updates excluded, snapshots merged
        snapshot = next(w for w in workload
                        if isinstance(w.query, SnapshotQuery))
        assert snapshot.weight == 2.0
        range_query = next(w for w in workload
                           if isinstance(w.query, RangeQuery))
        assert range_query.query.versions() == (1, 2, 3, 4)
