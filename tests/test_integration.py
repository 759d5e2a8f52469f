"""End-to-end integration and property tests across the whole stack.

These exercise the full Figure 1 pipeline — AQL in, chunked delta
storage, optimizer re-organization, selects out — and a hypothesis
state-machine-style property: after any legal sequence of operations,
every stored version reads back byte-exact.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, MaterializationMatrix, optimal_layout
from repro.core.schema import ArraySchema
from repro.datasets import noaa_series, panorama_series
from repro.storage import VersionedStorageManager


class TestFullPipeline:
    """The paper's architecture exercised end to end."""

    def test_weather_pipeline(self, tmp_path):
        frames = noaa_series(8, shape=(48, 48))["humidity"]
        db = Database(tmp_path / "db", chunk_bytes=4096,
                      compressor="lz", delta_codec="hybrid+lz")
        db.create_array("w", ArraySchema.simple((48, 48),
                                                dtype=np.float32))
        for frame in frames:
            db.insert("w", frame)

        # Every select form returns exact contents.
        np.testing.assert_array_equal(db.select("w@3"), frames[2])
        stack = db.select("w@*")
        assert stack.shape == (8, 48, 48)
        np.testing.assert_array_equal(stack[7], frames[7])
        window = db.manager.select_versions_region(
            "w", [2, 4, 6], (10, 10), (19, 19))
        np.testing.assert_array_equal(window[1], frames[3][10:20, 10:20])

        # Re-organize to the space optimum, then re-verify everything.
        db.manager.reorganize("w", mode="space")
        for number, frame in enumerate(frames, 1):
            np.testing.assert_array_equal(db.select(f"w@{number}"), frame)
        db.close()

    def test_branch_merge_reorganize_pipeline(self, tmp_path, rng):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=4096)
        manager.create_array("a", ArraySchema.simple((16, 16),
                                                     dtype=np.int32))
        base = rng.integers(0, 99, (16, 16)).astype(np.int32)
        manager.insert("a", base)
        manager.insert("a", base + 1)
        manager.branch("a", 1, "b")
        manager.insert("b", base + 100)
        manager.merge([("a", 2), ("b", 2)], "m")

        # The merge records both sources: the lineage is a DAG.
        snap = manager.catalog.snapshot("m")
        assert snap.merge_parents_of(1) == [("a", 2)]
        assert snap.merge_parents_of(2) == [("b", 2)]
        np.testing.assert_array_equal(manager.select("m", 1).single(),
                                      base + 1)
        np.testing.assert_array_equal(manager.select("m", 2).single(),
                                      base + 100)

        manager.reorganize("m", mode="space")
        np.testing.assert_array_equal(manager.select("m", 2).single(),
                                      base + 100)

    def test_optimizer_layout_applied_matches_prediction(self, tmp_path):
        """The matrix's predicted sizes must track actual stored bytes."""
        frames = panorama_series(10, shape=(32, 32), period=5)
        manager = VersionedStorageManager(tmp_path, chunk_bytes=64 * 1024)
        manager.create_array("p", ArraySchema.simple((32, 32),
                                                     dtype=np.uint8))
        for frame in frames:
            manager.insert("p", frame)
        matrix = MaterializationMatrix.from_manager(manager, "p")
        layout = optimal_layout(matrix)
        manager.apply_layout("p", dict(layout.parent_of))
        predicted = layout.total_size(matrix)
        actual = manager.stored_bytes("p")
        # Same order of magnitude: the matrix is the planning signal.
        assert 0.5 < actual / predicted < 2.0


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_operation_sequences_stay_consistent(tmp_path_factory,
                                                    data):
    """Property: any legal op sequence keeps all versions byte-exact."""
    root = tmp_path_factory.mktemp("prop")
    manager = VersionedStorageManager(root, chunk_bytes=1024,
                                      cache_bytes=8 * 256)
    schema = ArraySchema.simple((8, 8), dtype=np.int32)
    manager.create_array("A", schema)

    expected: dict[int, np.ndarray] = {}
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    current = rng.integers(0, 100, (8, 8)).astype(np.int32)

    operation_count = data.draw(st.integers(3, 12))
    for _ in range(operation_count):
        op = data.draw(st.sampled_from(
            ["insert", "select", "region", "delete", "reorganize"]))
        versions = sorted(expected)
        if op == "insert" or not versions:
            current = current + rng.integers(0, 3, (8, 8)).astype(np.int32)
            version = manager.insert("A", current)
            expected[version] = current.copy()
        elif op == "select":
            version = data.draw(st.sampled_from(versions))
            out = manager.select("A", version).single()
            np.testing.assert_array_equal(out, expected[version])
        elif op == "region":
            version = data.draw(st.sampled_from(versions))
            out = manager.select_region("A", version, (2, 2), (5, 5))
            np.testing.assert_array_equal(out.single(),
                                          expected[version][2:6, 2:6])
        elif op == "delete" and len(versions) > 1:
            version = data.draw(st.sampled_from(versions))
            manager.delete_version("A", version)
            del expected[version]
        elif op == "reorganize" and len(versions) > 1:
            manager.reorganize("A", mode="space")

    # Final sweep: every surviving version must read back exactly.
    for version, contents in expected.items():
        np.testing.assert_array_equal(
            manager.select("A", version).single(), contents)
    manager.catalog.close()
