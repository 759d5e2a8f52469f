"""Tests for the Database facade and spec-string parsing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import AQLSyntaxError
from repro.query import Database, spec_from_string


class TestSpecFromString:
    def test_by_id(self):
        spec = spec_from_string("Example@3")
        assert spec.array == "Example"
        assert spec.version == 3

    def test_all(self):
        assert spec_from_string("Example@*").all_versions

    def test_by_date(self):
        spec = spec_from_string("Example@'1-5-2011'")
        assert spec.date == "1-5-2011"

    def test_whitespace_tolerated(self):
        spec = spec_from_string("  Example @ 7 ")
        assert spec.array == "Example"
        assert spec.version == 7

    def test_missing_at(self):
        with pytest.raises(AQLSyntaxError):
            spec_from_string("Example")

    def test_label_spec(self):
        spec = spec_from_string("Example@calibrated")
        assert spec.label == "calibrated"

    def test_garbage_version(self):
        with pytest.raises(AQLSyntaxError):
            spec_from_string("Example@3.5%")


class TestDatabaseFacade:
    @pytest.fixture
    def db(self, tmp_path):
        db = Database(tmp_path / "db", chunk_bytes=4096)
        db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                   "[ I=0:3, J=0:3 ];")
        return db

    def test_insert_and_select_spec_string(self, db, rng):
        data = rng.integers(0, 99, (4, 4)).astype(np.int32)
        assert db.insert("A", data) == 1
        np.testing.assert_array_equal(db.select("A@1"), data)

    def test_select_with_window(self, db, rng):
        data = rng.integers(0, 99, (4, 4)).astype(np.int32)
        db.insert("A", data)
        out = db.select("A@1", window=((1, 1), (2, 2)))
        np.testing.assert_array_equal(out, data[1:3, 1:3])

    def test_insert_snapshots_a_buffer_the_caller_keeps_mutating(self, db):
        # The simulation loop: one buffer, mutated in place between
        # inserts.  The store must delta version 2 against version 1
        # as inserted, not against the buffer's current contents.
        buf = np.arange(16, dtype=np.int32).reshape(4, 4)
        db.insert("A", buf[:])
        first = buf.copy()
        buf[0, 0] += 5
        buf[3, 1:3] = -7
        db.insert("A", buf[:])
        assert np.array_equal(db.select("A@1"), first)
        assert np.array_equal(db.select("A@2"), buf)
        assert buf.flags.writeable

    def test_versions_and_properties(self, db, rng):
        db.insert("A", rng.integers(0, 9, (4, 4)).astype(np.int32))
        db.insert("A", rng.integers(0, 9, (4, 4)).astype(np.int32))
        assert db.versions("A") == [1, 2]
        assert db.properties("A")["versions"] == 2

    def test_branch_via_facade(self, db, rng):
        data = rng.integers(0, 9, (4, 4)).astype(np.int32)
        db.insert("A", data)
        db.branch("A", 1, "B")
        np.testing.assert_array_equal(db.select("B@1"), data)

    def test_configuration_forwarded(self, tmp_path):
        db = Database(tmp_path / "cfg", compressor="lz",
                      delta_codec="hybrid+lz", delta_policy="auto",
                      placement="per-version")
        assert db.manager.compressor_name == "lz"
        assert db.manager.delta_codec_name == "hybrid+lz"
        assert db.manager.store.placement == "per-version"
        db.close()

    def test_context_manager_closes(self, tmp_path, rng):
        data = rng.integers(0, 9, (4, 4)).astype(np.int32)
        with Database(tmp_path / "ctx", chunk_bytes=4096) as db:
            db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                       "[ I=0:3, J=0:3 ];")
            db.insert("A", data)
            np.testing.assert_array_equal(db.select("A@1"), data)
        # The catalog connection is released; reopening sees the data.
        with Database(tmp_path / "ctx") as reopened:
            np.testing.assert_array_equal(reopened.select("A@1"), data)

    def test_cache_knobs_and_stats_exposed(self, tmp_path, rng):
        data = rng.integers(0, 9, (4, 4)).astype(np.int32)
        with Database(tmp_path / "cached", chunk_bytes=4096,
                      cache_chunks=8) as db:
            db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                       "[ I=0:3, J=0:3 ];")
            db.insert("A", data)
            db.select("A@1")
            before = db.stats.chunks_read
            db.select("A@1")
            assert db.stats.chunks_read == before  # cache absorbed it
            info = db.cache_info()
            assert info["capacity"] == 8
            assert info["hits"] > 0

    def test_memory_backend_leaves_no_files(self, tmp_path, rng):
        data = rng.integers(0, 9, (4, 4)).astype(np.int32)
        with Database(tmp_path / "mem", backend="memory") as db:
            db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                       "[ I=0:3, J=0:3 ];")
            db.insert("A", data)
            np.testing.assert_array_equal(db.select("A@1"), data)
        assert not (tmp_path / "mem").exists()
