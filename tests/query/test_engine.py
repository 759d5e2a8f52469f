"""Tests for the Database facade and spec-string parsing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import AQLSyntaxError, StorageError
from repro.query import Database, spec_from_string
from repro.storage import InMemoryBackend, VersionedStorageManager

#: How each store option reads back from the manager it configured.
_OPTIONS = {
    "chunk_bytes": (2048, lambda m: m.chunk_bytes),
    "compressor": ("lz", lambda m: m.compressor_name),
    "delta_codec": ("sparse", lambda m: m.delta_codec_name),
    "delta_policy": ("auto", lambda m: m.delta_policy),
    "placement": ("per-version", lambda m: m.store.placement),
    "cache_bytes": (4096, lambda m: m.cache.max_bytes),
}


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

    def test_insert_snapshots_the_callers_own_buffer(self, db):
        # The same loop handing over the buffer itself, not a view of
        # it: insert must not freeze it, and must not delta version 2
        # against its mutated contents.
        buf = np.arange(16, dtype=np.int32).reshape(4, 4)
        db.insert("A", buf)
        first = buf.copy()
        buf += 1
        buf[3, 1:3] = -7
        db.insert("A", buf)
        assert buf.flags.writeable
        assert np.array_equal(db.select("A@1"), first)
        assert np.array_equal(db.select("A@2"), buf)
        assert not db.select("A@2").flags.writeable

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

    @pytest.mark.parametrize("option", sorted(_OPTIONS))
    def test_option_forwarded(self, tmp_path, option):
        value, read = _OPTIONS[option]
        with Database(tmp_path / "opt", **{option: value}) as db:
            assert read(db.manager) == value

    def test_backend_instance_forwarded(self, tmp_path):
        backend = InMemoryBackend()
        with Database(tmp_path / "mem", backend=backend) as db:
            assert db.manager.backend is backend

    def test_defaults_are_the_managers(self, tmp_path):
        """Each store default is written once, on the manager."""
        with Database(tmp_path / "db") as db, \
                VersionedStorageManager(tmp_path / "plain") as manager:
            for option, (_, read) in _OPTIONS.items():
                assert read(db.manager) == read(manager), option
            assert type(db.manager.backend) is type(manager.backend)

    def test_unknown_option_rejected_before_side_effects(self, tmp_path):
        with pytest.raises(TypeError):
            Database(tmp_path / "old", cache_chunks=8)
        assert not (tmp_path / "old").exists()

    def test_workers_is_not_an_option(self, tmp_path):
        """The fan width is the host's CPU count, not a setting."""
        with pytest.raises(TypeError):
            Database(tmp_path / "old", workers=4)
        with pytest.raises(TypeError):
            VersionedStorageManager(tmp_path / "old", workers=4)
        assert not (tmp_path / "old").exists()

    def test_bad_option_fails_before_side_effects(self, tmp_path):
        with pytest.raises(StorageError):
            Database(tmp_path / "bad", delta_policy="bogus")
        assert not (tmp_path / "bad").exists()

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

    def test_cache_knobs_and_stats_exposed(self, tmp_path, rng, cold):
        data = rng.integers(0, 9, (4, 4)).astype(np.int32)
        with Database(tmp_path / "cached", chunk_bytes=4096,
                      cache_bytes=8 * data.nbytes) as db:
            db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                       "[ I=0:3, J=0:3 ];")
            db.insert("A", data)
            cold(db.manager, "A")
            db.select("A@1")
            before = db.stats.chunks_read
            db.select("A@1")
            assert db.stats.chunks_read == before  # cache absorbed it
            info = db.cache_info()
            assert info["max_bytes"] == 8 * data.nbytes
            assert info["hits"] > 0

    def test_memory_backend_leaves_no_files(self, tmp_path, rng):
        data = rng.integers(0, 9, (4, 4)).astype(np.int32)
        with Database(tmp_path / "mem", backend="memory") as db:
            db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                       "[ I=0:3, J=0:3 ];")
            db.insert("A", data)
            np.testing.assert_array_equal(db.select("A@1"), data)
        assert not (tmp_path / "mem").exists()
