"""Tests for the store-inspection CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import fmt_bytes, fmt_seconds, main
from repro.core.errors import StorageError
from repro.query.engine import Database


@pytest.fixture
def store(tmp_path):
    root = tmp_path / "store"
    db = Database(root, chunk_bytes=2048)
    db.execute("CREATE UPDATABLE ARRAY Example "
               "( A::INTEGER ) [ I=0:7, J=0:7 ];")
    base = np.arange(64, dtype=np.int32).reshape(8, 8)
    db.insert("Example", base)
    db.insert("Example", base + 1)
    db.branch("Example", 1, "Fork")
    db.close()
    return root


class TestFormatting:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2048) == "2.00 KB"
        assert fmt_bytes(3 * 2**20) == "3.00 MB"
        assert fmt_bytes(5 * 2**30) == "5.00 GB"

    def test_fmt_seconds(self):
        assert fmt_seconds(0.001) == "1.00 ms"
        assert fmt_seconds(1.5) == "1.50 s"


class TestCLI:
    def test_list(self, store, capsys):
        assert main([str(store), "list"]) == 0
        out = capsys.readouterr().out
        assert "Example" in out
        assert "Fork" in out

    def test_info(self, store, capsys):
        assert main([str(store), "info", "Example"]) == 0
        out = capsys.readouterr().out
        assert "A::INTEGER" in out
        assert "versions:    2" in out

    def test_info_of_a_fresh_array_prints_no_ratio(self, tmp_path, capsys):
        root = tmp_path / "fresh"
        with Database(root) as db:
            db.execute("CREATE UPDATABLE ARRAY Empty "
                       "( A::INTEGER ) [ I=0:7 ];")
        assert main([str(root), "info", "Empty"]) == 0
        out = capsys.readouterr().out
        assert "ratio:       -\n" in out
        assert "inf" not in out and "sparsity" not in out

    def test_info_branch_parentage(self, store, capsys):
        main([str(store), "info", "Fork"])
        out = capsys.readouterr().out
        assert "from Example@1" in out

    def test_versions(self, store, capsys):
        assert main([str(store), "versions", "Example"]) == 0
        out = capsys.readouterr().out
        assert "v1" in out
        assert "v2" in out
        assert "parent=v1" in out

    def test_chunks(self, store, capsys):
        assert main([str(store), "chunks", "Example", "2"]) == 0
        out = capsys.readouterr().out
        assert "chunk-" in out
        assert "delta[" in out or "materialized[" in out

    def test_layout_tree(self, store, capsys):
        assert main([str(store), "layout", "Example"]) == 0
        out = capsys.readouterr().out
        assert "M v1" in out   # materialized root
        assert "Δ v2" in out   # delta child

    def test_ingest_creates_and_appends(self, store, tmp_path, capsys):
        files = []
        for index in range(2):
            data = np.full((6, 6), index + 1, dtype=np.int64)
            path = tmp_path / f"frame{index}.npy"
            np.save(path, data)
            files.append(str(path))
        assert main([str(store), "ingest", "Scans", *files]) == 0
        out = capsys.readouterr().out
        assert "v1" in out and "v2" in out
        assert "ingested 2 version(s)" in out
        assert "encode tasks" in out
        with Database(store) as db:
            assert db.versions("Scans") == [1, 2]
            np.testing.assert_array_equal(
                db.select("Scans@2"), np.full((6, 6), 2, dtype=np.int64))

    def test_ingest_existing_array(self, store, tmp_path, capsys):
        data = np.arange(64, dtype=np.int32).reshape(8, 8)
        path = tmp_path / "next.npy"
        np.save(path, data + 5)
        assert main([str(store), "ingest", "Example", str(path)]) == 0
        assert "v3" in capsys.readouterr().out
        with Database(store) as db:
            np.testing.assert_array_equal(db.select("Example@3"),
                                          data + 5)

    def test_ingest_missing_file_fails_before_side_effects(
            self, store, tmp_path, capsys):
        data = np.ones((4, 4), dtype=np.int32)
        path = tmp_path / "ok.npy"
        np.save(path, data)
        assert main([str(store), "ingest", "Scans", str(path),
                     str(tmp_path / "typo.npy")]) == 2
        with Database(store) as db:
            assert "Scans" not in db.manager.list_arrays()

    def test_ingest_unusable_chunk_budget_creates_nothing(
            self, store, tmp_path):
        path = tmp_path / "frame.npy"
        np.save(path, np.ones((4, 4), dtype=np.int32))
        with pytest.raises(StorageError, match="chunk budget"):
            main([str(store), "ingest", "Scans", str(path),
                  "--chunk-bytes", "0"])
        with Database(store) as db:
            assert "Scans" not in db.manager.list_arrays()

    def test_sql(self, store, capsys):
        assert main([str(store), "sql", "VERSIONS(Example);"]) == 0
        out = capsys.readouterr().out
        assert "Example@1" in out

    def test_unknown_array_fails(self, store):
        from repro.core.errors import ArrayNotFoundError

        with pytest.raises(ArrayNotFoundError):
            main([str(store), "info", "Ghost"])

    def test_requires_command(self, store):
        with pytest.raises(SystemExit):
            main([str(store)])

    def test_backend_flag(self, store, capsys):
        assert main([str(store), "--backend", "local", "list"]) == 0
        assert "Example" in capsys.readouterr().out

    def test_backend_memory_is_empty_store(self, store, capsys):
        # The memory backend is ephemeral: nothing to inspect, but the
        # knob must wire through cleanly.
        assert main([str(store), "--backend", "memory", "list"]) == 0
        assert capsys.readouterr().out == ""

    def test_unknown_backend_rejected(self, store):
        with pytest.raises(SystemExit):
            main([str(store), "--backend", "tape", "list"])


class TestConcurrencyFlags:
    def test_striped_backend_round_trip(self, tmp_path, capsys):
        root = tmp_path / "striped-store"
        with Database(root, chunk_bytes=2048,
                      backend="striped:2") as db:
            db.execute("CREATE UPDATABLE ARRAY Example "
                       "( A::INTEGER ) [ I=0:7, J=0:7 ];")
            db.insert("Example",
                      np.arange(64, dtype=np.int32).reshape(8, 8))
        assert main([str(root), "--backend", "striped:2", "info",
                     "Example"]) == 0
        out = capsys.readouterr().out
        assert "versions:    1" in out

    def test_object_backend_round_trip(self, tmp_path, capsys):
        root = tmp_path / "object-store"
        with Database(root, chunk_bytes=2048, backend="object") as db:
            db.execute("CREATE UPDATABLE ARRAY Example "
                       "( A::INTEGER ) [ I=0:7, J=0:7 ];")
            db.insert("Example",
                      np.arange(64, dtype=np.int32).reshape(8, 8))
        assert main([str(root), "--backend", "object", "info",
                     "Example"]) == 0
        out = capsys.readouterr().out
        assert "versions:    1" in out

    def test_faulty_backend_round_trip(self, tmp_path, capsys):
        # Fault-free mode (seed 0): the wrapper is a transparent pass-
        # through, so a store written through it reads back normally.
        root = tmp_path / "faulty-store"
        with Database(root, chunk_bytes=2048, backend="faulty:0") as db:
            db.execute("CREATE UPDATABLE ARRAY Example "
                       "( A::INTEGER ) [ I=0:7, J=0:7 ];")
            db.insert("Example",
                      np.arange(64, dtype=np.int32).reshape(8, 8))
        assert main([str(root), "--backend", "faulty:0", "info",
                     "Example"]) == 0
        out = capsys.readouterr().out
        assert "versions:    1" in out

    def test_invalid_striped_spec_fails_before_side_effects(
            self, tmp_path):
        root = tmp_path / "never-created"
        for spec in ("striped:0", "striped:x", "striped:2:tape",
                     "object:tape", "object:durable:extra",
                     "faulty", "faulty:-1", "faulty:1:tape"):
            with pytest.raises(SystemExit):
                main([str(root), "--backend", spec, "list"])
        assert not root.exists()

    def test_workers_flag_is_gone(self, tmp_path):
        """The fan width is the host's CPU count, not a flag."""
        root = tmp_path / "never-created"
        with pytest.raises(SystemExit):
            main([str(root), "--workers", "4", "list"])
        assert not root.exists()
