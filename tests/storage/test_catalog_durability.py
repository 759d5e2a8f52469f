"""The catalog's crash contract follows the backend's, and the local
backend creates each object directory once.

A file catalog logs ahead (WAL).  It syncs every commit only when the
backend's barrier makes the bytes the commit names crash-safe
(``StorageBackend.durable``); otherwise a power loss may drop the last
commits but never tears one.  Either way a closed store is whole on
disk: reopened, or copied and reopened, it holds every commit.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager

#: backend spec -> whether its barrier makes bytes crash-safe.
SPECS = {
    "local": False,
    "durable": True,
    "object": False,
    "object:durable": True,
    "striped:2": False,
    "striped:2:durable": True,
    "faulty:0": False,
    "faulty:0:durable": True,
    "memory": False,
}


def _store(root, spec: str) -> VersionedStorageManager:
    return VersionedStorageManager(root, backend=spec, chunk_bytes=2048)


def _fill(manager, versions: int = 4) -> None:
    rng = np.random.default_rng(33)
    manager.create_array("a", ArraySchema.simple((32, 32), dtype=np.int32))
    data = rng.integers(0, 1000, (32, 32)).astype(np.int32)
    for _ in range(versions):
        manager.insert("a", data)
        data = data + rng.integers(0, 2, data.shape).astype(np.int32)


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_catalog_pragmas_follow_the_backend(tmp_path, spec):
    manager = _store(tmp_path / "s", spec)
    assert manager.backend.durable is SPECS[spec]
    pragma = manager.catalog._conn.execute
    journal = pragma("PRAGMA journal_mode").fetchone()[0]
    synchronous = pragma("PRAGMA synchronous").fetchone()[0]
    if spec == "memory":
        assert journal == "memory"  # no catalog file at all
    else:
        assert journal == "wal"
        assert synchronous == (2 if SPECS[spec] else 1)  # FULL, NORMAL
    manager.close()


@pytest.mark.parametrize("spec", ["local", "durable", "object:durable"])
def test_close_and_reopen_keeps_every_commit(tmp_path, spec):
    manager = _store(tmp_path / "s", spec)
    _fill(manager)
    before = manager.fingerprint(), manager.get_versions("a")
    contents = [manager.select("a", v).single() for v in before[1]]
    manager.close()
    # Closing checkpoints the log into the catalog file.
    assert not (tmp_path / "s" / "metadata.db-wal").exists()
    reopened = _store(tmp_path / "s", spec)
    assert (reopened.fingerprint(), reopened.get_versions("a")) == before
    for version, data in zip(before[1], contents):
        assert np.array_equal(reopened.select("a", version).single(),
                              data)
    reopened.close()


def test_a_copied_closed_store_reopens_with_the_same_fingerprint(tmp_path):
    manager = _store(tmp_path / "s", "local")
    _fill(manager)
    fingerprint = manager.fingerprint()
    manager.close()
    shutil.copytree(tmp_path / "s", tmp_path / "copy")
    copy = _store(tmp_path / "copy", "local")
    assert copy.fingerprint() == fingerprint
    copy.close()


class TestObjectDirectories:
    def test_a_steady_insert_makes_no_mkdir(self, tmp_path, monkeypatch):
        manager = _store(tmp_path / "s", "local")
        _fill(manager, versions=2)
        calls = []
        mkdir = os.mkdir
        monkeypatch.setattr(os, "mkdir",
                            lambda *args, **kwargs: calls.append(args)
                            or mkdir(*args, **kwargs))
        data = manager.select("a", 2).single() + 1
        manager.insert("a", data)
        assert calls == []
        assert np.array_equal(manager.select("a", 3).single(), data)
        manager.close()

    @pytest.mark.parametrize("spec", ["local", "durable", "object"])
    def test_drop_and_recreate_then_insert(self, tmp_path, spec):
        manager = _store(tmp_path / "s", spec)
        _fill(manager, versions=2)
        manager.delete_array("a")
        _fill(manager, versions=3)
        assert manager.get_versions("a") == [1, 2, 3]
        manager.close()
        reopened = _store(tmp_path / "s", spec)
        assert reopened.get_versions("a") == [1, 2, 3]
        reopened.select("a", 3)
        reopened.close()
