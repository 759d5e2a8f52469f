"""Delta-of-delta re-base on the insert path, byte for byte.

A chain-policy insert needs the parent version as its delta base.  The
cheap orders of resolution — the write path's hot slot, then re-basing
against the chain's composed accumulator (:class:`RebaseState`), then
a full parent select — must all produce the *same stored bytes*: the
same codes, the same winning codec, the same fingerprint.  These tests
drive all three paths over the same version sequences across every
delta mode's dtype family and assert fingerprint identity, plus the
gating contract: re-base only runs when every candidate codec can
encode from the shared plan — with the chunk cache on or off alike —
and the ``encode_rebases`` counter records exactly the chunks that
took the fused path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager

DTYPES = [np.int64, np.int32, np.int16, np.uint8, np.uint64,
          np.bool_, np.float64, np.float32]


def _versions(dtype, depth=4, shape=(40, 40), seed=2012):
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


def _build(root, versions, *, reopen=False, rebase=True, **kwargs):
    """Insert ``versions``; with ``reopen`` each insert gets a fresh
    manager, so the hot slot is always cold and a chain-policy insert
    must re-base — or, with ``rebase=False`` (the manager's chain-state
    lookup shadowed to decline, as it does for a non-composable
    chain), fall back to a full parent select."""
    kwargs.setdefault("chunk_bytes", 4000)
    kwargs.setdefault("delta_policy", "chain")

    def open_manager():
        manager = VersionedStorageManager(root, **kwargs)
        if not rebase:
            manager._chain_states = lambda record, base_version: None
        return manager

    manager = open_manager()
    manager.create_array("a", ArraySchema.simple(
        versions[0].shape, dtype=versions[0].dtype))
    for index, data in enumerate(versions):
        if reopen and index:
            manager.close()
            manager = open_manager()
        manager.insert("a", data)
    return manager


class TestRebaseByteIdentity:
    @pytest.mark.parametrize("dtype", DTYPES,
                             ids=[np.dtype(d).name for d in DTYPES])
    def test_three_paths_one_fingerprint(self, tmp_path, dtype):
        versions = _versions(dtype)
        prints = {}
        managers = {}
        managers["hot"] = _build(tmp_path / "hot", versions)
        managers["rebase"] = _build(tmp_path / "rebase", versions,
                                    reopen=True)
        managers["select"] = _build(tmp_path / "select", versions,
                                    reopen=True, rebase=False)
        for name, manager in managers.items():
            prints[name] = manager.fingerprint("a")
        assert prints["hot"] == prints["rebase"] == prints["select"]
        # The re-opened store actually took the re-base path on its
        # final (cold-slot) insert; the declined store never does.
        assert managers["rebase"].stats.encode_rebases > 0
        assert managers["select"].stats.encode_rebases == 0
        # ...and every path returns the exact version contents.
        for manager in managers.values():
            for index, data in enumerate(versions):
                got = manager.select("a", index + 1)
                assert np.array_equal(got.attribute("value"), data)
            manager.close()

    def test_auto_policy_matches_too(self, tmp_path):
        versions = _versions(np.int64, depth=5)
        hot = _build(tmp_path / "hot", versions, delta_policy="auto")
        cold = _build(tmp_path / "cold", versions, delta_policy="auto",
                      reopen=True)
        assert hot.fingerprint("a") == cold.fingerprint("a")
        hot.close()
        cold.close()


class TestRebaseGating:
    def test_counter_counts_rebased_chunks(self, tmp_path):
        versions = _versions(np.int64, depth=3, shape=(16, 16))
        kwargs = dict(chunk_bytes=1 << 20, delta_policy="chain")
        manager = _build(tmp_path / "s", versions[:1], **kwargs)
        manager.close()
        for data in versions[1:]:
            manager = VersionedStorageManager(tmp_path / "s", **kwargs)
            manager.insert("a", data)
            # Single-chunk array: exactly one re-based chunk per
            # cold-slot chain insert.
            assert manager.stats.encode_rebases == 1
            manager.close()

    def test_hot_slot_skips_rebase(self, tmp_path):
        versions = _versions(np.int64, depth=4)
        manager = _build(tmp_path / "s", versions)
        assert manager.stats.encode_rebases == 0
        manager.close()

    def test_cache_does_not_change_rebase(self, tmp_path):
        # A chain state is composed, never decoded, so it has nothing
        # to admit: the same inserts onto a non-hot parent re-base the
        # same chunks and store the same bytes with the cache on or
        # off, and leave the cache exactly as they found it.
        versions = _versions(np.int64, depth=4)
        stores = {}
        for name, cache_bytes in (("off", 0), ("on", 1 << 20)):
            kwargs = dict(chunk_bytes=4000, delta_policy="chain",
                          cache_bytes=cache_bytes)
            manager = _build(tmp_path / name, versions[:1], **kwargs)
            rebases = 0
            for data in versions[1:]:
                manager.close()
                manager = VersionedStorageManager(tmp_path / name,
                                                  **kwargs)
                manager.insert("a", data)
                rebases += manager.stats.encode_rebases
                assert manager.cache_info()["entries"] == 0
            stores[name] = (rebases, manager.fingerprint("a"))
            for index, data in enumerate(versions):
                assert np.array_equal(
                    manager.select("a", index + 1).attribute("value"),
                    data)
            manager.close()
        assert stores["on"] == stores["off"]
        assert stores["on"][0] > 0

    @pytest.mark.parametrize("kwargs", [
        dict(delta_policy="chain", delta_codec="bsdiff"),
        dict(delta_policy="materialize"),
    ], ids=["needs-base-canvas", "never-deltas"])
    def test_policy_without_plan_sufficient_codecs_never_rebases(
            self, tmp_path, kwargs):
        versions = _versions(np.int64, depth=3, shape=(16, 16))
        kwargs = dict(chunk_bytes=1 << 20, **kwargs)
        manager = _build(tmp_path / "s", versions, reopen=True, **kwargs)
        assert not manager.encoder.can_rebase
        assert manager.stats.encode_rebases == 0
        for index, data in enumerate(versions):
            assert np.array_equal(
                manager.select("a", index + 1).attribute("value"), data)
        manager.close()
