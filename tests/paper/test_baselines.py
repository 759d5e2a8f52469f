"""Tests for the SVN-like and Git-like comparison systems (Section V-C)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.baselines import (
    GitLikeRepository,
    GitOutOfMemoryError,
    SvnLikeRepository,
    xdelta_decode,
    xdelta_encode,
)
from repro.core.errors import StorageError


class TestXDelta:
    def test_roundtrip_similar(self, rng):
        base = rng.integers(0, 255, 4096).astype(np.uint8).tobytes()
        target = bytearray(base)
        target[100:120] = b"x" * 20
        target = bytes(target)
        delta = xdelta_encode(target, base)
        assert xdelta_decode(delta, base) == target
        assert len(delta) < len(target) / 4

    def test_roundtrip_dissimilar(self, rng):
        base = rng.integers(0, 255, 1000).astype(np.uint8).tobytes()
        target = rng.integers(0, 255, 1000).astype(np.uint8).tobytes()
        delta = xdelta_encode(target, base)
        assert xdelta_decode(delta, base) == target

    def test_empty_inputs(self):
        assert xdelta_decode(xdelta_encode(b"", b""), b"") == b""
        assert xdelta_decode(xdelta_encode(b"abc", b""), b"") == b"abc"
        assert xdelta_decode(xdelta_encode(b"", b"abc"), b"abc") == b""

    def test_identical(self):
        data = b"0123456789abcdef" * 64
        delta = xdelta_encode(data, data)
        assert xdelta_decode(delta, data) == data
        assert len(delta) < 100

    @settings(max_examples=30, deadline=None)
    @given(base=st.binary(max_size=500), target=st.binary(max_size=500))
    def test_roundtrip_property(self, base, target):
        assert xdelta_decode(xdelta_encode(target, base), base) == target


def _versions(rng, count=5, size=4096):
    base = rng.integers(0, 255, size).astype(np.uint8)
    versions = [base.tobytes()]
    for _ in range(count - 1):
        follower = np.frombuffer(versions[-1], dtype=np.uint8).copy()
        cells = rng.choice(size, size=size // 100, replace=False)
        follower[cells] += 1
        versions.append(follower.tobytes())
    return versions


@pytest.mark.parametrize("factory", [SvnLikeRepository, GitLikeRepository],
                         ids=["svn", "git"])
class TestCommonBehaviour:
    def test_commit_read_roundtrip(self, factory, tmp_path, rng):
        repo = factory(tmp_path)
        versions = _versions(rng)
        for contents in versions:
            repo.commit({"matrix.dat": contents})
        for revision, expected in enumerate(versions, 1):
            assert repo.read("matrix.dat", revision) == expected

    def test_roundtrip_after_pack(self, factory, tmp_path, rng):
        repo = factory(tmp_path)
        versions = _versions(rng)
        for contents in versions:
            repo.commit({"matrix.dat": contents})
        repo.pack()
        for revision, expected in enumerate(versions, 1):
            assert repo.read("matrix.dat", revision) == expected

    def test_missing_revision(self, factory, tmp_path, rng):
        repo = factory(tmp_path)
        repo.commit({"matrix.dat": b"data" * 100})
        with pytest.raises(StorageError):
            repo.read("matrix.dat", 2)
        with pytest.raises(StorageError):
            repo.read("other.dat", 1)

    def test_multiple_files(self, factory, tmp_path, rng):
        repo = factory(tmp_path)
        repo.commit({"a.dat": b"A" * 1000, "b.dat": b"B" * 1000})
        repo.commit({"a.dat": b"A" * 999 + b"!"})
        assert repo.read("a.dat", 2).endswith(b"!")
        assert repo.read("b.dat", 1) == b"B" * 1000

    def test_subselect_reads_whole_version(self, factory, tmp_path, rng):
        # The array-obliviousness Table VI measures: no partial access.
        repo = factory(tmp_path)
        contents = _versions(rng, count=1)[0]
        repo.commit({"matrix.dat": contents})
        repo.stats.reset()
        window = repo.subselect("matrix.dat", 1, 100, 10)
        assert window == contents[100:110]
        assert repo.stats.bytes_read >= len(contents) / 2


class TestSvnSpecifics:
    def test_delta_chain_compresses(self, tmp_path, rng):
        repo = SvnLikeRepository(tmp_path)
        versions = _versions(rng, count=8)
        for contents in versions:
            repo.commit({"m.dat": contents})
        assert repo.data_size() < sum(len(v) for v in versions) / 2

    def test_large_files_stored_fulltext(self, tmp_path, rng):
        # The max_delta_bytes cutoff behind Table VI's 16 GB SVN row.
        repo = SvnLikeRepository(tmp_path, max_delta_bytes=1000)
        versions = _versions(rng, count=4, size=4096)
        for contents in versions:
            repo.commit({"m.dat": contents})
        total = sum(len(v) for v in versions)
        assert repo.data_size() >= total  # no compression at all

    def test_fulltext_anchors_bound_chains(self, tmp_path, rng):
        repo = SvnLikeRepository(tmp_path, fulltext_interval=4)
        versions = _versions(rng, count=9)
        for contents in versions:
            repo.commit({"m.dat": contents})
        assert repo.read("m.dat", 9) == versions[8]


class TestGitSpecifics:
    def test_identical_contents_deduplicated(self, tmp_path):
        repo = GitLikeRepository(tmp_path)
        blob = b"same-bytes" * 500
        repo.commit({"m.dat": blob})
        repo.commit({"m.dat": blob})  # content-addressed: same object
        assert len(list((tmp_path / "objects").rglob("*"))) <= 3

    def test_repack_shrinks_similar_history(self, tmp_path, rng):
        repo = GitLikeRepository(tmp_path)
        for contents in _versions(rng, count=10):
            repo.commit({"m.dat": contents})
        before = repo.data_size()
        repo.pack()
        after = repo.data_size()
        assert after < before

    def test_out_of_memory_on_large_objects(self, tmp_path, rng):
        # Table VI: "Git ran out of memory on our test machine."
        repo = GitLikeRepository(tmp_path, window=10,
                                 memory_limit_bytes=10_000)
        for contents in _versions(rng, count=4, size=8192):
            repo.commit({"m.dat": contents})
        with pytest.raises(GitOutOfMemoryError):
            repo.pack()

    def test_within_memory_budget_packs(self, tmp_path, rng):
        repo = GitLikeRepository(tmp_path, window=2,
                                 memory_limit_bytes=100_000_000)
        versions = _versions(rng, count=4)
        for contents in versions:
            repo.commit({"m.dat": contents})
        repo.pack()
        assert repo.read("m.dat", 4) == versions[3]

    def test_chain_depth_bounded(self, tmp_path, rng):
        repo = GitLikeRepository(tmp_path, window=3, max_chain_depth=2)
        versions = _versions(rng, count=12)
        for contents in versions:
            repo.commit({"m.dat": contents})
        repo.pack()
        for revision, expected in enumerate(versions, 1):
            assert repo.read("m.dat", revision) == expected
