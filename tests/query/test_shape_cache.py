"""The parse cache: one template per SELECT shape.

Statements that differ only in their numbers share a shape, so
:func:`repro.query.aql.parse` tokenizes a shape once and builds every
later statement of it from the cached template.  The cache holds syntax
only: everything that depends on the store (the array, its
dimensionality, its versions) or on the numbers' values is checked again
on every call.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.errors import (
    AQLExecutionError,
    AQLSyntaxError,
    DimensionError,
    VersionNotFoundError,
)
from repro.query import Database, parse
from repro.query import aql
from repro.query.aql import SelectStatement


@pytest.fixture(autouse=True)
def cold_shapes():
    """Every test starts with no cached shape."""
    aql._TEMPLATES.clear()
    yield
    aql._TEMPLATES.clear()


@pytest.fixture
def counted_tokenize(monkeypatch):
    """Counts every statement the parser tokenizes."""
    calls = []
    real = aql.tokenize

    def tokenize(source):
        calls.append(source)
        return real(source)
    monkeypatch.setattr(aql, "tokenize", tokenize)
    return calls


@pytest.fixture
def db(tmp_path):
    """A 24x24 array on a 3x3 grid of 8x8 chunks, three versions."""
    with Database(tmp_path / "db", backend="memory", chunk_bytes=256,
                  cache_bytes=1 << 20) as database:
        database.execute(
            "CREATE UPDATABLE ARRAY A ( V::INTEGER ) [ I=0:23, J=0:23 ];")
        rng = np.random.default_rng(39)
        data = rng.integers(0, 1000, (24, 24)).astype(np.int32)
        for _ in range(3):
            database.manager.insert("A", data)
            data = data + rng.integers(0, 3, (24, 24)).astype(np.int32)
        yield database


def _windows(rng, count):
    """Random in-bounds (version, r0, r1, c0, c1) windows of ``A``."""
    for _ in range(count):
        r0, r1 = sorted(int(x) for x in rng.integers(0, 24, 2))
        c0, c1 = sorted(int(x) for x in rng.integers(0, 24, 2))
        yield int(rng.integers(1, 4)), r0, r1, c0, c1


class TestOneShape:
    def test_statements_of_one_shape_tokenize_once(self, db,
                                                   counted_tokenize):
        rng = np.random.default_rng(7)
        for version, r0, r1, c0, c1 in _windows(rng, 2000):
            got = db.execute(f"SELECT * FROM SUBSAMPLE(A@{version}, "
                             f"{r0}, {r1}, {c0}, {c1});").value
            want = db.manager.select_region(
                "A", version, (r0, c0), (r1, c1)).single()
            np.testing.assert_array_equal(got, want)
        assert len(counted_tokenize) == 1

    def test_hit_equals_cold_parse(self, counted_tokenize):
        first = parse("SELECT * FROM SUBSAMPLE(A@3, 0, 1, 2, 3);")
        second = parse("SELECT * FROM SUBSAMPLE(A@-7, 9, 8, -1, 70);")
        assert first == SelectStatement(aql.VersionSpec("A", 3),
                                        (0, 1, 2, 3))
        assert second == SelectStatement(aql.VersionSpec("A", -7),
                                         (9, 8, -1, 70))
        assert len(counted_tokenize) == 1

    @pytest.mark.parametrize("source", [
        "SELECT * FROM A@'1-5-2011';",
        "SELECT * FROM A@calibrated;",
        "SELECT * FROM SUBSAMPLE(A@*, 0, 1, 0, 1, 0, 0);",
        "SELECT * FROM A@2;",
    ], ids=["date", "label", "star", "id"])
    def test_every_select_spec_is_cached(self, source, counted_tokenize):
        assert parse(source) == parse(source)
        assert len(counted_tokenize) == 1

    def test_digits_in_strings_and_identifiers_are_not_slots(
            self, counted_tokenize):
        """``'1-5-2011'`` and ``A1`` keep their digits: another date or
        another name is another shape, parsed cold."""
        assert parse("SELECT * FROM A1@'1-5-2011';").spec.date == \
            "1-5-2011"
        assert parse("SELECT * FROM A1@'1-6-2011';").spec.date == \
            "1-6-2011"
        assert parse("SELECT * FROM A2@'1-6-2011';").spec.array == "A2"
        assert len(counted_tokenize) == 3

    def test_unicode_digits_are_numbers(self, counted_tokenize):
        assert parse("SELECT * FROM A@3;").spec.version == 3
        assert parse("SELECT * FROM A@٣;").spec.version == 3
        assert len(counted_tokenize) == 1


class TestNothingButSyntaxIsCached:
    def test_drop_and_recreate_with_other_ndim(self, db,
                                               counted_tokenize):
        statement = "SELECT * FROM SUBSAMPLE(A@1, 0, 1, 0, 1);"
        assert db.execute(statement).value.shape == (2, 2)
        db.execute("DROP ARRAY A;")
        db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                   "[ I=0:3, J=0:3, K=0:3 ];")
        db.manager.insert("A", np.zeros((4, 4, 4), dtype=np.int32))
        tokenized = len(counted_tokenize)
        with pytest.raises(AQLExecutionError,
                           match="got 2 coordinate pairs; array has 3"):
            db.execute(statement)
        # The template was used: the check ran on the hit.
        assert len(counted_tokenize) == tokenized

    def test_version_and_bounds_checked_on_every_hit(self, db):
        db.execute("SELECT * FROM SUBSAMPLE(A@1, 0, 1, 0, 1);")
        with pytest.raises(VersionNotFoundError):
            db.execute("SELECT * FROM SUBSAMPLE(A@4, 0, 1, 0, 1);")
        with pytest.raises(DimensionError):
            db.execute("SELECT * FROM SUBSAMPLE(A@1, 0, 24, 0, 1);")
        with pytest.raises(DimensionError):
            db.execute("SELECT * FROM SUBSAMPLE(A@1, 1, 0, 0, 1);")
        db.execute("SELECT * FROM SUBSAMPLE(A@*, 0, 1, 0, 1, 0, 0);")
        with pytest.raises(AQLExecutionError, match="time range"):
            db.execute("SELECT * FROM SUBSAMPLE(A@*, 0, 1, 0, 1, 0, 3);")

    def test_syntax_errors_and_other_statements_are_not_cached(
            self, counted_tokenize):
        for _ in range(2):
            with pytest.raises(AQLSyntaxError):
                parse("SELECT * FROM SUBSAMPLE(A@1, 0);")
            parse("VERSIONS(A);")
            parse("DROP ARRAY A;")
        assert len(aql._TEMPLATES) == 0
        assert len(counted_tokenize) == 6


class TestOneSnapshotPerSelect:
    """A SELECT takes its array's catalog snapshot once: SUBSAMPLE's
    arity, the version spec and the read all come from that one
    committed state."""

    @pytest.mark.parametrize("statement", [
        "SELECT * FROM A@2;",
        "SELECT * FROM A@*;",
        "SELECT * FROM SUBSAMPLE(A@1, 0, 1, 0, 1);",
        "SELECT * FROM SUBSAMPLE(A@*, 0, 1, 0, 1, 0, 1);",
    ])
    def test_one_catalog_lookup(self, db, monkeypatch, statement):
        catalog = db.manager.catalog
        taken = []
        snapshot = catalog.snapshot

        def counted(name):
            taken.append(snapshot(name))
            return taken[-1]
        monkeypatch.setattr(catalog, "snapshot", counted)
        for _ in range(2):      # a cold parse, then a template hit
            db.execute(statement)
        assert len(taken) == 2

    def test_rank_change_between_check_and_read(self, db, monkeypatch):
        """A drop and a re-create at another rank commit right after
        the statement pinned its snapshot: it still answers, at the
        rank it checked, from the array it pinned (whose bytes a
        stubbed reclaim keeps)."""
        statement = "SELECT * FROM SUBSAMPLE(A@1, 0, 1, 0, 1);"
        expected = db.execute(statement).value
        manager = db.manager
        monkeypatch.setattr(manager.store, "delete_array", lambda name: None)
        snapshot = manager.catalog.snapshot

        def racing(name):
            pinned = snapshot(name)
            monkeypatch.setattr(manager.catalog, "snapshot", snapshot)
            manager.delete_array("A")
            db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                       "[ I=0:3, J=0:3, K=0:3 ];")
            manager.insert("A", np.zeros((4, 4, 4), dtype=np.int32))
            return pinned
        monkeypatch.setattr(manager.catalog, "snapshot", racing)
        np.testing.assert_array_equal(db.execute(statement).value, expected)
        with pytest.raises(AQLExecutionError,
                           match="got 2 coordinate pairs; array has 3"):
            db.execute(statement)


class TestBound:
    def test_cache_stays_at_its_bound(self):
        extra = 50
        for index in range(aql.SHAPE_CACHE_SIZE + extra):
            parse(f"SELECT * FROM A{index}@1;")
            assert len(aql._TEMPLATES) <= aql.SHAPE_CACHE_SIZE
        assert len(aql._TEMPLATES) == aql.SHAPE_CACHE_SIZE

    def test_least_recently_used_shape_leaves_first(self, counted_tokenize):
        parse("SELECT * FROM First@1;")
        for index in range(aql.SHAPE_CACHE_SIZE - 1):
            parse(f"SELECT * FROM A{index}@1;")
        parse("SELECT * FROM First@2;")      # a hit: now most recent
        parse("SELECT * FROM Newcomer@1;")   # evicts A0, not First
        tokenized = len(counted_tokenize)
        parse("SELECT * FROM First@3;")
        assert len(counted_tokenize) == tokenized
        parse("SELECT * FROM A0@1;")
        assert len(counted_tokenize) == tokenized + 1


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so a lost update shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestThreads:
    def test_mixed_shapes_on_four_threads_match_serial(self, db,
                                                       fast_switching):
        rng = np.random.default_rng(4)
        statements = []
        for version, r0, r1, c0, c1 in _windows(rng, 300):
            statements += [
                f"SELECT * FROM SUBSAMPLE(A@{version}, "
                f"{r0}, {r1}, {c0}, {c1});",
                f"select * from subsample(A@{version}, "
                f"{r0},{r1},{c0},{c1})",
                f"SELECT * FROM SUBSAMPLE(A@*, {r0}, {r1}, {c0}, {c1}, "
                f"0, {version - 1});",
                f"SELECT * FROM A@{version};",
            ]
        serial = [db.execute(s).value for s in statements]
        aql._TEMPLATES.clear()
        start = threading.Barrier(4)

        def run(offset):
            start.wait()
            return [(index, db.execute(statements[index]).value)
                    for index in range(offset, len(statements), 4)]
        with ThreadPoolExecutor(4) as pool:
            parts = [pool.submit(run, offset) for offset in range(4)]
            parallel = [pair for part in parts
                        for pair in part.result(timeout=60)]
        assert len(parallel) == len(statements)
        for index, value in parallel:
            np.testing.assert_array_equal(value, serial[index])

    def test_concurrent_misses_keep_the_bound(self, fast_switching):
        """Eight threads race misses and hits over twice as many shapes
        as the cache keeps: every parse is the cold parse and the cache
        ends exactly at its bound."""
        sources = [f"SELECT * FROM SUBSAMPLE(A{index % 512}@{index}, "
                   f"{index}, {index + 1});"
                   for index in range(2 * aql.SHAPE_CACHE_SIZE * 4)]
        start = threading.Barrier(8)

        def run(offset):
            start.wait()
            return [(source, parse(source))
                    for source in sources[offset::8]]
        with ThreadPoolExecutor(8) as pool:
            parts = [pool.submit(run, offset) for offset in range(8)]
            parsed = [pair for part in parts
                      for pair in part.result(timeout=60)]
        assert len(parsed) == len(sources)
        for source, statement in parsed:
            assert statement == aql._Parser(aql.tokenize(source),
                                            source).statement()
        assert len(aql._TEMPLATES) == aql.SHAPE_CACHE_SIZE
