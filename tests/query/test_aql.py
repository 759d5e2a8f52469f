"""Tests for the AQL parser and executor — the Appendix A walk-through."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    AQLExecutionError,
    AQLSyntaxError,
    ArrayNotFoundError,
)
from repro.query import Database, parse, tokenize
from repro.query.aql import (
    BranchStatement,
    CreateArrayStatement,
    LoadStatement,
    MergeStatement,
    SelectStatement,
    VersionsStatement,
)


@pytest.fixture
def db(tmp_path) -> Database:
    return Database(tmp_path / "db", chunk_bytes=4096)


def _example_versions():
    """The Appendix A example data: 3x3 integers, scaled per version."""
    base = np.arange(1, 10, dtype=np.int32).reshape(3, 3)
    return [base, base * 2, base * 3]


class TestTokenizer:
    def test_statement_tokens(self):
        tokens = tokenize("SELECT * FROM Example@2;")
        kinds = [(t.kind, t.text) for t in tokens]
        assert kinds == [("ident", "SELECT"), ("symbol", "*"),
                        ("ident", "FROM"), ("ident", "Example"),
                        ("symbol", "@"), ("number", "2"),
                        ("symbol", ";")]

    def test_string_literal(self):
        tokens = tokenize("LOAD A FROM 'file.dat'")
        assert tokens[-1].kind == "string"
        assert tokens[-1].text == "file.dat"

    def test_double_colon(self):
        tokens = tokenize("A::INTEGER")
        assert [t.text for t in tokens] == ["A", "::", "INTEGER"]

    def test_unexpected_character(self):
        with pytest.raises(AQLSyntaxError):
            tokenize("SELECT % FROM A")


class TestParser:
    def test_create_array(self):
        statement = parse("CREATE UPDATABLE ARRAY Example "
                          "( A::INTEGER ) [ I=0:2, J=0:2 ];")
        assert isinstance(statement, CreateArrayStatement)
        assert statement.name == "Example"
        assert statement.schema.shape == (3, 3)
        assert statement.schema.attributes[0].dtype == np.dtype(np.int32)

    def test_create_with_paper_extra_e_spelling(self):
        statement = parse("CREATE UPDATEABLE ARRAY X "
                          "( A::DOUBLE ) [ I=0:9 ];")
        assert statement.name == "X"

    def test_create_multi_attribute_multi_dim(self):
        statement = parse(
            "CREATE UPDATABLE ARRAY Big ( A::INTEGER, B::DOUBLE ) "
            "[ I=0:2, J=0:2, K=1:15, L=0:360 ];")
        assert len(statement.schema.attributes) == 2
        assert statement.schema.ndim == 4
        assert statement.schema.dimensions[2].lo == 1

    def test_load(self):
        statement = parse("LOAD Example FROM 'array_file.dat';")
        assert isinstance(statement, LoadStatement)
        assert statement.path == "array_file.dat"

    def test_versions(self):
        statement = parse("VERSIONS(Example);")
        assert isinstance(statement, VersionsStatement)
        assert statement.name == "Example"

    def test_select_by_id(self):
        statement = parse("SELECT * FROM Example@3;")
        assert isinstance(statement, SelectStatement)
        assert statement.spec.version == 3

    def test_select_by_date(self):
        statement = parse("SELECT * FROM Example@'1-5-2011';")
        assert statement.spec.date == "1-5-2011"

    def test_select_star_versions(self):
        statement = parse("SELECT * FROM Example@*;")
        assert statement.spec.all_versions

    def test_select_subsample(self):
        statement = parse(
            "SELECT * FROM SUBSAMPLE(Example@*, 0, 1, 1, 2, 2, 3);")
        assert statement.subsample == (0, 1, 1, 2, 2, 3)
        assert statement.spec.all_versions

    def test_branch(self):
        statement = parse("BRANCH(Example@2 NewBranch);")
        assert isinstance(statement, BranchStatement)
        assert statement.source.version == 2
        assert statement.new_name == "NewBranch"

    def test_merge(self):
        statement = parse("MERGE(A@3, B@1, Combined);")
        assert isinstance(statement, MergeStatement)
        assert [s.array for s in statement.parents] == ["A", "B"]
        assert statement.new_name == "Combined"

    def test_syntax_errors(self):
        bad = [
            "SELECT FROM Example@1;",
            "CREATE ARRAY X ( A::INTEGER ) [ I=0:2 ];",
            "CREATE UPDATABLE ARRAY X ( A:INTEGER ) [ I=0:2 ];",
            "SELECT * FROM Example;",
            "SELECT * FROM SUBSAMPLE(Example@*, 0, 1, 1);",
            "VERSIONS Example;",
            "LOAD Example FROM file.dat;",
            "EXPLAIN SELECT * FROM A@1;",
            "SELECT * FROM A@1 garbage",
        ]
        for statement in bad:
            with pytest.raises(AQLSyntaxError):
                parse(statement)


class TestAppendixAWalkthrough:
    """Execute the Appendix A session end to end."""

    def test_full_session(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY Example "
                   "( A::INTEGER ) [ I=0:2, J=0:2 ];")

        for index, contents in enumerate(_example_versions(), 1):
            path = tmp_path / "db" / f"v{index}.npy"
            np.save(path, contents)
            result = db.execute(f"LOAD Example FROM 'v{index}.npy';")
            assert result.value == index

        versions = db.execute("VERSIONS(Example);")
        assert versions.value == ["Example@1", "Example@2", "Example@3"]

        # SELECT * FROM Example@3 returns the tripled array.
        third = db.execute("SELECT * FROM Example@3;").value
        np.testing.assert_array_equal(third, _example_versions()[2])

        # SELECT * FROM Example@* stacks all versions on a new axis.
        stack = db.execute("SELECT * FROM Example@*;").value
        assert stack.shape == (3, 3, 3)
        np.testing.assert_array_equal(stack[1], _example_versions()[1])

        # The paper's SUBSAMPLE example: rows 0-1, cols 1-2, versions 2-3
        # (time indices 2..3 are 1-based in the paper's prose; our time
        # pair indexes the stacked axis zero-based, so 1..2).
        cube = db.execute(
            "SELECT * FROM SUBSAMPLE(Example@*, 0, 1, 1, 2, 1, 2);").value
        assert cube.shape == (2, 2, 2)
        expected = np.stack([v[0:2, 1:3] for v in _example_versions()[1:]])
        np.testing.assert_array_equal(cube, expected)

    def test_branching_session(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY Example "
                   "( A::INTEGER ) [ I=0:2, J=0:2 ];")
        for index, contents in enumerate(_example_versions(), 1):
            np.save(tmp_path / "db" / f"v{index}.npy", contents)
            db.execute(f"LOAD Example FROM 'v{index}.npy';")

        db.execute("BRANCH(Example@2 NewBranch);")
        branch_contents = db.execute("SELECT * FROM NewBranch@1;").value
        np.testing.assert_array_equal(branch_contents,
                                      _example_versions()[1])

        other = _example_versions()[0] + 100
        np.save(tmp_path / "db" / "other.npy", other)
        db.execute("LOAD NewBranch FROM 'other.npy';")
        assert db.execute("VERSIONS(NewBranch);").value == \
            ["NewBranch@1", "NewBranch@2"]
        # The trunk is untouched.
        assert db.execute("VERSIONS(Example);").value == \
            ["Example@1", "Example@2", "Example@3"]

    def test_merge_session(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY Example "
                   "( A::INTEGER ) [ I=0:2, J=0:2 ];")
        for index, contents in enumerate(_example_versions(), 1):
            np.save(tmp_path / "db" / f"v{index}.npy", contents)
            db.execute(f"LOAD Example FROM 'v{index}.npy';")
        db.execute("BRANCH(Example@1 Side);")
        db.execute("MERGE(Example@3, Side@1, Combined);")
        merged = db.execute("SELECT * FROM Combined@*;").value
        assert merged.shape == (2, 3, 3)
        np.testing.assert_array_equal(merged[0], _example_versions()[2])
        np.testing.assert_array_equal(merged[1], _example_versions()[0])

    def test_select_by_date(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY Example "
                   "( A::INTEGER ) [ I=0:2, J=0:2 ];")
        from repro.query.processor import parse_date

        first, second = _example_versions()[:2]
        db.manager.insert("Example", first,
                          timestamp=parse_date("1-4-2011 10:00"))
        db.manager.insert("Example", second,
                          timestamp=parse_date("1-5-2011 10:00"))
        on_the_fifth = db.execute(
            "SELECT * FROM Example@'1-5-2011';").value
        np.testing.assert_array_equal(on_the_fifth, second)
        on_the_fourth = db.execute(
            "SELECT * FROM Example@'1-4-2011';").value
        np.testing.assert_array_equal(on_the_fourth, first)

    def test_drop_and_delete_version(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY Example "
                   "( A::INTEGER ) [ I=0:2, J=0:2 ];")
        for index, contents in enumerate(_example_versions(), 1):
            np.save(tmp_path / "db" / f"v{index}.npy", contents)
            db.execute(f"LOAD Example FROM 'v{index}.npy';")
        db.execute("DELETE VERSION Example@2;")
        assert db.execute("VERSIONS(Example);").value == \
            ["Example@1", "Example@3"]
        np.testing.assert_array_equal(
            db.execute("SELECT * FROM Example@3;").value,
            _example_versions()[2])
        db.execute("DROP ARRAY Example;")
        with pytest.raises(ArrayNotFoundError):
            db.execute("VERSIONS(Example);")


class TestLoadErrors:
    def test_missing_file(self, db):
        db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) [ I=0:2 ];")
        with pytest.raises(AQLExecutionError):
            db.execute("LOAD A FROM 'nope.npy';")

    def test_raw_binary_load(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) [ I=0:3 ];")
        data = np.array([5, 6, 7, 8], dtype=np.int32)
        (tmp_path / "db" / "raw.dat").write_bytes(data.tobytes())
        db.execute("LOAD A FROM 'raw.dat';")
        np.testing.assert_array_equal(
            db.execute("SELECT * FROM A@1;").value, data)

    def test_raw_binary_wrong_size(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) [ I=0:3 ];")
        (tmp_path / "db" / "raw.dat").write_bytes(b"12")
        with pytest.raises(AQLExecutionError):
            db.execute("LOAD A FROM 'raw.dat';")


class TestSubsampleValidation:
    def test_wrong_pair_count(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                   "[ I=0:2, J=0:2 ];")
        np.save(tmp_path / "db" / "x.npy",
                np.zeros((3, 3), dtype=np.int32))
        db.execute("LOAD A FROM 'x.npy';")
        with pytest.raises(AQLExecutionError):
            db.execute("SELECT * FROM SUBSAMPLE(A@*, 0, 1);")

    def test_time_range_out_of_bounds(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                   "[ I=0:2, J=0:2 ];")
        np.save(tmp_path / "db" / "x.npy",
                np.zeros((3, 3), dtype=np.int32))
        db.execute("LOAD A FROM 'x.npy';")
        with pytest.raises(AQLExecutionError):
            db.execute("SELECT * FROM SUBSAMPLE(A@*, 0, 1, 0, 1, 5, 9);")

    def test_subsample_single_version(self, db, tmp_path):
        db.execute("CREATE UPDATABLE ARRAY A ( V::INTEGER ) "
                   "[ I=0:2, J=0:2 ];")
        data = np.arange(9, dtype=np.int32).reshape(3, 3)
        np.save(tmp_path / "db" / "x.npy", data)
        db.execute("LOAD A FROM 'x.npy';")
        window = db.execute(
            "SELECT * FROM SUBSAMPLE(A@1, 1, 2, 0, 1);").value
        np.testing.assert_array_equal(window, data[1:3, 0:2])


class TestStarSpecRefused:
    """``@*`` names every version: a statement that acts on one must
    refuse it before changing anything, not act on version 1."""

    @pytest.fixture
    def three(self, db) -> Database:
        db.execute("CREATE UPDATABLE ARRAY E ( V::INTEGER ) [ I=0:2 ];")
        for step in range(3):
            db.manager.insert("E", np.arange(3, dtype=np.int32) + step)
        db.execute("LABEL(E@2 kept);")
        return db

    @staticmethod
    def _state(db: Database):
        return (db.execute("VERSIONS(E);").value, db.manager.labels("E"),
                db.manager.list_arrays(), db.manager.fingerprint())

    @pytest.mark.parametrize("statement, keyword", [
        ("DELETE VERSION E@*;", "DELETE VERSION"),
        ("BRANCH(E@* F);", "BRANCH"),
        ("LABEL(E@* x);", "LABEL"),
    ], ids=["delete-version", "branch", "label"])
    def test_single_version_statement_refuses_star(self, three, statement,
                                                   keyword):
        before = self._state(three)
        assert before[:3] == (["E@1", "E@2", "E@3"], [("kept", 2)], ["E"])
        with pytest.raises(AQLExecutionError,
                           match=f"{keyword} .*E@\\*"):
            three.execute(statement)
        assert self._state(three) == before

    def test_merge_still_expands_star(self, three):
        three.execute("MERGE(E@*, E@2, M);")
        assert three.execute("VERSIONS(M);").value == \
            ["M@1", "M@2", "M@3", "M@4"]
        np.testing.assert_array_equal(
            three.execute("SELECT * FROM M@4;").value,
            np.arange(3, dtype=np.int32) + 1)
