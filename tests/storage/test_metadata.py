"""Tests for the SQLite version metadata catalog (Section II-C)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    ArrayExistsError,
    ArrayNotFoundError,
    VersionNotFoundError,
)
from repro.core.schema import ArraySchema
from repro.storage.chunkstore import ChunkLocation
from repro.storage.metadata import (
    ChunkRecord,
    MetadataCatalog,
    VersionRecord,
)


@pytest.fixture
def catalog() -> MetadataCatalog:
    return MetadataCatalog(None)  # in-memory


def _add_version(catalog, array_id, version, parent, kind, timestamp,
                 merge_parents=None) -> VersionRecord:
    row = VersionRecord(array_id, version, parent, kind, timestamp)
    catalog.put_chunks([], [(row, merge_parents or ())])
    return row


@pytest.fixture
def schema() -> ArraySchema:
    return ArraySchema.simple((8, 8), dtype=np.int32)


class TestArrays:
    def test_create_and_get(self, catalog, schema):
        record = catalog.create_array("A", schema, 1024, "lz", 100.0)
        fetched = catalog.get_array("A")
        assert fetched == record
        assert fetched.schema == schema
        assert fetched.compressor == "lz"

    def test_duplicate_name_rejected(self, catalog, schema):
        catalog.create_array("A", schema, 1024, "none", 1.0)
        with pytest.raises(ArrayExistsError):
            catalog.create_array("A", schema, 1024, "none", 2.0)

    def test_missing_array(self, catalog):
        with pytest.raises(ArrayNotFoundError):
            catalog.get_array("ghost")

    def test_list_sorted(self, catalog, schema):
        for name in ("zulu", "alpha", "mike"):
            catalog.create_array(name, schema, 1024, "none", 1.0)
        assert catalog.list_arrays() == ["alpha", "mike", "zulu"]

    def test_branch_parent_recorded(self, catalog, schema):
        catalog.create_array("A", schema, 1024, "none", 1.0)
        record = catalog.create_array("B", schema, 1024, "none", 2.0,
                                      parent_array="A", parent_version=3)
        assert record.parent_array == "A"
        assert record.parent_version == 3

    def test_delete_cascades(self, catalog, schema):
        record = catalog.create_array("A", schema, 1024, "none", 1.0)
        _add_version(catalog, record.array_id, 1, None, "insert", 1.0)
        catalog.put_chunks([ChunkRecord(
            record.array_id, 1, "value", "c.dat", None, None, "none",
            ChunkLocation("p", 0, 10))])
        catalog.delete_array("A")
        with pytest.raises(ArrayNotFoundError):
            catalog.get_array("A")
        # Recreate with the same name: must start clean.
        fresh = catalog.create_array("A", schema, 1024, "none", 2.0)
        assert catalog.get_versions(fresh.array_id) == []


class TestVersions:
    @pytest.fixture
    def array_id(self, catalog, schema) -> int:
        return catalog.create_array("A", schema, 1024, "none", 1.0).array_id

    def test_sequence(self, catalog, array_id):
        _add_version(catalog, array_id, 1, None, "insert", 10.0)
        _add_version(catalog, array_id, 2, 1, "insert", 20.0)
        versions = catalog.get_versions(array_id)
        assert [v.version for v in versions] == [1, 2]
        assert versions[1].parent_version == 1
        assert catalog.latest_version(array_id) == 2

    def test_latest_of_empty(self, catalog, array_id):
        assert catalog.latest_version(array_id) is None

    def test_version_at_timestamp(self, catalog, array_id):
        _add_version(catalog, array_id, 1, None, "insert", 10.0)
        _add_version(catalog, array_id, 2, 1, "insert", 20.0)
        assert catalog.version_at(array_id, 15.0) == 1
        assert catalog.version_at(array_id, 20.0) == 2
        assert catalog.version_at(array_id, 99.0) == 2
        with pytest.raises(VersionNotFoundError):
            catalog.version_at(array_id, 5.0)

    def test_merge_parents(self, catalog, array_id):
        _add_version(catalog, array_id, 1, None, "merge", 1.0,
                     merge_parents=[("X", 3), ("Y", 7)])
        assert catalog.merge_parents_of(array_id, 1) == [("X", 3), ("Y", 7)]

    def test_missing_version(self, catalog, array_id):
        with pytest.raises(VersionNotFoundError):
            catalog.get_version(array_id, 1)

    def test_delete_version(self, catalog, array_id):
        _add_version(catalog, array_id, 1, None, "insert", 1.0)
        middle = _add_version(catalog, array_id, 2, 1, "merge", 2.0,
                              merge_parents=[("X", 3)])
        _add_version(catalog, array_id, 3, 2, "insert", 3.0)
        catalog.put_chunks([ChunkRecord(
            array_id, 2, "value", "c.dat", None, None, "none",
            ChunkLocation("p", 0, 10))])
        catalog.set_label(array_id, "keep", 1)
        catalog.set_label(array_id, "gone", 2)
        statements = []
        catalog._conn.set_trace_callback(statements.append)
        catalog.put_chunks([], drop=middle)
        catalog._conn.set_trace_callback(None)
        # One transaction drops the version's rows, labels and merge
        # parents and re-parents its child to its own parent.
        assert statements.count("COMMIT") == 1
        with pytest.raises(VersionNotFoundError):
            catalog.get_version(array_id, 2)
        assert catalog.chunks_for_version(array_id, 2) == []
        assert catalog.merge_parents_of(array_id, 2) == []
        assert catalog.labels_of(array_id) == [("keep", 1)]
        assert catalog.get_version(array_id, 3).parent_version == 1


class TestChunks:
    @pytest.fixture
    def array_id(self, catalog, schema) -> int:
        record = catalog.create_array("A", schema, 1024, "none", 1.0)
        _add_version(catalog, record.array_id, 1, None, "insert", 1.0)
        _add_version(catalog, record.array_id, 2, 1, "insert", 2.0)
        return record.array_id

    def test_put_get(self, catalog, array_id):
        record = ChunkRecord(array_id, 1, "value", "c.dat", None, None,
                             "lz", ChunkLocation("A/c.dat", 0, 128))
        catalog.put_chunks([record])
        fetched = catalog.get_chunk(array_id, 1, "value", "c.dat")
        assert fetched == record
        assert not fetched.is_delta

    def test_replace_on_put(self, catalog, array_id):
        original = ChunkRecord(array_id, 1, "value", "c.dat", None, None,
                               "none", ChunkLocation("p", 0, 10))
        catalog.put_chunks([original])
        updated = ChunkRecord(array_id, 1, "value", "c.dat", "hybrid", 2,
                              "none", ChunkLocation("p", 10, 4))
        catalog.put_chunks([updated])
        fetched = catalog.get_chunk(array_id, 1, "value", "c.dat")
        assert fetched.is_delta
        assert fetched.base_version == 2
        assert fetched.location.offset == 10

    def test_dependents(self, catalog, array_id):
        catalog.put_chunks([ChunkRecord(
            array_id, 1, "value", "c.dat", None, None, "none",
            ChunkLocation("p", 0, 10))])
        catalog.put_chunks([ChunkRecord(
            array_id, 2, "value", "c.dat", "hybrid", 1, "none",
            ChunkLocation("p", 10, 4))])
        snap = catalog.snapshot("A")
        assert [d.version for d in snap.dependents_of(1)] == [2]
        assert snap.dependents_of(2) == []

    def test_stored_bytes(self, catalog, array_id):
        catalog.put_chunks([ChunkRecord(
            array_id, 1, "value", "a.dat", None, None, "none",
            ChunkLocation("p", 0, 100))])
        catalog.put_chunks([ChunkRecord(
            array_id, 2, "value", "a.dat", "hybrid", 1, "none",
            ChunkLocation("p", 100, 20))])
        assert catalog.stored_bytes(array_id) == 120
        assert catalog.stored_bytes(array_id, 2) == 20

    def test_missing_chunk(self, catalog, array_id):
        with pytest.raises(VersionNotFoundError):
            catalog.get_chunk(array_id, 1, "value", "none.dat")

    @staticmethod
    def _link(catalog, array_id, version, base, chunk_name="c.dat"):
        catalog.put_chunks([ChunkRecord(
            array_id, version, "value", chunk_name,
            None if base is None else "hybrid", base, "none",
            ChunkLocation("p", version * 10, 10))])

    @staticmethod
    def _chain(catalog, version, chunk_name="c.dat"):
        return list(catalog.snapshot("A").walk_chain(version, "value",
                                                     chunk_name))

    def test_chunk_chain_walks_to_the_root_in_order(self, catalog,
                                                    array_id):
        # Bases need not descend (layouts re-root chains freely), and
        # a sibling chunk's rows must not leak into the walk.
        for version, base in ((3, None), (1, 3), (4, 1), (2, 4)):
            self._link(catalog, array_id, version, base)
            self._link(catalog, array_id, version, None, "other.dat")
        chain = self._chain(catalog, 2)
        assert [row.version for row in chain] == [2, 4, 1, 3]
        assert chain == [catalog.get_chunk(array_id, row.version,
                                           "value", "c.dat")
                         for row in chain]
        assert [row.version for row in self._chain(catalog, 3)] == [3]

    def test_chunk_chain_ends_where_a_cycle_closes(self, catalog,
                                                   array_id):
        for version, base in ((1, 3), (2, 1), (3, 2)):
            self._link(catalog, array_id, version, base)
        chain = self._chain(catalog, 3)
        assert [row.version for row in chain] == [3, 2, 1]
        assert chain[-1].base_version == 3  # not a root: a revisit

    def test_chunk_chain_missing_row(self, catalog, array_id):
        with pytest.raises(VersionNotFoundError):
            self._chain(catalog, 1)
        self._link(catalog, array_id, 2, 1)
        with pytest.raises(VersionNotFoundError, match="v1"):
            self._chain(catalog, 2)
