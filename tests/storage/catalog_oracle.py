"""The catalog's reads restated as the SQL they used to run.

``MetadataCatalog`` answers every read from an in-memory snapshot that
it derives after each commit; SQLite is only its log.  The risk is two
sources of truth, so :func:`assert_catalog_matches_sql` holds every
public read of every array against the rows on disk — read through the
catalog's own connection, with the recursive CTE as the chain oracle.
"""

from __future__ import annotations

import pytest

from repro.core.errors import VersionNotFoundError
from repro.storage import ChunkLocation, ChunkRecord, VersionRecord

_CHAIN_SQL = (
    "WITH RECURSIVE chain AS ("
    " SELECT * FROM chunks WHERE array_id = ? AND version_num = ?"
    " AND attribute = ? AND chunk_name = ?"
    " UNION"
    " SELECT c.* FROM chunks c JOIN chain p"
    " ON c.array_id = p.array_id AND c.version_num = p.base_version"
    " AND c.attribute = p.attribute AND c.chunk_name = p.chunk_name)"
    " SELECT * FROM chain")


def _chunk(row) -> ChunkRecord:
    return ChunkRecord(row["array_id"], row["version_num"], row["attribute"],
                       row["chunk_name"], row["delta_codec"],
                       row["base_version"], row["compressor"],
                       ChunkLocation(row["path"], row["offset"],
                                     row["length"]))


def _sql_chain(query, array_id, version, attribute, chunk_name):
    """The chain as the CTE finds it, walked from ``version`` and cut
    where a base repeats; None when a base on the walk has no row."""
    by_version = {row["version_num"]: row for row in query(
        _CHAIN_SQL, array_id, version, attribute, chunk_name)}
    chain, cursor = [], version
    while cursor is not None and cursor not in {c.version for c in chain}:
        if cursor not in by_version:
            return None
        chain.append(_chunk(by_version[cursor]))
        cursor = chain[-1].base_version
    return chain


def assert_catalog_matches_sql(catalog) -> None:
    """Every public read of every array equals what SQL says, and no
    snapshot outlives its array."""
    def query(sql, *params):
        return catalog._conn.execute(sql, params).fetchall()

    arrays = query("SELECT id, name FROM arrays ORDER BY name")
    assert catalog.list_arrays() == [row["name"] for row in arrays]
    assert set(catalog._by_name) <= {row["name"] for row in arrays}
    for array_id, name in ((row["id"], row["name"]) for row in arrays):
        assert catalog.get_array(name).array_id == array_id
        versions = [VersionRecord(array_id, r["version_num"],
                                  r["parent_version"], r["kind"],
                                  r["timestamp"]) for r in query(
            "SELECT * FROM versions WHERE array_id = ?"
            " ORDER BY version_num", array_id)]
        assert catalog.get_versions(array_id) == versions
        assert catalog.latest_version(array_id) == (
            versions[-1].version if versions else None)
        rows = [_chunk(r) for r in query(
            "SELECT * FROM chunks WHERE array_id = ?"
            " ORDER BY version_num, attribute, chunk_name", array_id)]
        assert catalog.all_chunks(array_id) == rows
        assert catalog.stored_bytes(array_id) == sum(
            row.location.length for row in rows)
        labels = [(r["label"], r["version_num"]) for r in query(
            "SELECT * FROM version_labels WHERE array_id = ?"
            " ORDER BY label", array_id)]
        assert catalog.labels_of(array_id) == labels
        for label, number in labels:
            assert catalog.version_for_label(array_id, label) == number
        snap = catalog.snapshot(name)
        numbers = {row.version for row in versions} | {
            row.version for row in rows}
        for number in sorted(numbers) + [max(numbers, default=0) + 1]:
            row = next((v for v in versions if v.version == number), None)
            if row is None:
                with pytest.raises(VersionNotFoundError):
                    catalog.get_version(array_id, number)
            else:
                assert catalog.get_version(array_id, number) == row
                assert catalog.version_at(array_id, row.timestamp) == max(
                    v.version for v in versions
                    if v.timestamp <= row.timestamp)
            assert catalog.merge_parents_of(array_id, number) == [
                (r["parent_array"], r["parent_version"]) for r in query(
                    "SELECT * FROM merge_parents WHERE array_id = ?"
                    " AND version_num = ? ORDER BY rowid", array_id, number)]
            assert catalog.labels_of(array_id, number) == [
                pair for pair in labels if pair[1] == number]
            level = [row for row in rows if row.version == number]
            assert catalog.chunks_for_version(array_id, number) == level
            assert catalog.stored_bytes(array_id, number) == sum(
                row.location.length for row in level)
            assert snap.dependents_of(number) == [
                row for row in rows if row.base_version == number]
        for row in rows:
            assert catalog.get_chunk(array_id, row.version, row.attribute,
                                     row.chunk_name) == row
            walk = snap.walk_chain(row.version, row.attribute,
                                   row.chunk_name)
            expected = _sql_chain(query, array_id, row.version,
                                  row.attribute, row.chunk_name)
            if expected is None:
                with pytest.raises(VersionNotFoundError):
                    list(walk)
            else:
                assert list(walk) == expected
