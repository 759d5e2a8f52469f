"""Integration tests for the versioned storage manager (Section II)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from catalog_oracle import assert_catalog_matches_sql
from repro.core.array import (
    ArrayData,
    DeltaListPayload,
    DensePayload,
    SparsePayload,
)
from repro.core.errors import (
    ArrayExistsError,
    ArrayNotFoundError,
    CodecError,
    SchemaError,
    StorageError,
    VersionNotFoundError,
)
from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.delta import delta_codec_names
from repro.storage import (
    PER_VERSION,
    POLICY_AUTO,
    POLICY_MATERIALIZE,
    VersionedStorageManager,
)


@pytest.fixture
def schema() -> ArraySchema:
    return ArraySchema.simple((20, 20), dtype=np.int32)


@pytest.fixture
def manager(tmp_path) -> VersionedStorageManager:
    # Small chunks (400 B = 100 cells = 10x10) force multi-chunk arrays.
    return VersionedStorageManager(tmp_path, chunk_bytes=400,
                                   compressor="none")


def _versions(rng, count=4, shape=(20, 20)):
    base = rng.integers(0, 1000, size=shape).astype(np.int32)
    versions = [base]
    for _ in range(count - 1):
        nxt = versions[-1].copy()
        mask = rng.random(size=shape) > 0.9
        nxt[mask] += rng.integers(1, 5)
        versions.append(nxt)
    return versions


class TestLifecycle:
    def test_create_insert_select(self, manager, schema, rng):
        manager.create_array("A", schema)
        data = rng.integers(0, 100, size=(20, 20)).astype(np.int32)
        version = manager.insert("A", data)
        assert version == 1
        out = manager.select("A", 1)
        np.testing.assert_array_equal(out.single(), data)

    def test_versions_accumulate(self, manager, schema, rng):
        manager.create_array("A", schema)
        versions = _versions(rng)
        for v in versions:
            manager.insert("A", v)
        assert manager.get_versions("A") == [1, 2, 3, 4]
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                manager.select("A", number).single(), expected)

    def test_delete_array(self, manager, schema, rng):
        manager.create_array("A", schema)
        manager.insert("A", rng.integers(0, 9, (20, 20)).astype(np.int32))
        manager.delete_array("A")
        with pytest.raises(ArrayNotFoundError):
            manager.select("A", 1)
        assert manager.store.total_bytes("A") == 0

    def test_missing_version_rejected(self, manager, schema):
        manager.create_array("A", schema)
        with pytest.raises(VersionNotFoundError):
            manager.select("A", 1)

    def test_list_arrays(self, manager, schema):
        manager.create_array("B", schema)
        manager.create_array("A", schema)
        assert manager.list_arrays() == ["A", "B"]


class TestStoreCodecs:
    """The store reads and writes only the codecs in its two tables."""

    @pytest.mark.parametrize("kwargs", [dict(compressor="bogus"),
                                        dict(compressor="rle"),
                                        dict(delta_codec="nope"),
                                        dict(delta_codec="bsdiff")],
                             ids=lambda kwargs: "=".join(*kwargs.items()))
    def test_unknown_codec_refused_before_any_state(self, tmp_path,
                                                    kwargs):
        root = tmp_path / "store"
        with pytest.raises(CodecError, match=next(iter(kwargs.values()))):
            VersionedStorageManager(root, **kwargs)
        assert not root.exists()

    def test_create_array_refuses_an_unknown_compressor(self, manager,
                                                        schema):
        with pytest.raises(CodecError, match="rle"):
            manager.create_array("A", schema, compressor="rle")
        assert manager.list_arrays() == []
        assert manager.store.total_bytes("A") == 0

    @pytest.mark.parametrize("manager_budget,array_budget",
                             [(400, -5), (400, 0), (0, None)],
                             ids=["negative", "zero", "manager-zero"])
    def test_create_array_refuses_a_budget_no_insert_can_use(
            self, tmp_path, manager_budget, array_budget):
        # A budget below one cell used to commit the array and fail
        # only at its first insert (or, at 0, silently take the
        # manager default).
        schema = ArraySchema.simple((8, 8), dtype=np.int32)
        with VersionedStorageManager(
                tmp_path, chunk_bytes=manager_budget) as manager:
            with pytest.raises(StorageError, match="chunk budget"):
                manager.create_array("b", schema,
                                     chunk_bytes=array_budget)
            assert manager.list_arrays() == []

    def test_rows_naming_a_comparison_codec_fail_loudly(self, tmp_path,
                                                        schema, rng):
        """A store written when ``rle`` and ``bsdiff`` were store codecs
        no longer opens those rows: a select names the codec (and, for a
        delta level, the array, version and chunk) and returns nothing."""
        versions = _versions(rng, count=2)
        with VersionedStorageManager(tmp_path, chunk_bytes=400) as manager:
            for name in ("A", "B"):
                manager.create_array(name, schema)
                for data in versions:
                    manager.insert(name, data)
            record = manager.catalog.get_array("B")
            level = manager.catalog.chunks_for_version(record.array_id, 2)[0]
            assert level.is_delta
            conn = manager.catalog._conn
            with conn:
                conn.execute(
                    "UPDATE chunks SET compressor = 'rle' WHERE array_id ="
                    " (SELECT id FROM arrays WHERE name = 'A')"
                    " AND version_num = 1")
                conn.execute(
                    "UPDATE chunks SET delta_codec = 'bsdiff' WHERE"
                    " array_id = ? AND version_num = 2 AND chunk_name = ?",
                    (record.array_id, level.chunk_name))
        with VersionedStorageManager(tmp_path, chunk_bytes=400) as manager:
            for version in (1, 2):
                with pytest.raises(CodecError, match="'rle'"):
                    manager.select("A", version)
            with pytest.raises(CodecError) as refused:
                manager.select("B", 2)
            message = str(refused.value)
            assert "'bsdiff'" in message
            assert f"'B' version 2 chunk {level.chunk_name}" in message
            np.testing.assert_array_equal(manager.select("B", 1).single(),
                                          versions[0])


class TestPayloadForms:
    def test_dense_payload(self, manager, schema, rng):
        manager.create_array("A", schema)
        data = rng.integers(0, 9, (20, 20)).astype(np.int32)
        manager.insert("A", DensePayload.of(data))
        np.testing.assert_array_equal(manager.select("A", 1).single(), data)

    def test_sparse_payload(self, manager, schema):
        manager.create_array("A", schema)
        manager.insert("A", SparsePayload.of(
            coords=np.array([[3, 4], [10, 10]]),
            values=np.array([7, 9], dtype=np.int32)))
        out = manager.select("A", 1).single()
        assert out[3, 4] == 7
        assert out[10, 10] == 9
        assert out.sum() == 16  # default 0 elsewhere

    def test_delta_list_payload(self, manager, schema, rng):
        manager.create_array("A", schema)
        base = rng.integers(0, 9, (20, 20)).astype(np.int32)
        manager.insert("A", base)
        manager.insert("A", DeltaListPayload.of(
            coords=np.array([[0, 0]]),
            values=np.array([99], dtype=np.int32),
            base_version=1))
        out = manager.select("A", 2).single()
        assert out[0, 0] == 99
        np.testing.assert_array_equal(out.ravel()[1:], base.ravel()[1:])


def _foreign(kind: str) -> ArrayData:
    """An ``ArrayData`` that is valid for its own schema, which is not
    that of a ``(64, 64) int32`` array."""
    shape, dtype = {"wrong-dtype": ((64, 64), np.int64),
                    "smaller": ((32, 32), np.int32),
                    "larger": ((128, 128), np.int32)}[kind]
    return ArrayData.from_single(
        ArraySchema.simple(shape, dtype=dtype),
        np.arange(shape[0] * shape[1], dtype=dtype).reshape(shape))


FOREIGN = ["wrong-dtype", "smaller", "larger"]


class TestForeignSchemaRejected:
    """An ``ArrayData`` carries its own schema; ``insert`` must hold it
    to the array's before anything is placed — an encode with no delta
    base (a first version, the materialize policy) compares nothing,
    and with one the first to notice would be a codec, too late and
    with the wrong error."""

    @pytest.mark.parametrize("kind", FOREIGN)
    @pytest.mark.parametrize("situation", [
        "first-insert", "materialize", "chain-hot-base",
        "chain-cold-base"])
    def test_insert_raises_schema_error_and_stores_nothing(
            self, tmp_path, rng, situation, kind):
        policy = POLICY_MATERIALIZE if situation == "materialize" \
            else "chain"

        def open_manager():
            return VersionedStorageManager(tmp_path, chunk_bytes=4096,
                                           delta_policy=policy)

        manager = open_manager()
        manager.create_array("A", ArraySchema.simple((64, 64),
                                                     dtype=np.int32))
        good = rng.integers(0, 9, (64, 64)).astype(np.int32)
        if situation != "first-insert":
            manager.insert("A", good)
        if situation == "chain-cold-base":
            manager.close()
            manager = open_manager()
        versions = manager.get_versions("A")
        stored = manager.stored_bytes("A")
        fingerprint = manager.fingerprint()
        with pytest.raises(SchemaError):
            manager.insert("A", _foreign(kind))
        assert manager.get_versions("A") == versions
        assert manager.stored_bytes("A") == stored
        assert manager.fingerprint() == fingerprint
        # ...and the array is as usable as before.
        number = manager.insert("A", good + 1)
        np.testing.assert_array_equal(manager.select("A", number).single(),
                                      good + 1)
        manager.close()

    def test_dimension_names_and_origins_are_free(self, manager, schema,
                                                  rng):
        # A slice of another array, or a cluster band, is zero-based
        # with names of its own: only shape and cell types must agree.
        manager.create_array("A", schema)
        data = rng.integers(0, 9, (20, 20)).astype(np.int32)
        elsewhere = ArraySchema(
            dimensions=(Dimension("row", 5, 24), Dimension("col", -3, 16)),
            attributes=schema.attributes)
        manager.insert("A", ArrayData.from_single(elsewhere, data))
        np.testing.assert_array_equal(manager.select("A", 1).single(),
                                      data)


class TestDeltaEncodingOnInsert:
    def test_similar_versions_stored_as_deltas(self, manager, schema, rng):
        manager.create_array("A", schema)
        for v in _versions(rng):
            manager.insert("A", v)
        v2_chunks = manager.catalog.chunks_for_version(
            manager.catalog.get_array("A").array_id, 2)
        assert any(c.is_delta for c in v2_chunks)
        # Deltas must shrink storage well below 4x a full version.
        total = manager.stored_bytes("A")
        assert total < 4 * 20 * 20 * 4 * 0.7

    def test_materialize_policy_never_deltas(self, tmp_path, schema, rng):
        manager = VersionedStorageManager(
            tmp_path, chunk_bytes=400, delta_policy=POLICY_MATERIALIZE)
        manager.create_array("A", schema)
        for v in _versions(rng):
            manager.insert("A", v)
        array_id = manager.catalog.get_array("A").array_id
        for version in (1, 2, 3, 4):
            chunks = manager.catalog.chunks_for_version(array_id, version)
            assert all(not c.is_delta for c in chunks)

    def test_auto_policy_roundtrips(self, tmp_path, schema, rng):
        manager = VersionedStorageManager(
            tmp_path, chunk_bytes=400, delta_policy=POLICY_AUTO)
        manager.create_array("A", schema)
        versions = _versions(rng)
        for v in versions:
            manager.insert("A", v)
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                manager.select("A", number).single(), expected)

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            VersionedStorageManager(tmp_path, delta_policy="psychic")


class TestRegionSelects:
    def test_select_region(self, manager, schema, rng):
        manager.create_array("A", schema)
        data = rng.integers(0, 100, (20, 20)).astype(np.int32)
        manager.insert("A", data)
        out = manager.select_region("A", 1, (5, 5), (14, 14))
        np.testing.assert_array_equal(out.single(), data[5:15, 5:15])

    def test_region_reads_fewer_chunks(self, manager, schema, rng, cold):
        manager.create_array("A", schema)
        manager.insert("A", rng.integers(0, 9, (20, 20)).astype(np.int32))
        with manager.stats.measure() as full:
            cold(manager, "A").select("A", 1)
        with manager.stats.measure() as sub:
            manager.select_region("A", 1, (0, 0), (5, 5))
        assert sub.chunks_read < full.chunks_read
        assert sub.chunks_read == 1  # 10x10 chunks; (0,0)-(5,5) fits in one

    def test_select_versions_stacks(self, manager, schema, rng):
        manager.create_array("A", schema)
        versions = _versions(rng, count=3)
        for v in versions:
            manager.insert("A", v)
        stacked = manager.select_versions("A", [1, 2, 3])
        assert stacked.shape == (3, 20, 20)
        for layer, expected in enumerate(versions):
            np.testing.assert_array_equal(stacked[layer], expected)

    def test_select_versions_region(self, manager, schema, rng):
        manager.create_array("A", schema)
        versions = _versions(rng, count=3)
        for v in versions:
            manager.insert("A", v)
        stacked = manager.select_versions_region("A", [2, 3], (0, 0), (4, 4))
        assert stacked.shape == (2, 5, 5)
        np.testing.assert_array_equal(stacked[0], versions[1][:5, :5])
        np.testing.assert_array_equal(stacked[1], versions[2][:5, :5])

    def test_range_select_shares_chain_reads(self, manager, schema, rng,
                                             cold):
        # Reading versions [1..4] must not re-read the chain per version.
        manager.create_array("A", schema)
        for v in _versions(rng, count=4):
            manager.insert("A", v)
        cold(manager, "A")
        with manager.stats.measure() as window:
            manager.select_versions("A", [1, 2, 3, 4])
        array_id = manager.catalog.get_array("A").array_id
        total_chunks = sum(
            len(manager.catalog.chunks_for_version(array_id, v))
            for v in (1, 2, 3, 4))
        assert window.chunks_read == total_chunks


class TestFig2Scenario:
    """Figure 2: 3-version chain, 4 chunks each, region query on V3.

    The queried region overlaps 2 chunks, so answering it must read
    exactly 6 chunks: the 2 overlapping chunks in each of the 3 versions.
    """

    def test_six_chunks_read(self, tmp_path, rng):
        schema = ArraySchema.simple((20, 20), dtype=np.int64)
        # 800-byte chunks of 8-byte cells -> stride 10 -> 2x2 = 4 chunks.
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800)
        manager.create_array("A", schema)
        versions = _versions(rng, count=3, shape=(20, 20))
        for v in versions:
            manager.insert("A", np.asarray(v, dtype=np.int64))

        with manager.stats.measure() as window:
            out = manager.select_region("A", 3, (0, 0), (9, 19))
        np.testing.assert_array_equal(
            out.single(), versions[2][0:10, 0:20].astype(np.int64))
        # Region covers the top two chunks; chain depth 3 -> 6 reads.
        assert window.chunks_read == 6


class TestBranchAndMerge:
    def test_branch_copies_contents(self, manager, schema, rng):
        manager.create_array("A", schema)
        versions = _versions(rng, count=3)
        for v in versions:
            manager.insert("A", v)
        manager.branch("A", 2, "B")
        np.testing.assert_array_equal(
            manager.select("B", 1).single(), versions[1])
        record = manager.catalog.get_array("B")
        assert record.parent_array == "A"
        assert record.parent_version == 2

    def test_branch_evolves_independently(self, manager, schema, rng):
        manager.create_array("A", schema)
        versions = _versions(rng, count=2)
        for v in versions:
            manager.insert("A", v)
        manager.branch("A", 1, "B")
        branched = versions[0].copy()
        branched[0, 0] = 12345
        manager.insert("B", branched)
        assert manager.select("B", 2).single()[0, 0] == 12345
        assert manager.select("A", 2).single()[0, 0] == versions[1][0, 0]

    def test_merge_builds_sequence(self, manager, schema, rng):
        manager.create_array("A", schema)
        versions = _versions(rng, count=3)
        for v in versions:
            manager.insert("A", v)
        manager.branch("A", 1, "B")
        manager.merge([("A", 3), ("B", 1)], "M")
        np.testing.assert_array_equal(
            manager.select("M", 1).single(), versions[2])
        np.testing.assert_array_equal(
            manager.select("M", 2).single(), versions[0])
        array_id = manager.catalog.get_array("M").array_id
        assert manager.catalog.merge_parents_of(array_id, 1) == [("A", 3)]
        assert manager.catalog.merge_parents_of(array_id, 2) == [("B", 1)]

    def test_merge_requires_two_parents(self, manager, schema, rng):
        manager.create_array("A", schema)
        manager.insert("A", rng.integers(0, 9, (20, 20)).astype(np.int32))
        with pytest.raises(StorageError):
            manager.merge([("A", 1)], "M")


class TestStageThenCommit:
    """Every version write stages (place, barrier) and then commits in
    one catalog transaction; nothing uncommitted is ever visible."""

    @staticmethod
    def _refuse_commits(manager) -> None:
        def refusing(records, **kwargs):
            raise StorageError("catalog refused the commit")

        manager.catalog.put_chunks = refusing

    def test_a_refused_commit_never_reaches_the_hot_slot(self, manager,
                                                         schema, rng):
        manager.create_array("A", schema)
        base = rng.integers(0, 9, (20, 20)).astype(np.int32)
        manager.insert("A", base)
        self._refuse_commits(manager)
        with pytest.raises(StorageError, match="refused"):
            manager.insert("A", base + 1)
        del manager.catalog.put_chunks
        assert manager.get_versions("A") == [1]
        # v2 was staged, never committed: a delta list naming it must
        # find no such version, not the staged contents.
        with pytest.raises(VersionNotFoundError):
            manager.insert("A", DeltaListPayload.of(
                coords=np.array([[0, 0]]),
                values=np.array([5], dtype=np.int32), base_version=2))
        assert manager.insert("A", base + 2) == 2
        np.testing.assert_array_equal(manager.select("A", 2).single(),
                                      base + 2)

    def test_a_replay_at_or_below_the_head_places_nothing(self, manager,
                                                          schema, rng):
        manager.create_array("A", schema)
        for data in _versions(rng, count=2):
            manager.insert("A", data)
        before = manager.fingerprint(), manager.store.total_bytes()
        for version in (1, 2):
            with pytest.raises(StorageError, match="append-only"):
                manager.replay_version("A", _versions(rng, count=1)[0],
                                       version=version)
        assert (manager.fingerprint(), manager.store.total_bytes()) == \
            before

    def test_branch_onto_a_name_in_use_places_nothing(self, manager,
                                                      schema, rng):
        manager.create_array("A", schema)
        manager.insert("A", rng.integers(0, 9, (20, 20)).astype(np.int32))
        manager.create_array("B", schema)
        manager.insert("B", np.ones((20, 20), dtype=np.int32))
        stored = manager.store.total_bytes("B")
        fingerprint = manager.fingerprint("B")
        with pytest.raises(ArrayExistsError):
            manager.branch("A", 1, "B")
        with pytest.raises(ArrayExistsError):
            manager.merge([("A", 1), ("B", 1)], "B")
        assert manager.store.total_bytes("B") == stored
        assert manager.fingerprint("B") == fingerprint

    @pytest.mark.parametrize("derive", [
        lambda manager: manager.branch("A", 2, "C"),
        lambda manager: manager.merge([("A", 1), ("A", 2)], "C"),
    ], ids=["branch", "merge"])
    def test_a_refused_derive_commit_leaves_no_array(self, manager,
                                                     schema, rng, derive):
        manager.create_array("A", schema)
        versions = _versions(rng, count=2)
        for data in versions:
            manager.insert("A", data)
        self._refuse_commits(manager)
        with pytest.raises(StorageError, match="refused"):
            derive(manager)
        del manager.catalog.put_chunks
        assert manager.list_arrays() == ["A"]
        assert manager.store.total_bytes("C") == 0
        assert_catalog_matches_sql(manager.catalog)
        derive(manager)
        assert manager.list_arrays() == ["A", "C"]
        np.testing.assert_array_equal(
            manager.select("C", manager.get_versions("C")[-1]).single(),
            versions[1])
        assert_catalog_matches_sql(manager.catalog)


    @pytest.mark.parametrize("derive", [
        lambda manager: manager.branch("A", 2, "C"),
        lambda manager: manager.merge([("A", 1), ("A", 2)], "C"),
    ], ids=["branch", "merge"])
    def test_a_failed_derive_stage_leaves_no_bytes(self, manager, schema,
                                                   rng, derive):
        manager.create_array("A", schema)
        for data in _versions(rng, count=2):
            manager.insert("A", data)
        place, placed = manager.store.write_chunk, []

        def failing_after_two(*args, **kwargs):
            if len(placed) == 2:
                raise StorageError("disk full")
            placed.append(place(*args, **kwargs))
            return placed[-1]

        manager.store.write_chunk = failing_after_two
        with pytest.raises(StorageError, match="disk full"):
            derive(manager)
        del manager.store.write_chunk
        assert len(placed) == 2
        assert manager.list_arrays() == ["A"]
        assert manager.store.total_bytes("C") == 0
        # A later array of the name starts from empty objects.
        derive(manager)
        assert manager.store.total_bytes("C") == \
            manager.catalog.stored_bytes(
                manager.catalog.get_array("C").array_id)


class TestDeleteVersion:
    def test_delete_middle_of_chain(self, manager, schema, rng):
        manager.create_array("A", schema)
        versions = _versions(rng, count=4)
        for v in versions:
            manager.insert("A", v)
        manager.delete_version("A", 2)
        assert manager.get_versions("A") == [1, 3, 4]
        # Survivors must still reconstruct exactly.
        np.testing.assert_array_equal(
            manager.select("A", 3).single(), versions[2])
        np.testing.assert_array_equal(
            manager.select("A", 4).single(), versions[3])

    def test_delete_root(self, manager, schema, rng):
        manager.create_array("A", schema)
        versions = _versions(rng, count=3)
        for v in versions:
            manager.insert("A", v)
        manager.delete_version("A", 1)
        np.testing.assert_array_equal(
            manager.select("A", 2).single(), versions[1])
        np.testing.assert_array_equal(
            manager.select("A", 3).single(), versions[2])

    def test_delete_reclaims_space(self, manager, schema, rng):
        manager.create_array("A", schema)
        for v in _versions(rng, count=4):
            manager.insert("A", v)
        before = manager.store.total_bytes("A")
        manager.delete_version("A", 4)
        assert manager.store.total_bytes("A") < before

    #: (layout, victim, the same layout with the victim's dependents
    #: already moved onto the victim's own stored base).
    REORGANIZED = [
        pytest.param({4: None, 3: 4, 2: 3, 1: 2}, 4,
                     {4: None, 3: None, 2: 3, 1: 2}, id="head-of-4"),
        pytest.param({3: None, 2: 3, 1: 2}, 3,
                     {3: None, 2: None, 1: 2}, id="head-rooted-3-chain"),
        pytest.param({4: None, 3: 4, 2: 3, 1: 2}, 3,
                     {4: None, 3: 4, 2: 4, 1: 2}, id="mid-chain"),
    ]

    @pytest.mark.parametrize("backend", ["memory", "local"])
    @pytest.mark.parametrize("layout,victim,pre_moved", REORGANIZED)
    def test_dependents_rebase_on_stored_base_not_lineage_parent(
            self, tmp_path, schema, rng, backend, layout, victim,
            pre_moved):
        """After a re-organization the victim's lineage parent can be
        its own dependent (a head-rooted chain deltas old against
        new); re-encoding against it wrote a version as a delta of
        itself.  The dependents must land on the victim's stored
        base — exactly the encoding of a store where they were moved
        there up front and the delete had nothing to re-encode."""
        versions = _versions(rng, count=len(layout))

        def encoded(root, parent_of):
            manager = VersionedStorageManager(
                root, chunk_bytes=400, compressor="none", backend=backend)
            manager.create_array("A", schema)
            for v in versions:
                manager.insert("A", v)
            manager.apply_layout("A", parent_of)
            manager.delete_version("A", victim)
            survivors = manager.get_versions("A")
            for number in survivors:
                np.testing.assert_array_equal(
                    manager.select("A", number).single(),
                    versions[number - 1])
            # fingerprint() minus placement: repack generations name
            # how often an object was rewritten, which differs between
            # the two histories by construction.
            record = manager.catalog.get_array("A")
            rows = [(chunk.version, chunk.attribute, chunk.chunk_name,
                     chunk.delta_codec, chunk.base_version,
                     manager.store.read_chunk(chunk.location))
                    for chunk in manager.catalog.all_chunks(
                        record.array_id)]
            manager.close()
            return survivors, rows

        expected = sorted(set(layout) - {victim})
        moved = encoded(tmp_path / "deleted", layout)
        untouched = encoded(tmp_path / "pre-moved", pre_moved)
        assert moved[0] == untouched[0] == expected
        assert moved[1] == untouched[1]


class TestTimestamps:
    def test_version_at(self, manager, schema, rng):
        manager.create_array("A", schema)
        manager.insert("A", rng.integers(0, 9, (20, 20)).astype(np.int32),
                       timestamp=100.0)
        manager.insert("A", rng.integers(0, 9, (20, 20)).astype(np.int32),
                       timestamp=200.0)
        assert manager.version_at("A", 150.0) == 1
        assert manager.version_at("A", 200.0) == 2


class TestProperties:
    def test_properties_shape(self, manager, schema, rng):
        manager.create_array("A", schema)
        data = np.zeros((20, 20), dtype=np.int32)
        data[0, 0] = 5
        manager.insert("A", data)
        props = manager.properties("A")
        assert props["versions"] == 1
        assert props["stored_bytes"] > 0
        assert props["sparsity"] == pytest.approx(399 / 400)

    @pytest.mark.parametrize("count", [0, 2])
    def test_logical_bytes_count_the_versions(self, manager, schema, rng,
                                              count):
        manager.create_array("A", schema)
        for data in _versions(rng, count=2)[:count]:
            manager.insert("A", data)
        props = manager.properties("A")
        assert props["versions"] == count
        assert props["logical_bytes"] == schema.dense_size * count

    def test_a_fresh_array_has_no_ratio(self, manager, schema):
        # Nothing stored, nothing to divide by: no ratio, as no
        # sparsity — never an infinite one.
        manager.create_array("A", schema)
        props = manager.properties("A")
        assert (props["stored_bytes"], props["logical_bytes"]) == (0, 0)
        assert props["compression_ratio"] is None
        assert props["sparsity"] is None


class TestApplyLayout:
    def test_re_encode_to_star_layout(self, manager, schema, rng):
        manager.create_array("A", schema)
        versions = _versions(rng, count=4)
        for v in versions:
            manager.insert("A", v)
        # Star on version 4: everything delta'ed directly against it.
        manager.apply_layout("A", {4: None, 3: 4, 2: 4, 1: 4})
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                manager.select("A", number).single(), expected)
        array_id = manager.catalog.get_array("A").array_id
        v4 = manager.catalog.chunks_for_version(array_id, 4)
        assert all(not c.is_delta for c in v4)

    @pytest.mark.parametrize("codec", delta_codec_names())
    def test_reversed_chain_reads_back(self, tmp_path, schema, rng, codec):
        """Newest version materialized, each older one a delta against
        its successor: every codec re-encodes the chain in the
        direction the layout chose, and every version reads back."""
        manager = VersionedStorageManager(tmp_path, chunk_bytes=400,
                                          delta_codec=codec)
        manager.create_array("A", schema)
        versions = _versions(rng, count=4)
        for v in versions:
            manager.insert("A", v)
        manager.apply_layout("A", {4: None, 3: 4, 2: 3, 1: 2})
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                manager.select("A", number).single(), expected)
        array_id = manager.catalog.get_array("A").array_id
        v1 = manager.catalog.chunks_for_version(array_id, 1)
        assert all(c.is_delta and c.base_version == 2
                   and c.delta_codec == codec for c in v1)
        manager.close()

    def test_layout_must_cover_all_versions(self, manager, schema, rng):
        manager.create_array("A", schema)
        for v in _versions(rng, count=3):
            manager.insert("A", v)
        with pytest.raises(StorageError):
            manager.apply_layout("A", {1: None, 2: 1})

    def test_layout_cycle_rejected(self, manager, schema, rng):
        manager.create_array("A", schema)
        for v in _versions(rng, count=3):
            manager.insert("A", v)
        with pytest.raises(StorageError):
            manager.apply_layout("A", {1: 2, 2: 1, 3: None})

    def test_layout_without_root_rejected(self, manager, schema, rng):
        manager.create_array("A", schema)
        for v in _versions(rng, count=2):
            manager.insert("A", v)
        with pytest.raises(StorageError):
            manager.apply_layout("A", {1: 2, 2: 1})


class TestMultiAttribute:
    def test_attributes_stored_separately(self, manager, rng):
        schema = ArraySchema(
            dimensions=(Dimension("I", 0, 9), Dimension("J", 0, 9)),
            attributes=(Attribute("wind", np.float32),
                        Attribute("pressure", np.int32)),
        )
        manager.create_array("W", schema)
        from repro.core.array import ArrayData

        wind = rng.normal(0, 10, (10, 10)).astype(np.float32)
        pressure = rng.integers(900, 1100, (10, 10)).astype(np.int32)
        manager.insert("W", ArrayData(schema, {"wind": wind,
                                               "pressure": pressure}))
        out = manager.select("W", 1)
        np.testing.assert_array_equal(out.attribute("wind"), wind)
        np.testing.assert_array_equal(out.attribute("pressure"), pressure)

    def test_per_version_placement_roundtrip(self, tmp_path, schema, rng):
        manager = VersionedStorageManager(
            tmp_path, chunk_bytes=400, placement=PER_VERSION)
        manager.create_array("A", schema)
        versions = _versions(rng, count=3)
        for v in versions:
            manager.insert("A", v)
        for number, expected in enumerate(versions, 1):
            np.testing.assert_array_equal(
                manager.select("A", number).single(), expected)

    def test_float_array_roundtrip(self, tmp_path, rng):
        schema = ArraySchema.simple((16, 16), dtype=np.float64)
        manager = VersionedStorageManager(tmp_path, chunk_bytes=512,
                                          compressor="lz")
        manager.create_array("F", schema)
        base = rng.normal(0, 1, (16, 16))
        manager.insert("F", base)
        manager.insert("F", base + 1e-9)
        np.testing.assert_array_equal(manager.select("F", 1).single(), base)
        np.testing.assert_array_equal(manager.select("F", 2).single(),
                                      base + 1e-9)


class TestShipVersions:
    """``export_versions`` / ``import_versions``: stored versions move
    between copies as stored — one snapshot out, one swap in."""

    def _source(self, tmp_path, schema, rng, **kwargs):
        source = VersionedStorageManager(tmp_path / "source",
                                         chunk_bytes=400, **kwargs)
        source.create_array("A", schema)
        for data in _versions(rng):
            source.insert("A", data)
        source.label_version("A", 2, "kept-apart")
        return source

    def _blank(self, tmp_path, source, **kwargs):
        target = VersionedStorageManager(tmp_path / "target",
                                         chunk_bytes=400, **kwargs)
        record = source.catalog.get_array("A")
        target.create_array("A", record.schema,
                            chunk_bytes=record.chunk_bytes,
                            compressor=record.compressor)
        return target

    @pytest.mark.parametrize("placement", [PER_VERSION, "colocated"])
    def test_round_trip_stores_the_source_bytes(self, tmp_path, schema,
                                                rng, placement):
        source = self._source(tmp_path, schema, rng)
        # Head-rooted chains: version 1 deltas against a later version.
        source.reorganize("A", mode="head")
        target = self._blank(tmp_path, source, placement=placement)
        traced = []
        target.catalog._conn.set_trace_callback(traced.append)
        target.import_versions("A", source.export_versions("A"))
        target.catalog._conn.set_trace_callback(None)
        assert traced.count("COMMIT") == 1
        assert target.stored_digests("A") == source.stored_digests("A")
        assert [(row.version, row.parent_version, row.kind, row.timestamp)
                for row in target.catalog.snapshot("A").get_versions()] == \
            [(row.version, row.parent_version, row.kind, row.timestamp)
             for row in source.catalog.snapshot("A").get_versions()]
        assert target.labels("A") == []  # labels stay the copy's own
        for version in source.get_versions("A"):
            np.testing.assert_array_equal(
                target.select("A", version).single(),
                source.select("A", version).single())
        assert_catalog_matches_sql(target.catalog)
        source.close()
        target.close()

    def test_tail_ships_onto_a_prefix(self, tmp_path, schema, rng):
        source = self._source(tmp_path, schema, rng)
        target = self._blank(tmp_path, source)
        target.import_versions("A", source.export_versions("A"))
        for head in (4, 3):
            target.delete_version("A", head)
        target.import_versions("A", source.export_versions("A", after=2))
        assert target.stored_digests("A") == source.stored_digests("A")
        source.close()
        target.close()

    @staticmethod
    def _new_array(shipment):
        """``shipment`` as a branch staged on another copy ships it: a
        record with no ``array_id``, which creates the array."""
        return replace(shipment, record=replace(shipment.record,
                                                array_id=None))

    def test_an_import_into_a_free_name_creates_the_array(
            self, tmp_path, schema, rng):
        source = self._source(tmp_path, schema, rng)
        target = VersionedStorageManager(tmp_path / "target",
                                         chunk_bytes=400, backend="memory")
        traced = []
        target.catalog._conn.set_trace_callback(traced.append)
        target.import_versions("A", self._new_array(
            source.export_versions("A")))
        target.catalog._conn.set_trace_callback(None)
        assert traced.count("COMMIT") == 1
        assert target.list_arrays() == ["A"]
        assert target.stored_digests("A") == source.stored_digests("A")
        for version in source.get_versions("A"):
            np.testing.assert_array_equal(
                target.select("A", version).single(),
                source.select("A", version).single())
        assert_catalog_matches_sql(target.catalog)
        source.close()
        target.close()

    def test_a_refused_import_into_a_free_name_leaves_no_object(
            self, tmp_path, schema, rng):
        source = self._source(tmp_path, schema, rng)
        target = VersionedStorageManager(tmp_path / "target",
                                         chunk_bytes=400, backend="memory")

        def refusing(*args, **kwargs):
            raise StorageError("catalog refused")

        target.catalog.put_chunks = refusing
        with pytest.raises(StorageError, match="catalog refused"):
            target.import_versions("A", self._new_array(
                source.export_versions("A")))
        del target.catalog.put_chunks
        assert target.list_arrays() == []
        assert target.backend._objects == {}
        # The name is free and clean: a later array of it starts at
        # offset 0, as on a store that never saw the refused import.
        target.create_array("A", schema)
        target.insert("A", source.select("A", 1))
        assert [chunk.location.offset for chunk in
                target.catalog.snapshot("A").all_chunks()][0] == 0
        source.close()
        target.close()

    def test_refusals_place_nothing(self, tmp_path, schema, rng):
        source = self._source(tmp_path, schema, rng)
        target = self._blank(tmp_path, source)
        target.import_versions("A", source.export_versions("A"))
        before = target.fingerprint()
        with pytest.raises(StorageError, match="append-only"):
            target.import_versions("A", source.export_versions("A",
                                                                after=3))
        other = VersionedStorageManager(tmp_path / "other",
                                        chunk_bytes=800)
        other.create_array("A", schema)
        with pytest.raises(StorageError, match="stored differently"):
            other.import_versions("A", source.export_versions("A"))
        # A tail whose chains reach versions the target never held.
        other.close()
        other = self._blank(tmp_path / "x", source)
        with pytest.raises(StorageError, match="neither copy holds"):
            other.import_versions("A", source.export_versions("A",
                                                              after=2))
        assert other.get_versions("A") == []
        assert other.store.total_bytes() == 0
        assert target.fingerprint() == before
        for manager in (source, target, other):
            manager.close()
