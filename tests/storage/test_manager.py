"""Integration tests for the versioned storage manager (Section II)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.array import (
    ArrayData,
    DeltaListPayload,
    DensePayload,
    SparsePayload,
)
from repro.core.errors import (
    ArrayNotFoundError,
    SchemaError,
    StorageError,
    VersionNotFoundError,
)
from repro.core.schema import ArraySchema, Attribute, Dimension
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

    def test_region_reads_fewer_chunks(self, manager, schema, rng):
        manager.create_array("A", schema)
        manager.insert("A", rng.integers(0, 9, (20, 20)).astype(np.int32))
        with manager.stats.measure() as full:
            manager.select("A", 1)
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

    def test_range_select_shares_chain_reads(self, manager, schema, rng):
        # Reading versions [1..4] must not re-read the chain per version.
        manager.create_array("A", schema)
        for v in _versions(rng, count=4):
            manager.insert("A", v)
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
