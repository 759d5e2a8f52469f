"""Backend conformance suite: every backend behaves identically.

The :class:`~repro.storage.backend.StorageBackend` contract is
exercised twice — once against the raw byte API (including the striped
composite and the batched ``read_many``), once end-to-end
through :class:`VersionedStorageManager` across the (backend x
placement x fan width) grid, where every configuration must return
byte-identical query results.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.core.schema import ArraySchema
from repro.storage import (
    COLOCATED,
    PER_VERSION,
    FaultInjectingBackend,
    InMemoryBackend,
    IOStats,
    LocalFileBackend,
    ObjectStoreBackend,
    StorageBackend,
    StripedBackend,
    VersionedStorageManager,
    default_backend_spec,
    ensure_backend_spec,
    parse_faulty_spec,
    parse_object_spec,
    parse_striped_spec,
    resolve_backend,
)


def _make_backend(kind: str, tmp_path) -> StorageBackend:
    if kind == "local":
        return LocalFileBackend(tmp_path / "store")
    if kind == "durable":
        return LocalFileBackend(tmp_path / "store", durable=True)
    if kind == "memory":
        return InMemoryBackend()
    if kind == "object":
        return ObjectStoreBackend(tmp_path / "store")
    if kind == "object-durable":
        return ObjectStoreBackend(tmp_path / "store", durable=True)
    if kind == "striped-local":
        return StripedBackend([LocalFileBackend(tmp_path / f"stripe{i}")
                               for i in range(3)])
    if kind == "striped-object":
        return StripedBackend([ObjectStoreBackend(tmp_path / f"stripe{i}")
                               for i in range(3)])
    if kind == "faulty":
        # Fault-free mode: the wrapper must be indistinguishable from
        # its inner backend across the whole conformance suite.
        return FaultInjectingBackend(LocalFileBackend(tmp_path / "store"),
                                     seed=0)
    if kind == "faulty-object":
        return FaultInjectingBackend(
            ObjectStoreBackend(tmp_path / "store"), seed=0)
    return StripedBackend([InMemoryBackend() for _ in range(3)])


@pytest.fixture(params=["local", "durable", "memory", "object",
                        "object-durable", "striped-local",
                        "striped-memory", "striped-object",
                        "faulty", "faulty-object"])
def backend(request, tmp_path) -> StorageBackend:
    return _make_backend(request.param, tmp_path)


class TestByteContract:
    def test_write_read_roundtrip(self, backend):
        backend.write("A/chunks/value/c.dat", b"payload-bytes")
        assert backend.read("A/chunks/value/c.dat", 0, 13) == \
            b"payload-bytes"

    def test_write_replaces_wholesale(self, backend):
        backend.write("A/c.dat", b"first contents")
        backend.write("A/c.dat", b"new")
        assert backend.total_bytes("A") == 3
        assert backend.read("A/c.dat", 0, 3) == b"new"

    def test_append_returns_offsets(self, backend):
        assert backend.append("A/c.dat", b"v1..") == 0
        assert backend.append("A/c.dat", b"version-two") == 4
        assert backend.read("A/c.dat", 4, 11) == b"version-two"

    def test_read_many_preserves_span_order(self, backend):
        backend.append("A/c.dat", b"aaaa")
        backend.append("A/c.dat", b"bb")
        backend.append("A/c.dat", b"cccccc")
        payloads = backend.read_many("A/c.dat",
                                     [(6, 6), (0, 4), (4, 2)])
        assert payloads == [b"cccccc", b"aaaa", b"bb"]

    def test_missing_object_raises(self, backend):
        with pytest.raises(StorageError):
            backend.read("A/nowhere.dat", 0, 4)
        with pytest.raises(StorageError):
            backend.read_many("A/nowhere.dat", [(0, 4)])

    def test_short_span_raises(self, backend):
        backend.write("A/c.dat", b"abc")
        with pytest.raises(StorageError):
            backend.read("A/c.dat", 0, 100)
        with pytest.raises(StorageError):
            backend.read_many("A/c.dat", [(0, 3), (1, 50)])

    def test_delete_object(self, backend):
        backend.write("A/c.dat", b"data")
        backend.delete("A/c.dat")
        with pytest.raises(StorageError):
            backend.read("A/c.dat", 0, 4)

    def test_delete_prefix_subtree(self, backend):
        backend.write("A/v1/value/c.dat", b"data")
        backend.write("A/v2/value/c.dat", b"more")
        backend.write("B/v1/value/c.dat", b"keep")
        backend.delete("A")
        assert backend.total_bytes("A") == 0
        assert backend.read("B/v1/value/c.dat", 0, 4) == b"keep"

    def test_delete_missing_is_noop(self, backend):
        backend.delete("A/ghost.dat")  # must not raise

    def test_total_bytes(self, backend):
        assert backend.total_bytes() == 0
        backend.write("A/c.dat", b"12345")
        backend.write("B/c.dat", b"123")
        assert backend.total_bytes("A") == 5
        assert backend.total_bytes() == 8
        assert backend.total_bytes("missing") == 0


class TestReadManyChain:
    """A deep co-located chain — many appended spans of one object —
    comes back whole and in order from one batched read."""

    def test_every_appended_span_reads_back(self, backend):
        chunks = [bytes([i]) * (7 + i) for i in range(23)]
        offsets = [backend.append("A/c.dat", chunk) for chunk in chunks]
        spans = [(offset, len(chunk))
                 for offset, chunk in zip(offsets, chunks)]
        assert backend.read_many("A/c.dat", spans) == chunks


class TestDeleteContract:
    """The documented ``delete(prefix)`` semantics, on every backend
    (striped children included): exact-object deletes, component-
    boundary subtree deletes, idempotence, and no resurrection."""

    def test_prefix_matches_whole_components_only(self, backend):
        backend.write("A/chunks/value/c.dat", b"keep-me")
        backend.write("A/ch", b"exact")
        # "A/ch" names an object and a *string* prefix of A/chunks/...;
        # delete must remove the object and nothing else.
        backend.delete("A/ch")
        assert backend.read("A/chunks/value/c.dat", 0, 7) == b"keep-me"
        with pytest.raises(StorageError):
            backend.read("A/ch", 0, 5)

    def test_subtree_delete_spares_siblings(self, backend):
        backend.write("A/v1/value/c.dat", b"dead")
        backend.append("A/v1/value/d.dat", b"dead-too")
        backend.write("A2/v1/value/c.dat", b"sibling")
        backend.delete("A/v1")
        assert backend.total_bytes("A/v1") == 0
        assert backend.read("A2/v1/value/c.dat", 0, 7) == b"sibling"

    def test_delete_is_idempotent(self, backend):
        backend.write("A/c.dat", b"data")
        backend.delete("A")
        backend.delete("A")          # repeat: silent no-op
        backend.delete("B/ghost")    # never existed: silent no-op
        assert backend.total_bytes() == 0

    def test_deleted_object_can_be_recreated(self, backend):
        backend.append("A/c.dat", b"old")
        backend.delete("A/c.dat")
        assert backend.append("A/c.dat", b"new!") == 0
        assert backend.read("A/c.dat", 0, 4) == b"new!"

    def test_striped_delete_fans_to_every_child(self, tmp_path):
        striped = _make_backend("striped-object", tmp_path)
        paths = [f"A/chunks/value/chunk-{i}.dat" for i in range(24)]
        for path in paths:
            striped.append(path, b"x" * 8)
        # Enough objects to land on every stripe.
        assert len({id(striped.child_for(p)) for p in paths}) == 3
        striped.delete("A")
        assert striped.total_bytes("A") == 0
        for child in striped.children:
            assert child.total_bytes("A") == 0

    @pytest.mark.parametrize("kind", ["object", "faulty-object"])
    def test_delete_aborts_pending_uploads(self, tmp_path, kind):
        # The fault-free wrapper forwards the staged-upload abort
        # contract untouched (pending_parts stays observable through
        # the wrapper).
        backend = _make_backend(kind, tmp_path)
        backend.append("A/c.dat", b"staged")
        assert backend.pending_parts("A/c.dat") == 1
        backend.delete("A/c.dat")
        assert backend.pending_parts() == 0
        # No later finalize may resurrect the deleted object.
        backend.sync(["A/c.dat"])
        with pytest.raises(StorageError):
            backend.read("A/c.dat", 0, 6)


class TestObjectStoreBackend:
    """S3-semantics specifics: multipart staging, the finalize
    barrier, and ranged-GET coalescing under the request-size floor."""

    def test_append_stages_until_finalize_barrier(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "store")
        backend.append("A/c.dat", b"part-one-")
        backend.append("A/c.dat", b"part-two")
        assert backend.pending_parts("A/c.dat") == 2
        # Nothing is committed yet: the object map holds no bytes.
        assert not (tmp_path / "store" / "A" / "c.dat").exists()
        backend.sync(["A/c.dat"])
        assert backend.pending_parts() == 0
        assert (tmp_path / "store" / "A" / "c.dat").read_bytes() == \
            b"part-one-part-two"

    def test_write_is_an_immediate_put(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "store")
        backend.append("A/c.dat", b"pending")
        backend.write("A/c.dat", b"put")
        # The PUT superseded the pending upload wholesale.
        assert backend.pending_parts() == 0
        assert backend.read("A/c.dat", 0, 3) == b"put"

    def test_read_inside_committed_region_skips_finalize(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "store")
        backend.append("A/c.dat", b"committed")
        backend.sync(["A/c.dat"])
        backend.append("A/c.dat", b"staged")
        # A reader of committed bytes proceeds without completing the
        # writer's in-flight upload.
        assert backend.read("A/c.dat", 0, 9) == b"committed"
        assert backend.pending_parts("A/c.dat") == 1
        # Reaching into the staged region completes it (read-your-writes).
        assert backend.read("A/c.dat", 9, 6) == b"staged"
        assert backend.pending_parts("A/c.dat") == 0

    def test_close_aborts_pending_uploads(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "store")
        backend.append("A/c.dat", b"committed")
        backend.sync(["A/c.dat"])
        backend.append("A/c.dat", b"never-synced")
        backend.close()
        reopened = ObjectStoreBackend(tmp_path / "store")
        # Only the finalized upload survived.
        assert reopened.total_bytes("A/c.dat") == 9

    def test_ranged_gets_coalesce_under_floor(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "store",
                                     request_floor=64)
        stats = IOStats()
        backend.bind_stats(stats)
        payload = bytes(range(200))
        backend.write("A/c.dat", payload)
        # Two spans 30 bytes apart: the floor extension of the first
        # GET covers the second span, so one request serves both.
        got = backend.read_many("A/c.dat", [(0, 10), (40, 10)])
        assert got == [payload[0:10], payload[40:50]]
        assert stats.ranged_gets == 1
        # One 64-byte GET for 20 requested bytes: 44 over-fetched.
        assert stats.bytes_over_fetched == 44

    def test_distant_spans_get_separate_requests(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "store",
                                     request_floor=16)
        stats = IOStats()
        backend.bind_stats(stats)
        payload = bytes(range(256))
        backend.write("A/c.dat", payload)
        got = backend.read_many("A/c.dat", [(0, 8), (200, 8)])
        assert got == [payload[0:8], payload[200:208]]
        assert stats.ranged_gets == 2
        assert stats.bytes_over_fetched == 16  # two 16B GETs, 16B used

    def test_floor_clamps_at_object_end(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "store",
                                     request_floor=1 << 20)
        stats = IOStats()
        backend.bind_stats(stats)
        backend.write("A/c.dat", b"0123456789")
        assert backend.read("A/c.dat", 8, 2) == b"89"
        assert stats.ranged_gets == 1
        assert stats.bytes_over_fetched == 0  # clamped GET = the span

    def test_bad_request_floor_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            ObjectStoreBackend(tmp_path / "store", request_floor=-1)

    def test_chain_read_costs_one_get_per_object(self, tmp_path, cold):
        """The decode path's observable: a co-located chain of many
        payloads in one object is one ranged GET, however deep."""
        manager = VersionedStorageManager(tmp_path, chunk_bytes=800,
                                          compressor="none",
                                          delta_policy="chain",
                                          backend="object")
        manager.create_array("A", ArraySchema.simple((10, 10),
                                                     dtype=np.int64))
        data = np.arange(100, dtype=np.int64).reshape(10, 10)
        for version in range(5):
            manager.insert("A", data + version)
        with manager.stats.measure() as window:
            cold(manager, "A").select("A", 5)
        # One chunk -> one object -> one coalesced GET for the whole
        # five-deep chain (and one logical open, as on local files).
        assert window.ranged_gets == window.file_opens == 1
        assert window.chunks_read == 5
        manager.close()


class TestStripedBackend:
    def test_routing_is_deterministic_and_total(self, tmp_path):
        striped = _make_backend("striped-memory", tmp_path)
        paths = [f"A/chunks/value/chunk-{i}.dat" for i in range(40)]
        for path in paths:
            striped.write(path, path.encode())
        # Every object reads back through the composite...
        for path in paths:
            assert striped.read(path, 0, len(path)) == path.encode()
        # ... routing is stable ...
        for path in paths:
            assert striped.child_for(path) is striped.child_for(path)
        # ... and with enough objects, more than one stripe is used.
        used = {id(striped.child_for(path)) for path in paths}
        assert len(used) > 1

    def test_prefix_operations_fan_to_all_stripes(self, tmp_path):
        striped = _make_backend("striped-local", tmp_path)
        for i in range(12):
            striped.write(f"A/v1/value/chunk-{i}.dat", b"x" * 10)
        striped.write("B/v1/value/chunk-0.dat", b"keep")
        assert striped.total_bytes("A") == 120
        striped.delete("A")
        assert striped.total_bytes("A") == 0
        assert striped.total_bytes("B") == 4

    def test_ephemeral_iff_all_children_are(self, tmp_path):
        assert _make_backend("striped-memory", tmp_path).ephemeral
        assert not _make_backend("striped-local", tmp_path).ephemeral
        mixed = StripedBackend([InMemoryBackend(),
                                LocalFileBackend(tmp_path / "s")])
        assert not mixed.ephemeral

    def test_empty_children_rejected(self):
        with pytest.raises(StorageError):
            StripedBackend([])


class TestStripedSpec:
    def test_parse_valid(self):
        assert parse_striped_spec("striped:4") == (4, "local")
        assert parse_striped_spec("striped:2:memory") == (2, "memory")
        assert parse_striped_spec("striped:3:object") == (3, "object")

    @pytest.mark.parametrize("spec", [
        "striped", "striped:", "striped:0", "striped:-1", "striped:x",
        "striped:2:tape", "striped:2:memory:extra", "striped:2.5",
        "striped:2:object:durable",
    ])
    def test_parse_invalid(self, spec):
        with pytest.raises(StorageError):
            parse_striped_spec(spec)

    def test_error_messages_name_the_defect(self):
        with pytest.raises(StorageError, match="integer stripe"):
            parse_striped_spec("striped:x")
        with pytest.raises(StorageError, match="at least one stripe"):
            parse_striped_spec("striped:0")
        with pytest.raises(StorageError,
                           match="unknown child backend 'tape'"):
            parse_striped_spec("striped:2:tape")
        with pytest.raises(StorageError, match="malformed"):
            parse_striped_spec("striped:2:object:durable")

    def test_resolve_local_children_under_root(self, tmp_path):
        backend = resolve_backend("striped:4", tmp_path)
        assert isinstance(backend, StripedBackend)
        assert len(backend.children) == 4
        assert all(isinstance(child, LocalFileBackend)
                   for child in backend.children)
        assert sorted(child.root.name for child in backend.children) == \
            ["stripe0", "stripe1", "stripe2", "stripe3"]

    def test_resolve_memory_children(self, tmp_path):
        backend = resolve_backend("striped:2:memory", tmp_path)
        assert isinstance(backend, StripedBackend)
        assert len(backend.children) == 2
        assert backend.ephemeral

    def test_resolve_object_children(self, tmp_path):
        backend = resolve_backend("striped:2:object", tmp_path)
        assert isinstance(backend, StripedBackend)
        assert all(isinstance(child, ObjectStoreBackend)
                   for child in backend.children)
        assert not backend.ephemeral
        assert sorted(child.root.name for child in backend.children) == \
            ["stripe0", "stripe1"]


class TestObjectSpec:
    def test_parse_valid(self):
        assert parse_object_spec("object") is False
        assert parse_object_spec("object:durable") is True

    @pytest.mark.parametrize("spec", [
        "object:", "object:tape", "object:durable:extra", "objects",
    ])
    def test_parse_invalid(self, spec):
        with pytest.raises(StorageError):
            parse_object_spec(spec)

    def test_error_messages_name_the_defect(self):
        with pytest.raises(StorageError,
                           match="unknown mode 'fsync'"):
            parse_object_spec("object:fsync")
        with pytest.raises(StorageError, match="malformed"):
            parse_object_spec("object:durable:extra")

    def test_resolve(self, tmp_path):
        backend = resolve_backend("object", tmp_path)
        assert isinstance(backend, ObjectStoreBackend)
        assert not backend.durable
        durable = resolve_backend("object:durable", tmp_path)
        assert isinstance(durable, ObjectStoreBackend)
        assert durable.durable


class TestFaultySpec:
    def test_parse_valid(self):
        assert parse_faulty_spec("faulty:0") == (0, "local")
        assert parse_faulty_spec("faulty:7") == (7, "local")
        assert parse_faulty_spec("faulty:23:memory") == (23, "memory")
        assert parse_faulty_spec("faulty:1:object") == (1, "object")

    @pytest.mark.parametrize("spec", [
        "faulty", "faulty:", "faulty:-1", "faulty:x",
        "faulty:2:tape", "faulty:2:memory:extra", "faulty:2.5",
    ])
    def test_parse_invalid(self, spec):
        with pytest.raises(StorageError):
            parse_faulty_spec(spec)

    def test_error_messages_name_the_defect(self):
        with pytest.raises(StorageError, match="integer seed"):
            parse_faulty_spec("faulty:x")
        with pytest.raises(StorageError, match="seed >= 0"):
            parse_faulty_spec("faulty:-3")
        with pytest.raises(StorageError,
                           match="unknown inner backend 'tape'"):
            parse_faulty_spec("faulty:2:tape")
        with pytest.raises(StorageError, match="malformed"):
            parse_faulty_spec("faulty:2:memory:extra")

    def test_resolve(self, tmp_path):
        backend = resolve_backend("faulty:7", tmp_path)
        assert isinstance(backend, FaultInjectingBackend)
        assert isinstance(backend.inner, LocalFileBackend)
        assert backend.seed == 7 and not backend.ephemeral
        wrapped = resolve_backend("faulty:0:memory", tmp_path)
        assert isinstance(wrapped.inner, InMemoryBackend)
        assert wrapped.ephemeral
        objecty = resolve_backend("faulty:3:object", tmp_path)
        assert isinstance(objecty.inner, ObjectStoreBackend)


class TestEnsureBackendSpec:
    @pytest.mark.parametrize("spec", [
        "local", "memory", "durable", "object", "object:durable",
        "striped:2", "striped:3:memory", "striped:2:object",
        "faulty:0", "faulty:7:memory", "faulty:23:object",
    ])
    def test_valid_specs_pass_through(self, spec):
        assert ensure_backend_spec(spec) == spec

    @pytest.mark.parametrize("spec", [
        "tape", "", "object:tape", "striped:zero", "striped:0",
        "OBJECT", "local:durable", "faulty", "faulty:-1",
        "faulty:1:tape",
    ])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(StorageError):
            ensure_backend_spec(spec)


class TestReproBackendEnv:
    """``REPRO_BACKEND`` is the CI matrix's backend axis: the default
    spec for every manager that does not pin one explicitly."""

    def test_unset_defaults_to_local(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_spec() == "local"
        assert isinstance(resolve_backend(None, tmp_path),
                          LocalFileBackend)

    def test_env_selects_the_object_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", "object")
        assert isinstance(resolve_backend(None, tmp_path),
                          ObjectStoreBackend)
        manager = VersionedStorageManager(tmp_path / "store")
        assert isinstance(manager.backend, ObjectStoreBackend)
        manager.close()

    def test_explicit_spec_beats_the_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", "object")
        assert isinstance(resolve_backend("memory", tmp_path),
                          InMemoryBackend)

    def test_empty_env_means_local(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert isinstance(resolve_backend(None, tmp_path),
                          LocalFileBackend)

    def test_malformed_env_fails_loudly(self, monkeypatch, tmp_path):
        # A matrix cell with a typo must fail, not silently run the
        # local path under an "object" label.
        monkeypatch.setenv("REPRO_BACKEND", "objcet")
        with pytest.raises(StorageError, match="REPRO_BACKEND"):
            resolve_backend(None, tmp_path)


class TestResolveBackend:
    def test_names_and_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert isinstance(resolve_backend(None, tmp_path),
                          LocalFileBackend)
        assert isinstance(resolve_backend("local", tmp_path),
                          LocalFileBackend)
        assert isinstance(resolve_backend("memory", tmp_path),
                          InMemoryBackend)
        assert isinstance(resolve_backend("object", tmp_path),
                          ObjectStoreBackend)

    def test_instance_passthrough(self, tmp_path):
        backend = InMemoryBackend()
        assert resolve_backend(backend, tmp_path) is backend

    def test_factory_called_with_root(self, tmp_path):
        seen = []

        def factory(root):
            seen.append(root)
            return InMemoryBackend()

        backend = resolve_backend(factory, tmp_path)
        assert isinstance(backend, InMemoryBackend)
        assert seen == [tmp_path]

    def test_bad_factory_result_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            resolve_backend(lambda root: object(), tmp_path)

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            resolve_backend("tape", tmp_path)


#: The (backend, placement, fan width) grid every storage semantic must
#: agree on: plain, striped, object-store, and (fault-free)
#: fault-injection-wrapped backends, inline and pooled decode.
CONFIGS = [("local", COLOCATED, 1), ("local", PER_VERSION, 1),
           ("memory", COLOCATED, 1), ("memory", PER_VERSION, 1),
           ("striped:3", COLOCATED, 1), ("striped:3", PER_VERSION, 4),
           ("striped:3:memory", COLOCATED, 4),
           ("local", COLOCATED, 4), ("memory", COLOCATED, 4),
           ("object", COLOCATED, 1), ("object", PER_VERSION, 4),
           ("object:durable", COLOCATED, 4),
           ("striped:2:object", COLOCATED, 4),
           ("faulty:0", COLOCATED, 1), ("faulty:0:memory", PER_VERSION, 1),
           ("faulty:0:object", COLOCATED, 4)]


def _exercise(manager: VersionedStorageManager) -> dict:
    """One deterministic workout of the paper's five operations."""
    rng = np.random.default_rng(7)
    manager.create_array("A", ArraySchema.simple((16, 16),
                                                 dtype=np.int32))
    data = rng.integers(0, 1000, (16, 16)).astype(np.int32)
    for _ in range(4):
        manager.insert("A", data)
        data = data + rng.integers(0, 3, (16, 16)).astype(np.int32)
    manager.branch("A", 2, "B")
    manager.delete_version("A", 3)
    manager.reorganize("A", mode="space")
    return {
        "versions": manager.get_versions("A"),
        "selects": {v: manager.select("A", v).single()
                    for v in manager.get_versions("A")},
        "region": manager.select_region("A", 4, (2, 3), (9, 12)).single(),
        "stack": manager.select_versions("A", [1, 4]),
        "branch": manager.select("B", 1).single(),
        "stored": manager.stored_bytes("A"),
    }


@pytest.mark.parametrize("backend_name,placement,fan_width", CONFIGS,
                         indirect=["fan_width"])
def test_manager_conformance_identical(tmp_path, pin_fan,
                                       backend_name, placement, fan_width):
    """Every backend/placement/width triple returns byte-identical
    results."""
    with pin_fan(1), VersionedStorageManager(
            tmp_path / "ref", chunk_bytes=512,
            placement=COLOCATED) as reference_manager:
        reference = _exercise(reference_manager)
    with VersionedStorageManager(
            tmp_path / "sub", chunk_bytes=512, placement=placement,
            backend=backend_name) as manager:
        observed = _exercise(manager)

    assert observed["versions"] == reference["versions"]
    assert observed["stored"] > 0
    for version, expected in reference["selects"].items():
        np.testing.assert_array_equal(observed["selects"][version],
                                      expected)
    np.testing.assert_array_equal(observed["region"], reference["region"])
    np.testing.assert_array_equal(observed["stack"], reference["stack"])
    np.testing.assert_array_equal(observed["branch"], reference["branch"])


#: ``fingerprint()`` after the co-located ``_exercise`` history: one
#: value on every backend at every fan width, pinned so that a
#: change to how rewrites place, compact or commit shows up here.  The
#: ``reorganize`` compacts into ``@r2`` objects: ``@r1`` are the ones the
#: ``delete_version`` before it committed, which it may not write over.
GOLDEN_COLOCATED = \
    "48b62e6ac8398d88eafe6688fa7dc7deec148472d0d6b599f13b2daec3092934"
#: SHA-256 over the stored and logical digest lists of both arrays after
#: ``_exercise``: one value on both placements, since neither digest
#: covers locations.
GOLDEN_DIGESTS = \
    "eb4fafb8da2016f76d6a879c20087bcc99cf6482d56581f9c5da6b3787744d73"


@pytest.mark.parametrize("placement", [COLOCATED, PER_VERSION])
def test_exercise_stores_the_golden_bytes(tmp_path, pin_fan, placement):
    """Every backend and fan width stores one history as the same
    bytes; co-located, those are the pinned golden bytes.  Per-version
    placement names its objects differently where a rewrite ran, so
    its fingerprint is only held to one value across the grid."""
    specs = dict.fromkeys(spec for spec, where, _ in CONFIGS
                          if where == placement)
    fingerprints, digests = set(), set()
    for index, spec in enumerate(specs):
        for width in (1, 4):
            with pin_fan(width), VersionedStorageManager(
                    tmp_path / f"{index}-w{width}", chunk_bytes=512,
                    placement=placement, backend=spec) as manager:
                _exercise(manager)
                fingerprints.add(manager.fingerprint())
                lists = tuple(listing(name) for listing in (
                    manager.stored_digests, manager.version_digests)
                    for name in ("A", "B"))
                digests.add(hashlib.sha256(repr(lists).encode()).hexdigest())
    assert digests == {GOLDEN_DIGESTS}
    assert len(fingerprints) == 1
    if placement == COLOCATED:
        assert fingerprints == {GOLDEN_COLOCATED}


class TestInMemoryManager:
    def test_zero_disk_footprint(self, tmp_path, rng):
        manager = VersionedStorageManager(tmp_path / "mem",
                                          chunk_bytes=1024,
                                          backend="memory")
        manager.create_array("A", ArraySchema.simple((8, 8),
                                                     dtype=np.int64))
        data = rng.integers(0, 99, (8, 8)).astype(np.int64)
        manager.insert("A", data)
        np.testing.assert_array_equal(manager.select("A", 1).single(),
                                      data)
        # Neither chunk files nor the catalog ever touch the disk.
        assert not (tmp_path / "mem").exists()
        manager.close()

    def test_stored_bytes_tracked(self, tmp_path, rng):
        manager = VersionedStorageManager(tmp_path, chunk_bytes=1024,
                                          backend="memory")
        manager.create_array("A", ArraySchema.simple((8, 8),
                                                     dtype=np.int64))
        manager.insert("A", rng.integers(0, 9, (8, 8)).astype(np.int64))
        assert manager.store.total_bytes("A") > 0
        manager.delete_array("A")
        assert manager.store.total_bytes("A") == 0
        manager.close()


#: Every backend spec of the conformance grid, once.
SPECS = list(dict.fromkeys(spec for spec, _, _ in CONFIGS))
#: The specs whose bytes the process holds, so a read can be a view.
VIEW_SPECS = [spec for spec in SPECS if "memory" in spec or "object" in spec]
PATH = "A/chunks/value/c.dat"


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("span", [(-4, 2), (2, -1), (-1, 0)])
def test_negative_span_is_refused(tmp_path, spec, span):
    """A negative offset or length is a StorageError naming the object
    — never bytes from the wrong place, never a bare OSError."""
    backend = resolve_backend(spec, tmp_path)
    backend.write(PATH, b"0123456789")
    with pytest.raises(StorageError, match="c.dat"):
        backend.read_many(PATH, [(0, 2), span])
    with pytest.raises(StorageError, match="c.dat"):
        backend.read(PATH, *span)
    backend.close()


@pytest.mark.parametrize("spec", SPECS)
def test_payloads_are_read_only_and_stay_put(tmp_path, spec):
    """A payload is bytes-like, read-only, equal to what was written,
    and unchanged by a later append, replace or delete of its object."""
    backend = resolve_backend(spec, tmp_path)
    first, second = b"first payload", b"second, longer payload"
    backend.append(PATH, first)
    backend.append(PATH, second)
    backend.sync([PATH])
    payloads = backend.read_many(
        PATH, [(len(first), len(second)), (0, len(first))])
    payloads.append(backend.read(PATH, len(first), len(second)))
    expected = [second, first, second]
    for payload in payloads:
        assert not np.frombuffer(payload, dtype=np.uint8).flags.writeable
    assert [bytes(payload) for payload in payloads] == expected
    backend.append(PATH, b"third")
    backend.sync([PATH])
    assert [bytes(payload) for payload in payloads] == expected
    backend.write(PATH, b"replaced wholesale")
    assert [bytes(payload) for payload in payloads] == expected
    backend.delete(PATH)
    assert [bytes(payload) for payload in payloads] == expected
    backend.close()


@pytest.mark.parametrize("spec", VIEW_SPECS)
def test_reads_of_held_bytes_are_views(tmp_path, spec):
    """Where the bytes already sit in the process, two reads of one
    span are views of the same memory, not copies."""
    backend = resolve_backend(spec, tmp_path)
    # Bytes on both sides, so a view is never the whole buffer read.
    backend.append(PATH, b"x" * 100)
    backend.append(PATH, b"payload " * 10)
    backend.append(PATH, b"y" * 40)
    backend.sync([PATH])
    one, two = backend.read_many(PATH, [(100, 80), (100, 80)])
    assert bytes(one) == b"payload " * 10
    assert np.shares_memory(np.frombuffer(one, dtype=np.uint8),
                            np.frombuffer(two, dtype=np.uint8))
    backend.close()
