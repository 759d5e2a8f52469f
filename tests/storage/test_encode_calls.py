"""An insert encodes each chunk in one call of the encode face.

The write-side twin of ``test_fused_reads.py::
test_one_native_call_per_chunk``: a delta insert makes exactly one call
of the encode face (:class:`repro.core.native.ChunkEncode`) per chunk —
one compiled call, building no :class:`~repro.delta.codes.CodePlan`,
inline and fanned, under a ``hybrid+lz`` codec, the ``lz`` compressor
and 3-d chunk windows too.  Where the C entry does not take a chunk —
kernels off, a big-endian host, a byte-swapped cell type, an empty
chunk, more candidates than it sizes — the same one face call runs its
numpy form, under every store codec and compressor; every case lands
the bytes the two-pass oracle lands.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compression.registry import get_codec
from repro.core import native
from repro.core.schema import ArraySchema
from repro.delta.base import chunk_encode
from repro.delta.codes import CodePlan
from repro.delta.registry import delta_codec_names
from repro.storage import pipeline
from repro.storage.manager import VersionedStorageManager

# The two-pass encoding decision lives with the planner's tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "delta"))
from encoding_oracle import choose_encoding  # noqa: E402

VERSIONS = 4


def _versions(shape, dtype=np.int32) -> list[np.ndarray]:
    """A chain of sparse bumps plus a dense patch per version."""
    rng = np.random.default_rng(52)
    data = rng.integers(0, 1000, shape).astype(np.int32)
    out = [data.astype(dtype)]
    for step in range(1, VERSIONS):
        data = data.copy()
        flat = data.reshape(-1)
        flat[rng.integers(0, flat.size, flat.size // 20)] += step
        data[(slice(step, step + 2),) * data.ndim] += 90
        out.append(data.astype(dtype))
    return out


def _store(root, shape, chunk_shape, dtype=np.int32, **kwargs) -> tuple:
    """A manager holding VERSIONS inserts of array A, and its chunk
    count."""
    manager = VersionedStorageManager(root, backend="memory", **kwargs)
    manager.create_array("A", ArraySchema.simple(shape, dtype),
                         chunk_shape=chunk_shape)
    for data in _versions(shape, dtype):
        manager.insert("A", data.copy())
    return manager, len(manager.grid_for(
        manager.catalog.get_array("A")).chunks())


def _spy(monkeypatch) -> dict[str, list]:
    """Count compiled encode calls, face calls, plans built and chunks
    materialized for want of a base (from any thread)."""
    calls = {"native": [], "faces": [], "plans": [], "materialized": []}
    lib = native._load()
    encode = lib.repro_encode_chunk
    monkeypatch.setattr(lib, "repro_encode_chunk",
                        lambda *args: calls["native"].append(args)
                        or encode(*args))
    face = native.ChunkEncode.__call__
    monkeypatch.setattr(native.ChunkEncode, "__call__",
                        lambda self, *args, **kwargs: calls["faces"].append(
                            kwargs.get("pack", native.ENCODE_RACE))
                        or face(self, *args, **kwargs))
    build = CodePlan.build.__func__
    monkeypatch.setattr(CodePlan, "build", classmethod(
        lambda cls, *args, **kwargs: calls["plans"].append(args)
        or build(cls, *args, **kwargs)))
    materialize = pipeline.materialize
    monkeypatch.setattr(pipeline, "materialize",
                        lambda *args: calls["materialized"].append(args)
                        or materialize(*args))
    return calls


pytestmark = pytest.mark.skipif(not native.available(),
                                reason="counts the compiled calls")


@pytest.mark.parametrize("delta_policy", ["chain", "auto"])
def test_one_native_call_per_chunk(tmp_path, monkeypatch, fan_width,
                                   delta_policy):
    """Every delta chunk of every insert is one face call, one compiled
    call; no plan is built and only the first version, which has no
    base, is materialized."""
    native.available()              # the kernels load before counting
    calls = _spy(monkeypatch)
    manager, chunks = _store(tmp_path / "s", (40, 36), (20, 16),
                             delta_policy=delta_policy)
    with manager:
        assert chunks == 6
        assert len(calls["native"]) == chunks * (VERSIONS - 1)
        assert len(calls["faces"]) == chunks * (VERSIONS - 1)
        assert calls["plans"] == []
        assert len(calls["materialized"]) == chunks
        stats = manager.stats
        assert stats.encode_plans == stats.encode_tasks \
            == chunks * VERSIONS
        assert stats.codec_encodes_avoided > 0


def _decide_with_oracle(manager) -> None:
    """Shadow ``encoder.encode_chunk`` with the two-pass oracle under
    the pipeline's policy-to-candidates rule."""
    encoder = manager.encoder

    def encode_chunk(target, base, compressor, *, adopt=False):
        decision = choose_encoding(target, base, compressor=compressor,
                                   candidates=encoder._candidates())
        if adopt:
            base[...] = target
        return decision

    encoder.encode_chunk = encode_chunk


@contextlib.contextmanager
def _big_endian(monkeypatch):
    """A host that says it is big-endian, for the faces built in it."""
    chunk_encode.cache_clear()
    monkeypatch.setattr(sys, "byteorder", "big")
    try:
        yield
    finally:
        monkeypatch.setattr(sys, "byteorder", "little")
        chunk_encode.cache_clear()


#: Store geometry, cell type and options of each case.  (6, 8, 10) in
#: (3, 4, 5) chunks makes every chunk view a 3-d window.
CASES = {
    "kernels-off": ((40, 36), (20, 16), np.int32, {}),
    "hybrid+lz": ((40, 36), (20, 16), np.int32,
                  dict(delta_codec="hybrid+lz")),
    "auto-lz-compressor": ((40, 36), (20, 16), np.int32,
                           dict(delta_policy="auto", compressor="lz")),
    "3-d-windows": ((6, 8, 10), (3, 4, 5), np.int32, {}),
    "big-endian": ((40, 36), (20, 16), np.int32, {}),
    "byte-swapped": ((40, 36), (20, 16), ">i4",
                     dict(delta_policy="auto")),
}

#: The cases the C entry does not take.
NO_KERNEL = ("kernels-off", "big-endian", "byte-swapped")


def _scope(case: str, monkeypatch):
    return native.disabled() if case == "kernels-off" \
        else _big_endian(monkeypatch) if case == "big-endian" \
        else contextlib.nullcontext()


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_store_case_is_one_face_call(tmp_path, monkeypatch, case):
    """A chunk with a base is one face call, whatever the store codec,
    compressor, window or host: one compiled call, or where the C entry
    does not take it the face's numpy form — and the store holds the
    bytes the two-pass oracle decides either way."""
    shape, chunk_shape, dtype, options = CASES[case]
    native.available()
    calls = _spy(monkeypatch)
    with _scope(case, monkeypatch):
        manager, chunks = _store(tmp_path / case, shape, chunk_shape,
                                 dtype, **options)
    with manager:
        deltas = chunks * (VERSIONS - 1)
        assert len(calls["faces"]) == deltas
        assert len(calls["materialized"]) == chunks
        if case in NO_KERNEL:
            assert calls["native"] == []
            assert len(calls["plans"]) == deltas
        else:
            assert len(calls["native"]) == deltas
            assert calls["plans"] == []
        stored = manager.fingerprint("A")
    oracle = VersionedStorageManager(tmp_path / f"{case}-oracle",
                                     backend="memory", **options)
    _decide_with_oracle(oracle)
    oracle.create_array("A", ArraySchema.simple(shape, dtype),
                        chunk_shape=chunk_shape)
    with oracle:
        for data in _versions(shape, dtype):
            oracle.insert("A", data.copy())
        assert oracle.fingerprint("A") == stored
        for version, data in enumerate(_versions(shape, dtype), start=1):
            assert np.array_equal(oracle.select("A", version).single(),
                                  data)


#: Chunks the C entry does not take: the chunk's cell type and shape,
#: and how many times over the policy's candidates are named.
FALLBACKS = {
    "kernels-off": (np.int32, (12, 10), 1),
    "big-endian": (np.int32, (12, 10), 1),
    "byte-swapped": (">i4", (12, 10), 1),
    "empty": (np.int32, (0, 10), 1),
    "nine-candidates": (np.int16, (3, 4, 5), 9),
}

#: Each store codec under ``chain``, and the ``auto`` policy's list.
POLICIES = [dict(delta_policy="chain", delta_codec=name)
            for name in delta_codec_names()] + [dict(delta_policy="auto")]


@pytest.mark.parametrize("compressor", ["none", "lz"])
@pytest.mark.parametrize("policy", POLICIES,
                         ids=lambda policy: policy.get("delta_codec",
                                                       "auto"))
@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_every_fallback_goes_through_the_face(tmp_path, monkeypatch, case,
                                             policy, compressor):
    """``EncodePipeline.encode_chunk`` on a chunk the C entry does not
    take is exactly one face call per delta chunk — its numpy form, no
    compiled call — and lands the oracle's bytes, the base adopting
    the target."""
    dtype, shape, repeat = FALLBACKS[case]
    native.available()
    manager = VersionedStorageManager(tmp_path / "s", backend="memory",
                                      **policy)
    encoder = manager.encoder
    codecs = encoder._candidates() * repeat
    monkeypatch.setattr(encoder, "_candidates", lambda: codecs)
    rng = np.random.default_rng(57)
    base = rng.integers(0, 1000, shape).astype(dtype)
    targets = [base.copy(), (base + 1).astype(dtype)]
    if base.size:
        changed = base.copy()
        changed.reshape(-1)[::7] += 300
        targets.append(changed)
    calls = _spy(monkeypatch)
    with manager, _scope(case, monkeypatch):
        for target in targets:
            held = base.copy()
            decision = encoder.encode_chunk(target, held,
                                            get_codec(compressor),
                                            adopt=True)
            oracle = choose_encoding(target, base,
                                     compressor=get_codec(compressor),
                                     candidates=codecs)
            assert (decision.delta_codec, decision.payload) == (
                oracle.delta_codec, oracle.payload)
            assert held.tobytes() == target.tobytes()
    assert len(calls["faces"]) == len(targets)
    assert calls["native"] == []
    assert calls["materialized"] == []


def test_a_chunk_without_a_base_is_materialized(tmp_path, monkeypatch):
    """A chunk with no base, or any chunk under the ``materialize``
    policy, is the compressor's encode: no face call."""
    native.available()
    calls = _spy(monkeypatch)
    data = np.arange(120, dtype=np.int32).reshape(12, 10)
    for policy in ("chain", "materialize"):
        manager = VersionedStorageManager(tmp_path / policy,
                                          backend="memory",
                                          delta_policy=policy)
        with manager:
            for compressor in ("none", "lz"):
                codec = get_codec(compressor)
                decision = manager.encoder.encode_chunk(
                    data, None if policy == "chain" else data - 1, codec)
                assert decision.payload == codec.encode(data)
                assert decision.delta_codec is None
    assert calls["faces"] == [] and calls["native"] == []
    assert len(calls["materialized"]) == 4
