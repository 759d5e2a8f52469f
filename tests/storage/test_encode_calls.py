"""An insert encodes each chunk in one native call, or by the planner.

The write-side twin of ``test_fused_reads.py::
test_one_native_call_per_chunk``: a delta insert makes exactly one
compiled call per chunk (:class:`repro.core.native.ChunkEncode`) and
builds no :class:`~repro.delta.codes.CodePlan`, inline and fanned —
under a ``hybrid+lz`` codec, the ``lz`` compressor and 3-d chunk
windows too.  Only where no kernel runs — kernels off, a big-endian
host — does :func:`repro.delta.auto.plan_encoding` decide, chunk by
chunk; every case lands the stored bytes the two-pass oracle lands.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import native
from repro.core.schema import ArraySchema
from repro.delta.base import _chunk_encode
from repro.delta.codes import CodePlan
from repro.storage import pipeline
from repro.storage.manager import VersionedStorageManager

# The two-pass encoding decision lives with the planner's tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "delta"))
from encoding_oracle import choose_encoding  # noqa: E402

VERSIONS = 4


def _versions(shape, dtype=np.int32) -> list[np.ndarray]:
    """A chain of sparse bumps plus a dense patch per version."""
    rng = np.random.default_rng(52)
    data = rng.integers(0, 1000, shape).astype(dtype)
    out = [data]
    for step in range(1, VERSIONS):
        data = data.copy()
        flat = data.reshape(-1)
        flat[rng.integers(0, flat.size, flat.size // 20)] += step
        data[(slice(step, step + 2),) * data.ndim] += 90
        out.append(data)
    return out


def _store(root, shape, chunk_shape, **kwargs) -> tuple:
    """A manager holding VERSIONS inserts of array A, and its chunk
    count."""
    manager = VersionedStorageManager(root, backend="memory", **kwargs)
    manager.create_array("A", ArraySchema.simple(shape, np.int32),
                         chunk_shape=chunk_shape)
    for data in _versions(shape):
        manager.insert("A", data.copy())
    return manager, len(manager.grid_for(
        manager.catalog.get_array("A")).chunks())


def _spy(monkeypatch) -> dict[str, list]:
    """Count compiled encode calls, plans built and planner decisions
    (from any thread)."""
    calls = {"native": [], "plans": [], "planner": []}
    lib = native._load()
    encode = lib.repro_encode_chunk
    monkeypatch.setattr(lib, "repro_encode_chunk",
                        lambda *args: calls["native"].append(args)
                        or encode(*args))
    build = CodePlan.build.__func__
    monkeypatch.setattr(CodePlan, "build", classmethod(
        lambda cls, *args, **kwargs: calls["plans"].append(args)
        or build(cls, *args, **kwargs)))
    plan = pipeline.plan_encoding
    monkeypatch.setattr(pipeline, "plan_encoding",
                        lambda *args, **kwargs: calls["planner"].append(
                            args[1] is not None) or plan(*args, **kwargs))
    return calls


pytestmark = pytest.mark.skipif(not native.available(),
                                reason="counts the compiled calls")


@pytest.mark.parametrize("delta_policy", ["chain", "auto"])
def test_one_native_call_per_chunk(tmp_path, monkeypatch, fan_width,
                                   delta_policy):
    """Every delta chunk of every insert is one compiled call; no
    plan is built and the planner only sees the first version, which
    has no base."""
    native.available()              # the kernels load before counting
    calls = _spy(monkeypatch)
    manager, chunks = _store(tmp_path / "s", (40, 36), (20, 16),
                             delta_policy=delta_policy)
    with manager:
        assert chunks == 6
        assert len(calls["native"]) == chunks * (VERSIONS - 1)
        assert calls["plans"] == []
        assert calls["planner"] == [False] * chunks
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
    _chunk_encode.cache_clear()
    monkeypatch.setattr(sys, "byteorder", "big")
    try:
        yield
    finally:
        monkeypatch.setattr(sys, "byteorder", "little")
        _chunk_encode.cache_clear()


#: Store geometry and options of each case.  (6, 8, 10) in (3, 4, 5)
#: chunks makes every chunk view a 3-d window.
CASES = {
    "kernels-off": ((40, 36), (20, 16), {}),
    "hybrid+lz": ((40, 36), (20, 16), dict(delta_codec="hybrid+lz")),
    "auto-lz-compressor": ((40, 36), (20, 16),
                           dict(delta_policy="auto", compressor="lz")),
    "3-d-windows": ((6, 8, 10), (3, 4, 5), {}),
    "big-endian": ((40, 36), (20, 16), {}),
}

#: The cases no kernel encodes.
NO_KERNEL = ("kernels-off", "big-endian")


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_store_case_is_one_call_or_the_planner(tmp_path, monkeypatch,
                                                     case):
    """A chunk with a base is one compiled call, whatever the store
    codec, compressor or window; only where no kernel runs is it
    decided by the planner — and the store holds the bytes the
    two-pass oracle decides either way."""
    shape, chunk_shape, options = CASES[case]
    native.available()
    scope = native.disabled() if case == "kernels-off" \
        else _big_endian(monkeypatch) if case == "big-endian" \
        else contextlib.nullcontext()
    calls = _spy(monkeypatch)
    with scope:
        manager, chunks = _store(tmp_path / case, shape, chunk_shape,
                                 **options)
    with manager:
        deltas = chunks * (VERSIONS - 1)
        if case in NO_KERNEL:
            assert calls["native"] == []
            assert calls["planner"] == [False] * chunks + [True] * deltas
        else:
            assert len(calls["native"]) == deltas
            assert calls["planner"] == [False] * chunks
            assert calls["plans"] == []
        stored = manager.fingerprint("A")
    oracle = VersionedStorageManager(tmp_path / f"{case}-oracle",
                                     backend="memory", **options)
    _decide_with_oracle(oracle)
    oracle.create_array("A", ArraySchema.simple(shape, np.int32),
                        chunk_shape=chunk_shape)
    with oracle:
        for data in _versions(shape):
            oracle.insert("A", data.copy())
        assert oracle.fingerprint("A") == stored
        for version, data in enumerate(_versions(shape), start=1):
            assert np.array_equal(oracle.select("A", version).single(),
                                  data)
