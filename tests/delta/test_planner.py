"""Property suite: the single-pass encode against the two-pass oracle.

The write path's decision — :func:`repro.delta.auto.encode_chunk`
through the encode face, here in its numpy form — must be *decision-
and byte-equivalent* to the paper's literal "try both" form, kept next
to this file as :func:`encoding_oracle.choose_encoding` — same winner
under the same first-strictly-smaller tie-break, same size, same
payload bytes — while encoding at most one representation.  The suite
drives both through randomized dtypes, sparsity profiles, outlier
mixes and degenerate shapes, and separately pins the exactness of the
face's sizes, the shared width statistics, the compiled analysis pass
and pack held to the numpy form (when the kernels compiled), and — at
store level — that a write pipeline deciding through the oracle lands
the same fingerprint.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import LempelZivCodec
from encoding_oracle import choose_encoding, reference_encode
from repro.core import bitpack, native
from repro.core.numeric import compute_delta
from repro.core.schema import ArraySchema
from repro.delta import (
    CodeStats,
    DenseDeltaCodec,
    HybridDeltaCodec,
    SparseDeltaCodec,
    get_delta_codec,
)
from repro.core.errors import CodecError
from repro.delta import codes as code_store
from repro.delta.auto import (
    default_delta_candidates,
    encode_chunk,
    materialize,
)
from repro.delta.base import chunk_encode, pack_frame
from repro.delta.codes import CodePlan, codes_to_delta, delta_to_codes
from repro.storage import VersionedStorageManager

_DTYPES = (np.int64, np.int32, np.uint16, np.int8, np.uint64, np.uint8,
           np.float64, np.float32, np.float16, np.bool_)


@st.composite
def _version_pair(draw):
    """A (target, base) pair spanning the interesting encode regimes."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = draw(st.sampled_from(
        [(), (1,), (7,), (64,), (9, 13), (3, 5, 7), (2000,)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if dtype.kind == "f":
        base = rng.normal(0, 100, size=shape).astype(dtype)
    elif dtype.kind == "b":
        base = (rng.integers(0, 2, size=shape) > 0).astype(dtype)
    else:
        info = np.iinfo(dtype)
        base = rng.integers(info.min, int(info.max) + 1,
                            size=shape, dtype=dtype)
    profile = draw(st.sampled_from(
        ["identical", "sparse", "smooth", "outliers", "random"]))
    target = base.copy()
    if profile == "sparse" and base.size:
        n_hits = draw(st.integers(1, max(1, base.size // 8)))
        flat = target.reshape(-1)
        hits = rng.choice(base.size, size=min(n_hits, base.size),
                          replace=False)
        if dtype.kind == "b":
            flat[hits] = ~flat[hits]
        else:
            flat[hits] = base.reshape(-1)[hits] // 2 + 1
    elif profile == "smooth" and base.size:
        if dtype.kind == "f":
            target = (base + rng.normal(0, 0.5,
                                        size=shape)).astype(dtype)
        elif dtype.kind != "b":
            noise = rng.integers(-3, 4, size=shape)
            with np.errstate(over="ignore"):
                target = (base + noise.astype(dtype)).astype(dtype)
    elif profile == "outliers" and base.size:
        flat = target.reshape(-1)
        n_out = draw(st.integers(1, max(1, base.size // 16)))
        hits = rng.choice(base.size, size=min(n_out, base.size),
                          replace=False)
        if dtype.kind == "f":
            with np.errstate(over="ignore"):  # float16 saturates to inf
                flat[hits] = -flat[hits] * 1e30
        elif dtype.kind != "b":
            info = np.iinfo(dtype)
            flat[hits] = info.max
    elif profile == "random":
        if dtype.kind == "f":
            target = rng.normal(0, 100, size=shape).astype(dtype)
        elif dtype.kind == "b":
            target = (rng.integers(0, 2, size=shape) > 0).astype(dtype)
        else:
            info = np.iinfo(dtype)
            target = rng.integers(info.min, int(info.max) + 1,
                                  size=shape, dtype=dtype)
    return target, base


version_pairs = _version_pair()


candidate_sets = st.sampled_from([
    None,                                   # default hybrid + sparse
    (HybridDeltaCodec(),),                  # the chain-policy shape
    (SparseDeltaCodec(),),
    (DenseDeltaCodec(),),
    (HybridDeltaCodec(lz=True),),           # sized only by encoding
    (HybridDeltaCodec(), SparseDeltaCodec(), DenseDeltaCodec()),
])


def _code_array_codecs():
    """The whole dense / sparse / hybrid family: one body, four names."""
    return (DenseDeltaCodec(), SparseDeltaCodec(), HybridDeltaCodec(),
            HybridDeltaCodec(lz=True))


def _numpy_encode(target, base, compressor=None, candidates=None):
    """:func:`encode_chunk` of the pair, with the kernels off: the
    encode face's numpy form."""
    target, base = np.asarray(target), np.asarray(base)
    encode = chunk_encode(target.dtype, target.shape,
                          candidates or default_delta_candidates())
    with native.disabled():
        return encode_chunk(encode, target, base, compressor)


class TestNumpyFormMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(pair=version_pairs, candidates=candidate_sets,
           lz_materialized=st.booleans())
    def test_decision_equivalence(self, pair, candidates,
                                  lz_materialized):
        target, base = pair
        compressor = LempelZivCodec() if lz_materialized else None
        oracle = choose_encoding(target, base, compressor=compressor,
                                 candidates=candidates)
        planned = _numpy_encode(target, base, compressor=compressor,
                                candidates=candidates)
        assert planned.decision.delta_codec == oracle.delta_codec
        assert planned.decision.size == oracle.size
        assert planned.decision.payload == oracle.payload

    @settings(max_examples=60, deadline=None)
    @given(pair=version_pairs, candidates=candidate_sets)
    def test_no_base_equivalence(self, pair, candidates):
        target, _ = pair
        oracle = choose_encoding(target, None, candidates=candidates)
        planned = materialize(target)
        assert not planned.decision.is_delta
        assert planned.decision.payload == oracle.payload

    def test_payload_join_is_cached(self, rng):
        base = rng.integers(0, 100, size=(16, 16)).astype(np.int64)
        planned = _numpy_encode(base + 1, base)
        assert planned.decision.payload is planned.decision.payload

    def test_savings_accounting(self, rng):
        base = rng.integers(0, 100, size=(64, 64)).astype(np.int64)
        planned = _numpy_encode(base + 1, base)
        # Small deltas: a delta codec wins, so the materialized payload
        # and the losing candidate were sized but never produced.
        assert planned.decision.is_delta
        assert planned.encodes_avoided >= 2
        assert planned.bytes_saved > base.nbytes


class TestEstimatorsExact:
    @settings(max_examples=80, deadline=None)
    @given(pair=version_pairs, kernels=st.booleans())
    def test_size_equals_encoded_length(self, pair, kernels):
        """The face's size-only mode prices each candidate at exactly
        the length of its forced pack."""
        target, base = map(np.asarray, pair)
        codecs = (HybridDeltaCodec(), SparseDeltaCodec(),
                  DenseDeltaCodec())
        encode = chunk_encode(target.dtype, target.shape, codecs)
        with contextlib.nullcontext() if kernels else native.disabled():
            sizes = encode(target, base, False,
                           pack=native.ENCODE_SIZE).sizes
            for index, codec in enumerate(codecs):
                payload = encode(target, base, False, pack=index).payload
                assert sizes[index] == len(payload), codec.name

    @settings(max_examples=80, deadline=None)
    @given(pair=version_pairs, kernels=st.booleans())
    def test_every_entry_point_is_the_face(self, pair, kernels):
        """``encode`` / ``encode_parts`` *are* the face's forced pack:
        the same bytes, equal to the independent sort-and-mask
        reference."""
        target, base = map(np.asarray, pair)
        codecs = _code_array_codecs()
        encode = chunk_encode(target.dtype, target.shape, codecs)
        with contextlib.nullcontext() if kernels else native.disabled():
            for index, codec in enumerate(codecs):
                payload = codec.encode(target, base)
                assert payload == b"".join(
                    codec.packed(encode, index, target, base)[0])
                assert payload == b"".join(
                    codec.encode_parts(target, base))
                assert payload == reference_encode(codec.name, target,
                                                   base), codec.name

    @settings(max_examples=40, deadline=None)
    @given(pair=version_pairs)
    def test_lz_hybrid_is_sized_by_its_bare_sections(self, pair):
        """A ``hybrid+lz`` candidate goes to the face bare: its size is
        its sections', and only compressing them sizes the sealed
        payload."""
        target, base = map(np.asarray, pair)
        codec = HybridDeltaCodec(lz=True)
        encode = chunk_encode(target.dtype, target.shape, (codec,))
        assert encode.bare == (True,)
        with native.disabled():
            done = encode(target, base, False, pack=0)
        assert done.sizes == (len(done.payload),)
        assert codec.encode(target, base) == b"".join(
            [encode.frame, *codec._seal([done.payload])])


class TestSharedStats:
    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(
        st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 40),
                  st.sampled_from([0, 1, 2**31, 2**53 - 1, 2**53,
                                   2**63, 2**64 - 1])),
        min_size=0, max_size=300))
    def test_width_histogram_is_exact(self, values):
        codes = np.array(values, dtype=np.uint64)
        stats = CodeStats.from_codes(codes)
        expected = np.zeros(65, dtype=np.int64)
        for value in values:
            expected[int(value).bit_length()] += 1
        assert np.array_equal(stats.width_counts, expected)
        assert stats.nonzero == sum(1 for v in values if v)
        assert stats.max_bits == max(
            (int(v).bit_length() for v in values), default=0)

    @settings(max_examples=60, deadline=None)
    @given(pair=version_pairs)
    def test_codes_roundtrip_to_the_delta(self, pair):
        target, base = pair
        plan = CodePlan.build(target, base)
        delta, mode = compute_delta(target, base)
        assert plan.mode == mode
        rebuilt = codes_to_delta(plan.codes, mode)
        assert rebuilt.dtype == delta.dtype
        assert np.array_equal(rebuilt.reshape(delta.shape), delta)


def _run_list(target, base):
    """``(codes, spans, encode)``: the run list the one encode call's
    analysis pass leaves in its space (size-only mode), and the call.
    The space starts as all ones, so the first span whose first cell
    reads -1 is past the last one the pass wrote."""
    target, base = np.asarray(target), np.asarray(base)
    encode = chunk_encode(target.dtype, target.shape,
                          (get_delta_codec("hybrid"),))
    space = np.full(encode.words, np.uint64(2**64 - 1), dtype=np.uint64)
    encode(target, base, False, space, pack=native.ENCODE_SIZE)
    codes, spans = _read_run_list(space, encode.words, target.size)
    return codes.copy(), spans.copy(), encode


def _read_run_list(space: np.ndarray, words: int, n: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, spans)`` of the run list a call on chunks of ``n``
    cells left in the last ``native.scratch_cells(n)`` of the ``words``
    of ``space``: room for ``n`` codes, then int64 ``(first cell, cell
    count)`` spans, ascending, up to the first whose first cell is -1
    (or all of them); the codes are the spans' cells', back to back."""
    scratch = space[words - native.scratch_cells(n):words]
    pairs = scratch[n:].view(np.int64).reshape(-1, 2)
    past = np.flatnonzero(pairs[:, 0] == -1)
    spans = pairs[:past[0] if past.size else len(pairs)]
    return scratch[:int(spans[:, 1].sum())], spans


#: A shim exporting the encode entry's pack, ``repro_pack_runs``, which
#: the store's library keeps ``static``.
_PACK_RUNS_SHIM = r"""
int64_t probe_pack_runs(const uint64_t *codes, int64_t ncodes,
                        const int64_t *spans, int64_t nspans, int64_t n,
                        int64_t small_bits, int64_t position_bits,
                        int64_t value_bits, int64_t outliers,
                        unsigned char *small_out,
                        unsigned char *position_out,
                        unsigned char *value_out)
{
    return repro_pack_runs(codes, ncodes, spans, nspans, n, small_bits,
                           position_bits, value_bits, outliers, small_out,
                           position_out, value_out);
}
"""


@pytest.fixture(scope="module")
def pack_runs_probe(tmp_path_factory):
    """``repro_pack_runs`` on its own: the kernels' source plus
    :data:`_PACK_RUNS_SHIM`, built for this module with the store's
    compiler and ``CFLAGS`` (a sanitizer build covers it too).  In the
    store the pack's only input is its own call's analysis pass, so its
    refusals of malformed run lists and stale counts are reached here."""
    if not native.available():
        pytest.skip("native kernels did not compile")
    root = tmp_path_factory.mktemp("pack-runs-probe")
    source, library = root / "probe.c", root / "probe.so"
    source.write_text(native._SOURCE + _PACK_RUNS_SHIM)
    subprocess.run(
        [os.environ.get("CC", "cc"), "-O3", "-shared", "-fPIC",
         *os.environ.get("CFLAGS", "").split(), "-o", str(library),
         str(source)], check=True, capture_output=True, timeout=120)
    lib = ctypes.CDLL(str(library))
    lib.probe_pack_runs.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
        *[ctypes.c_int64] * 6, *[ctypes.c_void_p] * 3]
    lib.probe_pack_runs.restype = ctypes.c_int64
    return lib


_CANARY = 0xA5


def _pack_runs(lib, codes: np.ndarray, spans, n: int, small_bits: int,
               outliers: int, value_bits: int, *, ncodes: int | None = None
               ) -> tuple[bytes, bytes, bytes] | None:
    """The pack's ``(small, positions, values)`` sections of a run list
    of ``n`` cells, each into a buffer sized for ``outliers`` and
    canary-filled past that, or None when the pack refused; either way
    not a byte past any sized section changed."""
    spans = np.ascontiguousarray(spans, dtype=np.int64)
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    position_bits = (n - 1).bit_length()
    sized = [(n * small_bits + 7) // 8,
             (outliers * position_bits + 7) // 8,
             (outliers * value_bits + 7) // 8]
    buffers = [np.full(nbytes + 40, _CANARY, dtype=np.uint8)
               for nbytes in sized]
    found = lib.probe_pack_runs(
        codes.ctypes.data, codes.size if ncodes is None else ncodes,
        spans.ctypes.data, len(spans), n, small_bits, position_bits,
        value_bits, outliers, *(buffer.ctypes.data for buffer in buffers))
    for nbytes, buffer in zip(sized, buffers):
        assert (buffer[nbytes:] == _CANARY).all()
    if found != outliers:
        assert found == -1
        return None
    return tuple(buffer[:nbytes].tobytes()
                 for nbytes, buffer in zip(sized, buffers))


def _expanded(n: int, codes: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """The full flat code array of a run list over ``n`` cells."""
    full = np.zeros(n, dtype=np.uint64)
    cells = [np.arange(first, first + count) for first, count in spans]
    full[np.concatenate(cells or [np.zeros(0, dtype=np.int64)])] = codes
    return full


@pytest.mark.skipif(not native.available(),
                    reason="native kernels did not compile")
class TestNativeKernels:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000))
    def test_fused_delta_matches_numpy(self, seed, n):
        rng = np.random.default_rng(seed)
        target = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        base = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        codes, spans, _ = _run_list(target, base)
        delta, mode = compute_delta(target, base)
        assert np.array_equal(_expanded(n, codes, spans),
                              delta_to_codes(delta, mode))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(0, 64),
           n=st.integers(1, 3000))
    def test_pack_matches_numpy_kernel(self, seed, bits, n):
        # XOR codes of float64 cells against a zero base are the target
        # cells' bit images: a dense level packs exactly ``values``, at
        # their widest width, through the entry's pack.
        rng = np.random.default_rng(seed)
        if bits == 0:
            values = np.zeros(n, dtype=np.uint64)
        elif bits < 64:
            values = rng.integers(0, 1 << bits, n, dtype=np.uint64)
        else:
            values = rng.integers(0, 2**63, n, dtype=np.uint64) * 2 \
                + rng.integers(0, 2, n, dtype=np.uint64)
        target = values.view(np.float64)
        base = np.zeros(n, dtype=np.float64)
        frame_end = -1 - bitpack.packed_size(n, int(values.max()
                                                    ).bit_length())
        payload = get_delta_codec("dense").encode(target, base)
        assert payload[frame_end:] == _pack(values, code_store.SMALL)

    def test_windows_of_any_layout_are_encoded(self, rng):
        # The inner (last-axis) stride, rows of two sides that differ
        # and 3-d windows are read through contiguous copies: every
        # ndarray pair of a cell type a kernel knows is encoded in one
        # call, with no decline.
        ints = rng.integers(0, 9, (8, 8, 8), dtype=np.int32)
        other = ints + 1
        declined = set(native._declined)
        for target, base in [(ints[:, 0, ::2], other[:, 0, ::2]),
                             (ints[0, 0, ::2], other[0, 0, ::2]),
                             (ints[1:5, 1:7, 2:6], other[1:5, 1:7, 2:6]),
                             (ints[0, :4, :6], other[0, :6, :4].T)]:
            codes, spans, _ = _run_list(target, base)
            delta, mode = compute_delta(target, base)
            assert np.array_equal(_expanded(target.size, codes, spans),
                                  delta_to_codes(delta, mode))
        assert {reason for reason in native._declined - declined
                if reason[0] == "encode_chunk"} == set()

    def test_gated_off_by_cell_type_and_layout(self, rng):
        # The gates that legitimately remain: a cell type a delta is
        # defined for — an empty chunk and a byte-swapped one have a
        # face too, which runs its numpy form — and cells; both sides
        # ndarrays of the call's dtype and shape.
        hybrid = (get_delta_codec("hybrid"),)
        ints = rng.integers(0, 9, (8, 8), dtype=np.int32)
        empty = np.zeros(0, dtype=np.int64)
        assert chunk_encode(empty.dtype, empty.shape, hybrid)(
            empty, empty, False).winner == -1
        swapped = ints.astype(ints.dtype.newbyteorder())
        bumped = (swapped + 1).astype(swapped.dtype)
        assert chunk_encode(swapped.dtype, swapped.shape, hybrid)(
            bumped, swapped, False).payload == \
            reference_encode("hybrid", bumped, swapped)
        with pytest.raises(CodecError, match="unsupported cell dtype"):
            chunk_encode(np.dtype(np.complex64), (8, 8), hybrid)
        encode = chunk_encode(ints.dtype, ints.shape, hybrid)
        for target, base in [(ints.tolist(), ints), (ints, np.int32(4)),
                             (ints, ints.astype(np.int64)),
                             (ints, ints[:4]), (ints[:4], ints[:4])]:
            with pytest.raises(ValueError, match="layout"):
                encode(target, base, False)

    def test_decline_is_logged_once_per_reason(self, caplog,
                                               monkeypatch):
        monkeypatch.setattr(native, "_declined", set())
        hybrid = (get_delta_codec("hybrid"),)
        swapped = np.zeros((4, 4), dtype=">i4")
        empty = np.zeros((4, 0), dtype=np.int32)
        with caplog.at_level("DEBUG", logger="repro.native"):
            for _ in range(3):
                chunk_encode(swapped.dtype, swapped.shape, hybrid)(
                    swapped, swapped, False)
            chunk_encode(empty.dtype, empty.shape, hybrid)(
                empty, empty, False)
        messages = [record.getMessage() for record in caplog.records]
        assert messages == [
            "native declined encode_chunk: byte-swapped dtype >i4",
            "native declined encode_chunk: empty",
        ]
        assert all(record.levelname == "DEBUG"
                   for record in caplog.records)


_LAYOUTS = {
    "contiguous": lambda canvas: np.ascontiguousarray(canvas[2:8, 3:11]),
    "row-strided": lambda canvas: canvas[2:8, 3:11],
    "1-d": lambda canvas: canvas[4],
    "1-column": lambda canvas: canvas[:, 5:6],
    "size-1": lambda canvas: canvas[3:4, 7:8],
    "0-d": lambda canvas: canvas[3, 7, ...],
    # A 3-d window: rows more than one stride apart (read via a copy).
    "3-d": lambda canvas: canvas.reshape(2, 5, 12)[:, 1:4, 2:9],
    # Cells a column apart (read via a copy).
    "column-strided": lambda canvas: canvas[1:9, 2:12:3],
}


def _cells(rng, dtype: np.dtype, shape) -> np.ndarray:
    """Uniformly random bit patterns of ``dtype`` (NaNs, infinities,
    subnormals and both zeros included for floats)."""
    if dtype.kind == "b":
        return rng.integers(0, 2, size=shape).astype(dtype)
    raw = rng.integers(0, 256, size=(*shape, dtype.itemsize),
                       dtype=np.uint8)
    return raw.view(dtype).reshape(shape)


def _reference_plan(target, base) -> CodePlan:
    """The plan the numpy path builds for the same inputs."""
    with native.disabled():
        return CodePlan.build(target, base)


def _pack(codes: np.ndarray, layout: int) -> bytes:
    """``codes`` as the numpy packer writes ``layout``'s sections, at
    the split the sizer picks."""
    stats = code_store.CodeStats.from_codes(codes)
    return code_store.pack_sections(
        codes, stats, layout, code_store.section_size(stats, layout)[1])


def _assert_family_agrees(target, base):
    """All four code-array codecs emit the same payload through the one
    encode call (``codec.encode``) with the kernels on and in its numpy
    form, equal to the sort-and-mask oracle's; and the face's sizes,
    the same in both forms, are that payload's length (a bare
    ``hybrid+lz`` candidate's, its sections')."""
    target, base = np.asarray(target), np.asarray(base)
    codecs = _code_array_codecs()
    encode = chunk_encode(target.dtype, target.shape, codecs)
    with native.disabled():
        sizes = encode(target, base, False, pack=native.ENCODE_SIZE).sizes
    assert encode(target, base, False,
                  pack=native.ENCODE_SIZE).sizes == sizes
    for codec, size, bare in zip(codecs, sizes, encode.bare):
        expected = reference_encode(codec.name, target, base)
        with native.disabled():
            assert codec.encode(target, base) == expected, codec.name
        assert codec.encode(target, base) == expected, codec.name
        assert bare or size == len(expected), codec.name


@pytest.mark.skipif(not native.available(),
                    reason="native kernels did not compile")
class TestNativeEveryCellType:
    """The one encode call is held to the numpy path — the oracle — for
    every dtype ``delta_mode_for`` accepts, so a gate can never again
    quietly send a whole class of arrays to the fallback."""

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("base_kind", ["canvas", "root"])
    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
        np.uint32, np.uint64, np.bool_, np.float16, np.float32,
        np.float64])
    def test_gate_accepts(self, rng, dtype, layout, base_kind,
                          monkeypatch):
        monkeypatch.setattr(native, "_declined", set())
        dtype = np.dtype(dtype)
        target = _LAYOUTS[layout](_cells(rng, dtype, (10, 12)))
        base = _LAYOUTS[layout](_cells(rng, dtype, (10, 12)))
        if base_kind == "root":
            # A decoded root is its own contiguous array.
            base = np.ascontiguousarray(base).reshape(target.shape)
        codes, spans, _ = _run_list(target, base)
        reference = _reference_plan(target, base)
        assert np.array_equal(_expanded(target.size, codes, spans),
                              reference.codes)
        assert native._declined == set()

    @settings(max_examples=150, deadline=None)
    @given(pair=version_pairs, strided=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_plan_and_payload_match_numpy(self, pair, strided, seed):
        target, base = pair
        rng = np.random.default_rng(seed)
        if strided and target.ndim:
            # The same cells as a chunk view of a larger canvas.
            def embed(cells):
                canvas = _cells(rng, cells.dtype,
                                tuple(n + 3 for n in cells.shape))
                window = canvas[tuple(slice(1, n + 1)
                                      for n in cells.shape)]
                window[...] = cells
                return window
            target, base = embed(target), embed(base)
        reference = _reference_plan(target, base)
        if target.size:
            codes, spans, _ = _run_list(target, base)
            assert np.array_equal(_expanded(target.size, codes, spans),
                                  reference.codes)
        _assert_family_agrees(target, base)

    @pytest.mark.parametrize("dtype, target, base", [
        # 33-bit deltas out of 32-bit cells, in both directions.
        (np.int32, [-2**31, 2**31 - 1, 0, -1], [2**31 - 1, -2**31, 0, -1]),
        (np.int8, [-128, 127, 0], [127, -128, 0]),
        # uint64 wraparound: the int64 image of the difference.
        (np.uint64, [0, 2**64 - 1, 2**63, 1], [2**64 - 1, 0, 0, 2**63]),
        (np.int64, [-2**63, 2**63 - 1, 0], [2**63 - 1, -2**63, -2**63]),
        (np.uint8, [0, 255, 7], [255, 0, 7]),
        (np.bool_, [True, False, True], [False, True, True]),
    ])
    def test_integer_boundaries(self, dtype, target, base):
        target = np.array(target, dtype=dtype)
        base = np.array(base, dtype=dtype)
        self._assert_same_encoding(target, base)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32,
                                       np.float64])
    def test_float_bit_patterns(self, dtype):
        specials = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                             1.0, np.finfo(dtype).tiny, -1.5],
                            dtype=dtype)
        self._assert_same_encoding(specials, specials[::-1].copy())
        self._assert_same_encoding(specials, np.zeros_like(specials))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.float32])
    def test_all_equal_and_all_outlier_chunks(self, rng, dtype):
        dtype = np.dtype(dtype)
        base = _cells(rng, dtype, (40, 50))
        self._assert_same_encoding(base.copy(), base)
        # Every cell changed by a full-width amount: no small codes.
        self._assert_same_encoding(_cells(rng, dtype, (40, 50)), base)

    @staticmethod
    def _assert_same_encoding(target, base):
        reference = _reference_plan(target, base)
        codes, spans, _ = _run_list(target, base)
        assert np.array_equal(_expanded(target.size, codes, spans),
                              reference.codes)
        _assert_family_agrees(target, base)

    @pytest.mark.parametrize("max_bits", range(65))
    def test_split_pack_at_every_width(self, rng, max_bits):
        # Codes of every exact bit length up to max_bits, zero runs
        # included, as the XOR codes of float64 cells against zeros:
        # each codec's sections through the entry equal the numpy
        # packers', at whichever split the cost search picks.
        widths = rng.integers(0, max_bits + 1, 1500)
        widths[rng.random(1500) < 0.5] = 0
        widths[rng.random(1500) < 0.02] = max_bits
        codes = np.array(
            [int(rng.integers(1 << (w - 1), 1 << w, dtype=np.uint64))
             if w else 0 for w in widths.tolist()], dtype=np.uint64)
        target, base = codes.view(np.float64), np.zeros(codes.size)
        frame = len(pack_frame(base, "xor"))
        for name in ("dense", "sparse", "hybrid"):
            codec = get_delta_codec(name)
            payload = codec.encode(target, base)
            sealed = name == "hybrid"
            assert payload[frame + sealed:] == _pack(codes, codec.layout), \
                name

    @pytest.mark.parametrize("small_bits", range(65))
    def test_pack_runs_at_every_split(self, rng, pack_runs_probe,
                                      small_bits):
        # The entry's pack on its own, at a split the cost search may
        # not pick: codes of every exact bit length 0..64, zero runs
        # included, against the numpy packers.
        widths = rng.integers(0, 65, 1500)
        widths[rng.random(1500) < 0.5] = 0
        codes = np.array(
            [int(rng.integers(1 << (w - 1), 1 << w, dtype=np.uint64))
             if w else 0 for w in widths.tolist()], dtype=np.uint64)
        stats = CodeStats.from_codes(codes)
        is_outlier = np.array([int(c) >> small_bits > 0 for c in codes])
        positions = np.flatnonzero(is_outlier)
        values = codes[positions]
        value_bits = stats.max_bits if positions.size else 0
        expected = (
            bitpack.pack_unsigned(np.where(is_outlier, np.uint64(0), codes),
                                  small_bits),
            bitpack.pack_unsigned(positions, 11),
            bitpack.pack_unsigned(values, value_bits))
        # The same codes as one run over every cell, and as the run
        # list of their nonzero stretches (gaps of zeros left out).
        nonzero = np.flatnonzero(np.diff(np.r_[0, codes != 0, 0]))
        first, stop = nonzero[::2], nonzero[1::2]
        run_lists = [
            (codes, np.array([[0, codes.size]], dtype=np.int64)),
            (codes[codes != 0], np.stack([first, stop - first], axis=1))]
        for run_codes, spans in run_lists:
            assert _pack_runs(pack_runs_probe, run_codes, spans,
                              codes.size, small_bits, positions.size,
                              value_bits) == expected
            # A count the codes overrun is refused, not written past.
            if positions.size:
                assert _pack_runs(pack_runs_probe, run_codes, spans,
                                  codes.size, small_bits,
                                  positions.size - 1, value_bits) is None


#: Windows of a (12, 70) canvas for the run-list tests: rows of 37
#: cells end mid-run for every cell width (runs are 8..64 cells).
_RUN_LAYOUTS = {
    "contiguous": lambda canvas: np.ascontiguousarray(canvas[1:11, 3:40]),
    "row-strided": lambda canvas: canvas[1:11, 3:40],
    "3-d": lambda canvas: canvas.reshape(3, 4, 70)[:, 1:3, 5:60],
}


def _top_bit_flipped(cells: np.ndarray) -> np.ndarray:
    """``cells`` with the highest bit of every cell flipped: codes of
    the cell's full width (64 for 8-byte cells)."""
    if cells.dtype.kind == "b":
        return ~cells
    image = cells.view(f"u{cells.itemsize}")
    top = np.array(1 << (8 * cells.itemsize - 1), dtype=image.dtype)
    return (image ^ top).view(cells.dtype)


#: Target canvases derived from a base canvas, by how many runs differ.
_RUN_CASES = {
    "no-run-changed": lambda rng, base: base.copy(),
    "one-cell-per-row": lambda rng, base: _one_cell_per_row(base),
    "row-tails-changed": lambda rng, base: _one_cell_per_row(base, 39),
    "every-run-changed": lambda rng, base: _top_bit_flipped(base),
    "random": lambda rng, base: _cells(rng, base.dtype, base.shape),
}


def _one_cell_per_row(base: np.ndarray, column: int = 20) -> np.ndarray:
    """``base`` with one column flipped: column 39 is the last cell of
    every row of the 2-d windows, inside the tail shorter than a run
    that each row of the row-strided window ends in."""
    target = base.copy()
    target[:, column] = _top_bit_flipped(target[:, column])
    return target


def _changed_spans(target: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The ``(first cell, cell count)`` rows of the maximal stretches
    of cells whose bytes differ, in row-major order."""
    def cell_bytes(cells):
        cells = np.ascontiguousarray(cells)
        return cells.reshape(-1).view(np.uint8).reshape(cells.size, -1)

    changed = (cell_bytes(target) != cell_bytes(base)).any(axis=1)
    edges = np.flatnonzero(np.diff(np.r_[0, changed.astype(np.int8), 0]))
    first, stop = edges[::2], edges[1::2]
    return np.stack([first, stop - first], axis=1).astype(np.int64)


@pytest.mark.skipif(not native.available(),
                    reason="native kernels did not compile")
class TestRunList:
    """The encode call's analysis pass keeps only the runs that differ
    and its pack walks only them: held to the numpy oracle — full code
    array, every payload — for every cell kind the kernel knows, chunk
    layout and share of changed runs; with and without the base
    adopting the target."""

    @pytest.mark.parametrize("case", sorted(_RUN_CASES))
    @pytest.mark.parametrize("layout", sorted(_RUN_LAYOUTS))
    @pytest.mark.parametrize("cell", sorted(native._CELL_KINDS))
    def test_matches_numpy(self, rng, cell, layout, case):
        dtype = np.dtype("?" if cell == "b1" else cell)
        base_canvas = _cells(rng, dtype, (12, 70))
        target_canvas = _RUN_CASES[case](rng, base_canvas)
        window = _RUN_LAYOUTS[layout]
        target, base = window(target_canvas), window(base_canvas)
        reference = _reference_plan(target, base)
        codes, spans, _ = _run_list(target, base)
        # The run list holds exactly the cells whose bytes differ, each
        # maximal stretch of them one span: an unchanged chunk codes
        # nothing, and (bool aside, whose differing bytes may agree in
        # truth) no coded cell is code 0.
        expected = _changed_spans(target, base)
        assert np.array_equal(spans, expected)
        assert codes.size == expected[:, 1].sum()
        if case == "no-run-changed":
            assert codes.size == 0 and spans.shape == (0, 2)
        if case in ("one-cell-per-row", "row-tails-changed"):
            assert codes.size == target.size // target.shape[-1]
        if dtype.kind != "b":
            assert codes.all()
        assert np.array_equal(_expanded(target.size, codes, spans),
                              reference.codes)
        if case == "every-run-changed" and dtype.itemsize == 8:
            assert reference.stats.max_bits == 64
        _assert_family_agrees(target, base)

    @pytest.mark.parametrize("kernels", ["native", "numpy"])
    @pytest.mark.parametrize("layout", sorted(_RUN_LAYOUTS))
    @pytest.mark.parametrize("cell", ["i4", "u1", "f8", "b1"])
    def test_adopt_leaves_the_base_holding_the_target(
            self, rng, cell, layout, kernels):
        dtype = np.dtype("?" if cell == "b1" else cell)
        base_canvas = _cells(rng, dtype, (12, 70))
        target_canvas = _one_cell_per_row(base_canvas)
        target_canvas[5] = _cells(rng, dtype, (70,))
        window = _RUN_LAYOUTS[layout]
        target = window(target_canvas)
        original = window(base_canvas).copy()
        canvas = base_canvas.copy()
        base = window(canvas)
        codecs = _code_array_codecs()
        encode = chunk_encode(dtype, target.shape, codecs)
        with native.disabled():
            expected = encode(target, original, False,
                              pack=native.ENCODE_SIZE).sizes
        with native.disabled() if kernels == "numpy" \
                else contextlib.nullcontext():
            # Every codec sizes in the adopting pass; the first packs.
            parts, sizes = codecs[0].packed(encode, 0, target, base,
                                            adopt=True)
        assert b"".join(parts) == reference_encode(codecs[0].name, target,
                                                   original)
        assert sizes == expected
        # The window holds the target, bit for bit; nothing outside it
        # changed.
        assert base.tobytes() == np.ascontiguousarray(target).tobytes()
        outside = np.ones(canvas.shape, dtype=bool)
        window(outside)[...] = False
        assert canvas[outside].tobytes() == base_canvas[outside].tobytes()

    @pytest.mark.parametrize("kernels", ["native", "numpy"])
    def test_adopt_needs_a_writable_base(self, rng, kernels):
        base = np.zeros(64, dtype=np.int32)
        base.setflags(write=False)
        encode = chunk_encode(base.dtype, base.shape, _code_array_codecs())
        with native.disabled() if kernels == "numpy" \
                else contextlib.nullcontext():
            with pytest.raises(ValueError, match="writable"):
                encode(base + 1, base, True)
        with pytest.raises(ValueError, match="writable"):
            CodePlan.build(base + 1, base, adopt=True)

    @pytest.mark.parametrize("layout", ["contiguous", "row-strided"])
    @pytest.mark.parametrize("cell", ["u1", "i2", "u4", "i8", "b1", "f2",
                                      "f4", "f8"])
    def test_run_list_fits_its_scratch(self, rng, cell, layout):
        # Every other cell changed: the most spans a chunk can have —
        # n // 2 + 1 of them, n odd — inside the space the pipeline
        # lends the one-call encode, up to its last word and not a word
        # past it.
        dtype = np.dtype("?" if cell == "b1" else cell)
        base_canvas = _cells(rng, dtype, (12, 70))
        target_canvas = base_canvas.copy()
        # 11 rows of 37 cells: an odd count.
        base, target = base_canvas[1:12, 3:40], target_canvas[1:12, 3:40]
        if layout == "contiguous":
            base, target = base.copy(), target.copy()
        flat = np.ascontiguousarray(target).reshape(-1)
        flat[::2] = _top_bit_flipped(flat[::2])
        target[...] = flat.reshape(target.shape)
        n = target.size
        assert n % 2 == 1
        codecs = (get_delta_codec("hybrid"), get_delta_codec("sparse"))
        encode = chunk_encode(dtype, target.shape, codecs)
        canary = np.uint64(0xA5A5A5A5A5A5A5A5)
        space = np.full(encode.words + 4, canary, dtype=np.uint64)
        planned = encode_chunk(encode, target, base, space=space)
        codes, spans = _read_run_list(space, encode.words, n)
        assert spans.shape == (n // 2 + 1, 2)
        assert codes.size == n // 2 + 1
        reference = _reference_plan(target, base)
        assert np.array_equal(_expanded(n, codes, spans), reference.codes)
        # The last span's cell count (1) is the space's last word.
        assert space[encode.words - 1] == 1
        assert (space[encode.words:] == canary).all()
        expected = choose_encoding(target, base, candidates=codecs)
        assert (planned.decision.delta_codec, planned.decision.payload) \
            == (expected.delta_codec, expected.payload)

    @pytest.mark.parametrize("short", ["outliers", "codes"])
    def test_stale_histogram_writes_nothing_out_of_bounds(
            self, pack_runs_probe, short):
        # The pack sized for one outlier fewer than the codes hold, or
        # told it holds one code fewer than the spans name: refused at
        # the overrun, every canary byte beyond the sized sections
        # intact.
        codes = np.array([0, 5, 900, 0, 700, 3], dtype=np.uint64)
        spans = [[2, 2], [9, 4]]
        n, small_bits, value_bits = 16, 3, 10
        outliers = 1 if short == "outliers" else 2
        ncodes = codes.size - (short == "codes")
        assert _pack_runs(pack_runs_probe, codes, spans, n, small_bits,
                          outliers, value_bits, ncodes=ncodes) is None
        assert _pack_runs(pack_runs_probe, codes, spans, n, small_bits, 2,
                          value_bits) is not None

    @pytest.mark.parametrize("spans", [
        [[4, 2], [2, 2]],    # descending
        [[0, 4], [3, 2]],    # overlapping
        [[14, 4]],           # past the last cell
        [[0, -1]],           # negative count
        [[0, 4], [8, 4]],    # more codes than given
    ], ids=["descending", "overlapping", "past-the-end", "negative",
            "too-many-codes"])
    def test_malformed_spans_are_refused(self, pack_runs_probe, spans):
        codes = np.arange(1, 7, dtype=np.uint64)
        assert _pack_runs(pack_runs_probe, codes, spans, 16, 3, 3,
                          3) is None


def _decide_with_oracle(manager: VersionedStorageManager) -> None:
    """Shadow ``encoder.encode_chunk`` with the two-pass oracle, under
    the same policy-to-candidates rule the pipeline applies."""
    encoder = manager.encoder

    def encode_chunk(target, base, compressor, *, adopt=False):
        if encoder.delta_policy == "materialize":
            base = None
        candidates = (get_delta_codec(encoder.delta_codec_name),) \
            if encoder.delta_policy == "chain" else None
        decision = choose_encoding(target, base, compressor=compressor,
                                   candidates=candidates)
        if adopt:
            base[...] = target
        return decision

    encoder.encode_chunk = encode_chunk


class TestPipelinePlanner:
    @pytest.mark.parametrize("delta_policy", ["auto", "chain",
                                              "materialize"])
    def test_store_fingerprint_matches_oracle(self, tmp_path, rng,
                                              delta_policy):
        datas = [rng.integers(0, 1 << 30, (40, 40)).astype(np.int64)]
        for _ in range(3):
            datas.append(datas[-1]
                         + rng.integers(0, 3, (40, 40)).astype(np.int64))
        prints = {}
        for planner in (True, False):
            root = tmp_path / f"planner-{planner}"
            manager = VersionedStorageManager(
                root, chunk_bytes=4000, delta_policy=delta_policy)
            if not planner:
                _decide_with_oracle(manager)
            manager.create_array("a", ArraySchema.simple(
                datas[0].shape, dtype=datas[0].dtype))
            for data in datas:
                manager.insert("a", data)
            prints[planner] = manager.fingerprint("a")
            stats = manager.stats
            if planner:
                assert stats.encode_plans == stats.encode_tasks
            else:
                assert stats.encode_plans == 0
                assert stats.codec_encodes_avoided == 0
                assert stats.planner_bytes_saved == 0
            manager.close()
        assert prints[True] == prints[False]

    def test_chain_policy_avoids_materialized_encodes(self, tmp_path,
                                                      rng):
        base = rng.integers(0, 100, (64, 64)).astype(np.int64)
        manager = VersionedStorageManager(
            tmp_path / "s", chunk_bytes=8192, delta_policy="chain")
        manager.create_array("a", ArraySchema.simple(
            base.shape, dtype=base.dtype))
        manager.insert("a", base)
        manager.insert("a", base + 1)
        stats = manager.stats
        # Every delta task proved the hybrid smaller than materializing
        # without producing the materialized payload.
        assert stats.codec_encodes_avoided > 0
        assert stats.planner_bytes_saved > 0
        manager.close()
