"""The encode face, in C and in its numpy form, against the oracle.

:class:`repro.core.native.ChunkEncode` (built by
:func:`repro.delta.base.chunk_encode`) makes a chunk's whole encode in
one call: the analysis pass (adopting the target into the base when
asked), every representation sized off the width histogram, and one
packed behind its prefix — the cheapest, a named candidate whatever its
size, or none.  Its C call must give exactly what its numpy form gives
under :func:`repro.core.native.disabled` and what the literal "try
both" oracle (:func:`encoding_oracle.choose_encoding`) decides, in all
three modes: the race through :func:`repro.delta.auto.encode_chunk`
(winner, payload bytes, ``encodes_avoided``, ``bytes_saved``), the
forced pack (``codec.encode``) and the size-only mode (the
Materialization Matrix's price) — under both store compressors, for
every candidate list of store codecs, every cell kind the kernels know,
contiguous cells and 2-d and 3-d canvas windows, all-equal and
all-changed chunks, width-64 codes, one-cell chunks and ties, recording
no decline.  Where the C entry does not take a call, the face runs its
numpy form and says why.
"""

from __future__ import annotations

import contextlib
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encoding_oracle import choose_encoding, reference_encode
from repro.compression import LempelZivCodec
from repro.core import native
from repro.core.errors import CodecError
from repro.delta import codes as code_store
from repro.delta.auto import encode_chunk
from repro.delta.base import chunk_encode
from repro.delta.codes import CodePlan
from repro.delta.registry import get_delta_codec
from repro.materialize import matrix

pytestmark = pytest.mark.skipif(not native.available(),
                                reason="native kernels did not compile")

#: Every cell kind the kernels know, as a dtype.
CELLS = {cell: np.dtype("?" if cell == "b1" else cell)
         for cell in sorted(native._CELL_KINDS)}

STORE_CODECS = ("dense", "sparse", "hybrid", "hybrid+lz")

#: The candidate lists the store and the planner's callers use.
CANDIDATES = [("hybrid",), ("sparse",), ("dense",), ("hybrid", "sparse"),
              ("hybrid+lz",), ("hybrid", "hybrid+lz", "sparse")]

#: Every subset, in every order, of the store's codecs.
EVERY_LIST = [names for k in range(1, len(STORE_CODECS) + 1)
              for names in itertools.permutations(STORE_CODECS, k)]

COMPRESSORS = {"none": None, "lz": LempelZivCodec()}

CANARY = 0xA5 * 0x0101010101010101


@pytest.fixture(autouse=True)
def _fresh_declines(monkeypatch):
    """Every test starts with no decline reported, so each one it
    causes is reported again."""
    monkeypatch.setattr(native, "_declined", set())


def _cells(rng, dtype: np.dtype, shape) -> np.ndarray:
    """Uniformly random bit patterns of ``dtype`` (NaNs, infinities and
    both zeros included for floats)."""
    if dtype.kind == "b":
        return rng.integers(0, 2, size=shape).astype(dtype)
    raw = rng.integers(0, 256, size=(*shape, dtype.itemsize),
                       dtype=np.uint8)
    return raw.view(dtype).reshape(shape)


def _top_bit_flipped(cells: np.ndarray) -> np.ndarray:
    """``cells`` with each cell's highest bit flipped: codes of the
    cell's full width (64 bits for 8-byte cells)."""
    if cells.dtype.kind == "b":
        return np.asarray(~cells)
    image = cells.view(f"u{cells.itemsize}")
    top = np.array(1 << (8 * cells.itemsize - 1), dtype=image.dtype)
    # (A 0-d operation returns a scalar.)
    return np.asarray(image ^ top).view(cells.dtype)


#: Changed versions of a base chunk, by share of changed cells.
PROFILES = {
    "all-equal": lambda rng, base: base.copy(),
    "one-cell": lambda rng, base: _flip_some(rng, base, 1),
    "sparse": lambda rng, base: _flip_some(rng, base, max(1, base.size // 9)),
    "all-changed": lambda rng, base: _top_bit_flipped(base),
    "random": lambda rng, base: _cells(rng, base.dtype, base.shape),
}


def _flip_some(rng, base: np.ndarray, count: int) -> np.ndarray:
    """``base`` with ``count`` cells' low bit flipped and one of them
    changed by its full width."""
    target = base.copy()
    flat = target.reshape(-1)
    hits = rng.choice(flat.size, size=min(count, flat.size), replace=False)
    image = flat.view(np.uint8).reshape(flat.size, -1)
    image[hits, 0] ^= 1
    flat[hits[:1]] = _top_bit_flipped(flat[hits[:1]])
    return target


#: Where a chunk's cells sit: as they are, or as a window of a larger
#: canvas — for a 2-d chunk its rows a canvas row apart (read in
#: place), for a 3-d chunk rows more than one stride apart (the kernel
#: reads a copy).
PLACEMENTS = ("contiguous", "window")


def _placed(rng, cells: np.ndarray, placement: str):
    """``(canvas, window)``: ``cells`` placed as ``placement`` says (a
    chunk of fewer than two dimensions stays put)."""
    if placement == "contiguous" or cells.ndim < 2:
        return cells, cells
    canvas = _cells(rng, cells.dtype,
                    tuple(n + 2 for n in cells.shape[:-1])
                    + (cells.shape[-1] + 5,))
    window = canvas[tuple(slice(1, 1 + n) for n in cells.shape)]
    window[...] = cells
    return canvas, window


def _encode(names, target, base, compressor=None, adopt=False):
    """:func:`encode_chunk` on the pair, with a canary past the space
    it is lent that must survive."""
    encode = chunk_encode(target.dtype, target.shape,
                          tuple(map(get_delta_codec, names)))
    space = np.full(encode.words + 2, CANARY, dtype=np.uint64)
    done = encode_chunk(encode, target, base, compressor, adopt=adopt,
                        space=space)
    assert (space[encode.words:] == CANARY).all()
    return done


def _assert_one_call_is_the_numpy_form(rng, target, base, names, adopt, *,
                                       placement=("contiguous",) * 2,
                                       compressor="none"):
    """The race on ``target`` against ``base`` (each placed as
    ``placement`` says) in one C call equals the face's numpy form and
    the oracle — winner, payload, ``encodes_avoided``, ``bytes_saved``
    — records no decline, and leaves the base canvas holding the target
    (``adopt``) or untouched."""
    _, target_window = _placed(rng, target, placement[0])
    base_canvas, base_window = _placed(rng, base.copy(), placement[1])
    before = base_canvas.copy()
    codecs = tuple(map(get_delta_codec, names))
    compressor = COMPRESSORS[compressor]
    with native.disabled():
        numpy_form = _encode(names, target, base.copy(), compressor, adopt)
    oracle = choose_encoding(target, base, compressor=compressor,
                             candidates=codecs)
    declined = set(native._declined)
    done = _encode(names, target_window, base_window, compressor, adopt)
    assert not {reason for reason in native._declined - declined
                if reason[0] == "encode_chunk"}
    winner = done.decision.delta_codec
    assert winner == numpy_form.decision.delta_codec == oracle.delta_codec
    assert done.decision.payload == numpy_form.decision.payload \
        == oracle.payload
    assert done.decision.size == len(done.decision.payload)
    assert (done.encodes_avoided, done.bytes_saved) == (
        numpy_form.encodes_avoided, numpy_form.bytes_saved)
    if adopt:
        # The window holds the target bit for bit; nothing else moved.
        assert base_window.tobytes() == target.tobytes()
        base_window[...] = base
    assert base_canvas.tobytes() == before.tobytes()
    return winner


def _assert_modes_are_the_numpy_form(target, base, names):
    """The forced pack of every candidate and the size-only mode, in C,
    equal the face's numpy form — winner, payload, sizes — and the
    oracle: a forced pack is the codec's payload (a bare candidate's
    sections, sealed, are), a size its length (a bare one's, its
    sections')."""
    codecs = tuple(map(get_delta_codec, names))
    encode = chunk_encode(target.dtype, target.shape, codecs)
    for pack in (native.ENCODE_SIZE, *range(len(codecs))):
        done = encode(target, base, False, pack=pack)
        with native.disabled():
            assert encode(target, base, False, pack=pack) == done
        if pack == native.ENCODE_SIZE:
            assert done.payload == b""
            continue
        codec = codecs[pack]
        expected = reference_encode(codec.name, target, base)
        if encode.bare[pack]:
            assert done.sizes[pack] == len(done.payload)
            assert b"".join([encode.frame,
                             *codec._seal([done.payload])]) == expected
        else:
            assert done.payload == expected
            assert done.sizes[pack] == len(expected)


@st.composite
def _cases(draw):
    dtype = CELLS[draw(st.sampled_from(sorted(CELLS)))]
    shape = draw(st.sampled_from([(1,), (1, 1), (7,), (64,), (9, 13),
                                  (33, 70), (3, 5, 7)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = _cells(rng, dtype, shape)
    target = PROFILES[draw(st.sampled_from(sorted(PROFILES)))](rng, base)
    placement = (draw(st.sampled_from(PLACEMENTS)),
                 draw(st.sampled_from(PLACEMENTS)))
    return (rng, target, base, draw(st.sampled_from(EVERY_LIST)),
            draw(st.booleans()), placement,
            draw(st.sampled_from(sorted(COMPRESSORS))))


class TestOneCallIsTheNumpyForm:
    @settings(max_examples=300, deadline=None)
    @given(case=_cases())
    def test_property(self, case):
        rng, target, base, names, adopt, placement, compressor = case
        _assert_one_call_is_the_numpy_form(rng, target, base, names, adopt,
                                           placement=placement,
                                           compressor=compressor)
        _assert_modes_are_the_numpy_form(target, base, names)

    @pytest.mark.parametrize("adopt", [False, True], ids=["keep", "adopt"])
    @pytest.mark.parametrize("placement", itertools.product(PLACEMENTS,
                                                            PLACEMENTS),
                             ids="-".join)
    @pytest.mark.parametrize("shape", [(12, 70), (3, 4, 35)], ids=str)
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_every_cell_kind(self, rng, cell, profile, shape, placement,
                             adopt):
        base = _cells(rng, CELLS[cell], shape)
        target = PROFILES[profile](rng, base)
        for names in CANDIDATES:
            _assert_one_call_is_the_numpy_form(
                rng, target, base, names, adopt, placement=placement)

    @pytest.mark.parametrize("compressor", sorted(COMPRESSORS))
    @pytest.mark.parametrize("profile", ["one-cell", "sparse", "random"])
    def test_every_candidate_list(self, rng, profile, compressor):
        base = _cells(rng, np.dtype(np.int16), (3, 5, 7))
        target = PROFILES[profile](rng, base)
        for names in EVERY_LIST:
            for adopt in (False, True):
                _assert_one_call_is_the_numpy_form(
                    rng, target, base, names, adopt,
                    placement=("window", "window"), compressor=compressor)

    @pytest.mark.parametrize("cell", ["i8", "u8", "f8"])
    def test_width_64_codes(self, rng, cell):
        base = _cells(rng, CELLS[cell], (16, 20))
        target = _top_bit_flipped(base)
        target[3] = base[3]
        with native.disabled():
            assert CodePlan.build(target, base).stats.width_counts[64] \
                == 300
        assert _assert_one_call_is_the_numpy_form(
            rng, target, base, ("dense",), True,
            placement=("window", "window")) is None
        for names in CANDIDATES:
            _assert_one_call_is_the_numpy_form(rng, target, base, names,
                                               False)

    @pytest.mark.parametrize("shape", [(1,), (1, 1), ()])
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_one_cell_chunks(self, rng, cell, shape):
        base = _cells(rng, CELLS[cell], shape)
        for target in (base.copy(), _top_bit_flipped(base)):
            for names in CANDIDATES:
                for adopt in (False, True):
                    _assert_one_call_is_the_numpy_form(
                        rng, target, base, names, adopt)

    def test_materialized_wins_a_tie(self, rng):
        # 16 int8 cells, three codes of at most 7 bits: dense and
        # sparse both cost exactly the materialized 16 cells plus
        # header, and a later representation must be strictly smaller.
        base = np.zeros(16, dtype=np.int8)
        target = base.copy()
        target[[2, 9, 15]] = [-64, 5, 1]
        for names in [("dense",), ("sparse",), ("dense", "sparse")]:
            assert _assert_one_call_is_the_numpy_form(
                rng, target, base, names, False) is None

    @pytest.mark.parametrize("names", [("sparse", "dense"),
                                       ("dense", "sparse")])
    def test_earlier_candidate_wins_a_tie(self, rng, names):
        # 14 int8 cells, one code of 6 bits: dense and sparse both
        # take 12 bytes past the frame, a byte less than the
        # materialized form.
        base = np.zeros(14, dtype=np.int8)
        target = base.copy()
        target[4] = 16
        assert _assert_one_call_is_the_numpy_form(
            rng, target, base, names, False) == names[0]

    def test_a_candidate_named_twice(self, rng):
        base = _cells(rng, np.dtype(np.int32), (9, 13))
        target = _flip_some(rng, base, 5)
        for names in [("hybrid", "hybrid"), ("sparse", "hybrid", "sparse"),
                      ("hybrid+lz", "hybrid", "hybrid+lz")]:
            _assert_one_call_is_the_numpy_form(rng, target, base, names,
                                               True)


class TestModes:
    """The forced pack is ``codec.encode``; the size-only mode writes
    no payload and prices what the numpy forms price."""

    @settings(max_examples=150, deadline=None)
    @given(case=_cases())
    def test_forced_pack_is_codec_encode(self, case):
        rng, target, base, _, adopt, placement, _ = case
        _, target_window = _placed(rng, target, placement[0])
        _, base_window = _placed(rng, base.copy(), placement[1])
        for name in STORE_CODECS:
            codec = get_delta_codec(name)
            with native.disabled():
                expected = codec.encode(target, base)
            assert codec.encode(target_window, base_window) == expected
            encode = chunk_encode(target.dtype, target.shape,
                                  tuple(map(get_delta_codec, STORE_CODECS)))
            index = STORE_CODECS.index(name)
            parts, sizes = codec.packed(encode, index, target_window,
                                        base_window)
            assert b"".join(parts) == expected
            if codec.fold_layout is not None:
                assert sizes[index] == len(expected)

    def test_a_forced_pack_may_outgrow_the_materialized_form(self, rng):
        base = _cells(rng, np.dtype(np.int64), (16, 16))
        target = _top_bit_flipped(base)
        codec = get_delta_codec("sparse")
        payload = codec.encode(target, base)
        assert len(payload) > base.nbytes
        with native.disabled():
            assert codec.encode(target, base) == payload

    @settings(max_examples=150, deadline=None)
    @given(case=_cases())
    def test_size_only_is_the_hybrid_sections(self, case):
        rng, target, base, *_ = case
        flat_target = target.reshape(-1)
        flat_base = base.reshape(-1)
        encode = native.chunk_encode(target.dtype, flat_target.shape, b"",
                                     b"", ("hybrid",),
                                     matrix._HYBRID_SECTIONS)
        space = np.full(encode.words, CANARY, dtype=np.uint64)
        done = encode(flat_target, flat_base, False, space,
                      pack=native.ENCODE_SIZE)
        assert done.payload == b""
        with native.disabled():
            assert encode(flat_target, flat_base, False,
                          pack=native.ENCODE_SIZE) == done
        plan = CodePlan.build(flat_target, flat_base)
        assert done.sizes == (code_store.section_size(
            plan.stats, code_store.SMALL | code_store.TABLE)[0],)
        assert (space[:encode.words - native.scratch_cells(
            flat_target.size)] == CANARY).all()

    @pytest.mark.parametrize("sample_fraction", [None, 0.1, 0.003])
    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32,
                                       np.int64], ids=str)
    def test_matrix_prices_are_the_numpy_forms(self, rng, dtype,
                                               sample_fraction):
        dtype = np.dtype(dtype)
        frames = [_cells(rng, dtype, (48, 40))]
        for _ in range(4):
            frames.append(_flip_some(rng, frames[-1], 150))
        contents = dict(enumerate(frames, start=1))
        built = matrix.MaterializationMatrix.build(
            contents, sample_fraction=sample_fraction)
        with native.disabled():
            numpy_built = matrix.MaterializationMatrix.build(
                contents, sample_fraction=sample_fraction)
        assert np.array_equal(built.costs, numpy_built.costs)

    def test_a_buffer_too_small_is_refused_before_it_is_written(self, rng):
        """The call sizes what it would write and refuses a buffer
        shorter than that, before a byte of it is written."""
        base = _cells(rng, np.dtype(np.int32), (8, 8))
        codecs = (get_delta_codec("dense"),)
        encode = native.chunk_encode(base.dtype, base.shape, b"h",
                                     b"frame", codecs,
                                     (codecs[0].fold_layout,))
        space = np.full(encode.words, CANARY, dtype=np.uint64)
        # Lend the call a single word of payload room, the run list
        # right behind it.
        encode._payload_bytes = 8
        with pytest.raises(RuntimeError, match="payload buffer too small"):
            encode(_top_bit_flipped(base), base, False, space, pack=0)
        assert space[0] == CANARY


def _assert_the_numpy_form_runs(rng, dtype, shape, names, reason):
    """A face the C entry does not take: every mode lands the oracle's
    bytes without a compiled call, and says ``reason`` once."""
    lib = native._load()
    calls = []
    real = lib.repro_encode_chunk
    lib.repro_encode_chunk = lambda *args: calls.append(args) or real(*args)
    try:
        base = _cells(rng, np.dtype(dtype).newbyteorder("="), shape) \
            .astype(dtype)
        target = _flip_some(rng, base, 3) if base.size else base.copy()
        codecs = tuple(map(get_delta_codec, names))
        encode = chunk_encode(base.dtype, base.shape, codecs)
        done = _encode(names, target, base.copy(), adopt=True)
        oracle = choose_encoding(target, base, candidates=codecs)
        assert (done.decision.delta_codec, done.decision.payload) == (
            oracle.delta_codec, oracle.payload)
        for index, codec in enumerate(codecs):
            assert b"".join(codec.packed(encode, index, target, base)[0]) \
                == reference_encode(codec.name, target, base)
        sizes = encode(target, base, False, pack=native.ENCODE_SIZE).sizes
        assert len(sizes) == len(codecs)
    finally:
        lib.repro_encode_chunk = real
    assert calls == []
    assert native._declined == {("encode_chunk", reason)}


class TestWhatItTakes:
    """A face exists for every cell type a delta is defined for; where
    the C entry does not take a call the face runs its numpy form, to
    the oracle's bytes, and says why; caller errors raise before
    anything is written, in either form."""

    def test_kernels_off(self, rng):
        with native.disabled():
            _assert_the_numpy_form_runs(rng, np.int32, (8, 8),
                                        ("hybrid", "sparse"),
                                        "kernels disabled or unavailable")

    @pytest.mark.parametrize("dtype, shape, names, reason", [
        (">i4", (8, 8), ("hybrid", "sparse"), "byte-swapped dtype >i4"),
        (">u2", (3, 4, 5), ("dense",), "byte-swapped dtype >u2"),
        (np.int32, (0, 8), ("hybrid", "sparse"), "empty"),
        (np.int16, (9, 13), ("hybrid", "sparse", "dense") * 3,
         "not 1 to 8 candidates"),
    ], ids=["byte-swapped", "byte-swapped-3-d", "empty", "nine"])
    def test_what_the_c_entry_does_not_take(self, rng, dtype, shape, names,
                                            reason):
        _assert_the_numpy_form_runs(rng, dtype, shape, names, reason)

    def test_big_endian_host(self, rng, monkeypatch):
        chunk_encode.cache_clear()
        monkeypatch.setattr(sys, "byteorder", "big")
        try:
            _assert_the_numpy_form_runs(rng, np.int32, (8, 8),
                                        ("hybrid+lz", "hybrid"),
                                        "big-endian host")
        finally:
            monkeypatch.setattr(sys, "byteorder", "little")
            chunk_encode.cache_clear()

    def test_no_face_for_a_cell_type_without_a_delta(self):
        codecs = (get_delta_codec("hybrid"),)
        for dtype in (np.complex64, ">f4", "U4"):
            with pytest.raises(CodecError, match="unsupported cell dtype"):
                chunk_encode(np.dtype(dtype), (8, 8), codecs)
        with pytest.raises(CodecError, match="unsupported cell dtype"):
            native.chunk_encode(np.dtype(np.complex64), (8, 8), b"", b"",
                                ("hybrid",), matrix._HYBRID_SECTIONS)
        assert native._declined == set()

    @pytest.mark.parametrize("kernels", ["native", "numpy"])
    def test_arguments_the_call_refuses(self, rng, kernels):
        base = _cells(rng, np.dtype(np.int32), (8, 8))
        codecs = (get_delta_codec("hybrid"),)
        good = native.chunk_encode(base.dtype, base.shape, b"h", b"frame",
                                   codecs, (codecs[0].fold_layout,))
        bad_layouts = [native.chunk_encode(base.dtype, base.shape, b"h",
                                           b"frame", codecs, (layout,))
                       for layout in (0, native.FOLD_SEALED, 16,
                                      native.FOLD_SMALL | native.FOLD_BARE
                                      | native.FOLD_SEALED)]
        with native.disabled() if kernels == "numpy" \
                else contextlib.nullcontext():
            for encode, pack, materialized in [
                    (good, 1, -1), (good, -3, -1), (good, -1, -2),
                    *[(encode, -1, -1) for encode in bad_layouts]]:
                with pytest.raises(ValueError, match="refuses"):
                    encode(base + 1, base, False, pack=pack,
                           materialized=materialized)

    def test_strided_last_axis(self, rng):
        # A window whose cells are not adjacent is read through a copy,
        # and adopted with a copy.
        canvas = _cells(rng, np.dtype(np.int32), (8, 16))
        base_canvas = canvas.copy()
        target = _flip_some(rng, canvas, 9)[:, ::2]
        _assert_one_call_is_the_numpy_form(rng, target, canvas[:, ::2],
                                        ("hybrid", "sparse"), False)
        base = base_canvas[:, ::2]
        _encode(("hybrid",), target, base, adopt=True)
        assert np.array_equal(base, target)

    def test_arrays_of_another_layout(self, rng):
        base = _cells(rng, np.dtype(np.int32), (8, 8))
        encode = chunk_encode(base.dtype, base.shape,
                              (get_delta_codec("hybrid"),))
        space = np.empty(encode.words, dtype=np.uint64)
        read_only = base.copy()
        read_only.setflags(write=False)
        for target, against, adopt, room in [
                (base.astype(np.int64), base, False, space),
                (base.T.copy()[:4], base[:4], False, space),
                (base, base, False, space[:-1]),
                (base + 1, read_only, True, space)]:
            with pytest.raises(ValueError):
                encode(target, against, adopt, room)
        assert np.array_equal(read_only, base)
