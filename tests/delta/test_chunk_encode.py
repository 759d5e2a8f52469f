"""The one-call encode against the planner and the two-pass oracle.

:class:`repro.core.native.ChunkEncode` (built by
:func:`repro.delta.auto.chunk_encode`) makes a chunk's whole encode in
one compiled call: the analysis pass read in place (adopting the target
into the base when asked), every representation sized off the width
histogram, the winner packed behind its prefix.  It must decide exactly
what :func:`repro.delta.auto.plan_encoding` decides — winner, payload
bytes, ``(encodes_avoided, bytes_saved)`` — and what the literal "try
both" oracle (:func:`encoding_oracle.choose_encoding`) decides, for
every cell kind the kernels know, canvas windows and contiguous cells,
all-equal and all-changed chunks, width-64 codes, one-cell chunks and
ties; and decline, touching nothing, whatever it cannot decide.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encoding_oracle import choose_encoding
from repro.core import native
from repro.delta.auto import chunk_encode, plan_encoding
from repro.delta.registry import get_delta_codec

pytestmark = pytest.mark.skipif(not native.available(),
                                reason="native kernels did not compile")

#: Every cell kind the kernels know, as a dtype.
CELLS = {cell: np.dtype("?" if cell == "b1" else cell)
         for cell in sorted(native._CELL_KINDS)}

#: The candidate lists the store and the planner's callers use.
CANDIDATES = [("hybrid",), ("sparse",), ("dense",), ("hybrid", "sparse")]

CANARY = 0xA5


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


def _placed(rng, cells: np.ndarray, strided: bool):
    """``(canvas, window)``: ``cells`` as they are, or as a window of a
    larger canvas of random cells whose rows sit a canvas row apart."""
    if not strided or cells.ndim != 2:
        return cells, cells
    rows, cols = cells.shape
    canvas = _cells(rng, cells.dtype, (rows + 3, cols + 5))
    window = canvas[1:1 + rows, 2:2 + cols]
    window[...] = cells
    return canvas, window


def _one_call(target, base, candidates, adopt=False):
    """The one call's ``(winner, payload, avoided, saved)``, with a
    canary past the space it is lent that must survive."""
    encode = chunk_encode(target.dtype, target.shape, candidates, "none")
    assert encode is not None
    space = np.full(encode.words + 2, CANARY * 0x0101010101010101,
                    dtype=np.uint64)
    done = encode(target, base, adopt, space)
    assert (space[encode.words:] == CANARY * 0x0101010101010101).all()
    return done


def _assert_one_call_is_the_planner(rng, target, base, candidates,
                                    adopt, *, strided=(False, False)):
    """The one call on ``target`` against ``base`` (each placed in a
    canvas or not) equals the planner and the oracle, and leaves the
    base canvas holding the target (``adopt``) or untouched."""
    _, target_window = _placed(rng, target, strided[0])
    base_canvas, base_window = _placed(rng, base.copy(), strided[1])
    before = base_canvas.copy()
    codecs = tuple(map(get_delta_codec, candidates))
    planned = plan_encoding(target, base, candidates=codecs)
    oracle = choose_encoding(target, base, candidates=codecs)
    winner, payload, avoided, saved = _one_call(
        target_window, base_window, candidates, adopt)
    assert winner == planned.decision.delta_codec == oracle.delta_codec
    assert payload == planned.decision.payload == oracle.payload
    assert (avoided, saved) == (planned.encodes_avoided,
                                planned.bytes_saved)
    if adopt:
        # The window holds the target bit for bit; nothing else moved.
        assert base_window.tobytes() == target.tobytes()
        base_window[...] = base
    assert base_canvas.tobytes() == before.tobytes()
    return winner


@st.composite
def _cases(draw):
    dtype = CELLS[draw(st.sampled_from(sorted(CELLS)))]
    shape = draw(st.sampled_from([(1,), (1, 1), (7,), (64,), (9, 13),
                                  (33, 70)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = _cells(rng, dtype, shape)
    target = PROFILES[draw(st.sampled_from(sorted(PROFILES)))](rng, base)
    return (rng, target, base, draw(st.sampled_from(CANDIDATES)),
            draw(st.booleans()), (draw(st.booleans()), draw(st.booleans())))


class TestOneCallIsThePlanner:
    @settings(max_examples=200, deadline=None)
    @given(case=_cases())
    def test_property(self, case):
        rng, target, base, candidates, adopt, strided = case
        _assert_one_call_is_the_planner(rng, target, base, candidates,
                                        adopt, strided=strided)

    @pytest.mark.parametrize("adopt", [False, True], ids=["keep", "adopt"])
    @pytest.mark.parametrize("strided", [(False, False), (True, True),
                                         (True, False), (False, True)],
                             ids=["contiguous", "windows", "target-window",
                                  "base-window"])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_every_cell_kind(self, rng, cell, profile, strided, adopt):
        base = _cells(rng, CELLS[cell], (12, 70))
        target = PROFILES[profile](rng, base)
        for candidates in CANDIDATES:
            _assert_one_call_is_the_planner(rng, target, base, candidates,
                                            adopt, strided=strided)

    @pytest.mark.parametrize("cell", ["i8", "u8", "f8"])
    def test_width_64_codes(self, rng, cell):
        base = _cells(rng, CELLS[cell], (16, 20))
        target = _top_bit_flipped(base)
        target[3] = base[3]
        assert native.delta_zigzag_stats(target, base)[2][64] == 300
        assert _assert_one_call_is_the_planner(
            rng, target, base, ("dense",), True,
            strided=(True, True)) is None
        for candidates in CANDIDATES:
            _assert_one_call_is_the_planner(rng, target, base, candidates,
                                            False)

    @pytest.mark.parametrize("shape", [(1,), (1, 1), ()])
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_one_cell_chunks(self, rng, cell, shape):
        base = _cells(rng, CELLS[cell], shape)
        for target in (base.copy(), _top_bit_flipped(base)):
            for candidates in CANDIDATES:
                for adopt in (False, True):
                    _assert_one_call_is_the_planner(
                        rng, target, base, candidates, adopt)

    def test_materialized_wins_a_tie(self, rng):
        # 16 int8 cells, three codes of at most 7 bits: dense and
        # sparse both cost exactly the materialized 16 cells plus
        # header, and a later representation must be strictly smaller.
        base = np.zeros(16, dtype=np.int8)
        target = base.copy()
        target[[2, 9, 15]] = [-64, 5, 1]
        for candidates in [("dense",), ("sparse",), ("dense", "sparse")]:
            assert _assert_one_call_is_the_planner(
                rng, target, base, candidates, False) is None

    @pytest.mark.parametrize("candidates", [("sparse", "dense"),
                                            ("dense", "sparse")])
    def test_earlier_candidate_wins_a_tie(self, rng, candidates):
        # 14 int8 cells, one code of 6 bits: dense and sparse both
        # take 12 bytes past the frame, a byte less than the
        # materialized form.
        base = np.zeros(14, dtype=np.int8)
        target = base.copy()
        target[4] = 16
        assert _assert_one_call_is_the_planner(
            rng, target, base, candidates, False) == candidates[0]


class TestDeclines:
    """What the one call cannot decide, it declines before writing
    anything; the planner decides it."""

    def test_kernels_off(self, rng):
        base = _cells(rng, np.dtype(np.int32), (8, 8))
        encode = chunk_encode(base.dtype, base.shape, ("hybrid",), "none")
        space = np.empty(encode.words, dtype=np.uint64)
        target = base + 1
        with native.disabled():
            assert encode(target, base, True, space) is None
        assert not np.array_equal(base, target)

    @pytest.mark.parametrize("candidates, compressor", [
        (("hybrid+lz",), "none"),
        (("hybrid", "hybrid+lz"), "none"),
        (("hybrid",), "lz"),
        (("hybrid", "hybrid"), "none"),
    ], ids=["hybrid+lz", "with-hybrid+lz", "lz-compressor", "twice"])
    def test_no_face_for_what_only_compressing_sizes(self, candidates,
                                                     compressor):
        assert chunk_encode(np.dtype(np.int32), (8, 8), candidates,
                            compressor) is None

    def test_no_face_for_an_unencodable_cell_type(self):
        assert chunk_encode(np.dtype(np.complex64), (8, 8), ("hybrid",),
                            "none") is None
        assert chunk_encode(np.dtype(">i4"), (8, 8), ("hybrid",),
                            "none") is None

    def test_window_read_through_a_copy(self, rng):
        # A 3-d chunk view: its rows are more than one stride apart, so
        # the kernel could only read a copy — and adopt into the copy.
        canvas = _cells(rng, np.dtype(np.int16), (4, 6, 10))
        target_canvas = canvas + 1
        window = np.s_[1:3, 1:4, 2:8]
        base = canvas[window]
        encode = chunk_encode(base.dtype, base.shape, ("hybrid",), "none")
        space = np.empty(encode.words, dtype=np.uint64)
        before = canvas.copy()
        assert encode(target_canvas[window], base, True, space) is None
        assert canvas.tobytes() == before.tobytes()

    def test_arrays_of_another_layout(self, rng):
        base = _cells(rng, np.dtype(np.int32), (8, 8))
        encode = chunk_encode(base.dtype, base.shape, ("hybrid",), "none")
        space = np.empty(encode.words, dtype=np.uint64)
        assert encode(base.astype(np.int64), base, False, space) is None
        assert encode(base.T.copy()[:4], base[:4], False, space) is None
        assert encode(base, base, False, space[:-1]) is None
        read_only = base.copy()
        read_only.setflags(write=False)
        assert encode(base + 1, read_only, True, space) is None

    def test_big_endian_host(self, monkeypatch):
        chunk_encode.cache_clear()
        monkeypatch.setattr(sys, "byteorder", "big")
        try:
            assert chunk_encode(np.dtype(np.int32), (8, 8), ("hybrid",),
                                "none") is None
        finally:
            chunk_encode.cache_clear()
