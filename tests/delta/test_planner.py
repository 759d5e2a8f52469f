"""Property suite: the single-pass planner against the two-pass oracle.

:func:`repro.delta.auto.plan_encoding` must be *decision- and
byte-equivalent* to the paper's literal "try both" form, kept next to
this file as :func:`encoding_oracle.choose_encoding` — same
winner under the same first-strictly-smaller tie-break, same size, same
payload bytes — while encoding at most one representation.  The suite
drives both through randomized dtypes, sparsity profiles, outlier
mixes and degenerate shapes, and separately pins the exactness of the
plan-fed size estimators, the shared width statistics (including the
fused native kernel when it compiled), and — at store level — that a
write pipeline deciding through the oracle lands the same fingerprint.
"""

from __future__ import annotations

import contextlib

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
from repro.delta.auto import CodePlan, chunk_encode, plan_encoding
from repro.delta.codes import (
    _Runs,
    codes_to_delta,
    delta_to_codes,
    hybrid_split_width,
)
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


class TestPlannerMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(pair=version_pairs, candidates=candidate_sets,
           lz_materialized=st.booleans())
    def test_decision_equivalence(self, pair, candidates,
                                  lz_materialized):
        target, base = pair
        compressor = LempelZivCodec() if lz_materialized else None
        oracle = choose_encoding(target, base, compressor=compressor,
                                 candidates=candidates)
        planned = plan_encoding(target, base, compressor=compressor,
                                candidates=candidates)
        assert planned.decision.delta_codec == oracle.delta_codec
        assert planned.decision.size == oracle.size
        assert planned.decision.payload == oracle.payload

    @settings(max_examples=60, deadline=None)
    @given(pair=version_pairs, candidates=candidate_sets)
    def test_no_base_equivalence(self, pair, candidates):
        target, _ = pair
        oracle = choose_encoding(target, None, candidates=candidates)
        planned = plan_encoding(target, None, candidates=candidates)
        assert not planned.decision.is_delta
        assert planned.decision.payload == oracle.payload

    def test_payload_join_is_cached(self, rng):
        base = rng.integers(0, 100, size=(16, 16)).astype(np.int64)
        planned = plan_encoding(base + 1, base)
        assert planned.decision.payload is planned.decision.payload

    def test_savings_accounting(self, rng):
        base = rng.integers(0, 100, size=(64, 64)).astype(np.int64)
        planned = plan_encoding(base + 1, base)
        # Small deltas: a delta codec wins, so the materialized payload
        # and the losing candidate were sized but never produced.
        assert planned.decision.is_delta
        assert planned.encodes_avoided >= 2
        assert planned.bytes_saved > base.nbytes


class TestEstimatorsExact:
    @settings(max_examples=80, deadline=None)
    @given(pair=version_pairs)
    def test_plan_size_equals_encoded_length(self, pair):
        target, base = pair
        plan = CodePlan.build(target, base)
        for codec in (HybridDeltaCodec(), SparseDeltaCodec(),
                      DenseDeltaCodec()):
            size = codec.plan_size(plan)
            assert size is not None
            payload = b"".join(codec.encode_from_plan(plan))
            assert size == len(payload), codec.name

    @settings(max_examples=80, deadline=None)
    @given(pair=version_pairs, kernels=st.booleans())
    def test_every_entry_point_is_the_plan(self, pair, kernels):
        """``encode`` / ``encode_parts`` *are* the planner: same bytes
        as encoding from the plan, and both equal the independent
        sort-and-mask reference."""
        target, base = pair
        with contextlib.nullcontext() if kernels else native.disabled():
            plan = CodePlan.build(target, base)
            for codec in _code_array_codecs():
                payload = codec.encode(target, base)
                assert payload == b"".join(codec.encode_from_plan(plan))
                assert payload == b"".join(
                    codec.encode_parts(target, base))
                assert payload == reference_encode(codec.name, target,
                                                   base), codec.name

    @settings(max_examples=40, deadline=None)
    @given(pair=version_pairs)
    def test_lz_hybrid_has_no_analytic_size(self, pair):
        target, base = pair
        plan = CodePlan.build(target, base)
        codec = HybridDeltaCodec(lz=True)
        assert codec.plan_size(plan) is None


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

    def test_split_curve_is_cached(self, rng):
        codes = rng.integers(0, 2**30, 512, dtype=np.uint64)
        stats = CodeStats.from_codes(codes)
        assert stats.split_curve() is stats.split_curve()

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


@pytest.mark.skipif(not native.available(),
                    reason="native kernels did not compile")
class TestNativeKernels:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000))
    def test_fused_delta_matches_numpy(self, seed, n):
        rng = np.random.default_rng(seed)
        target = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        base = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        fused = native.delta_zigzag_stats(target, base)
        assert fused is not None
        codes, hist = _expanded(n, fused), fused[2]
        delta, mode = compute_delta(target, base)
        expected = delta_to_codes(delta, mode)
        assert np.array_equal(codes, expected)
        assert np.array_equal(
            hist, CodeStats.from_codes(expected).width_counts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(1, 64),
           n=st.integers(1, 3000))
    def test_pack_matches_numpy_kernel(self, seed, bits, n):
        rng = np.random.default_rng(seed)
        if bits < 64:
            values = rng.integers(0, 1 << bits, n, dtype=np.uint64)
        else:
            values = rng.integers(0, 2**63, n, dtype=np.uint64) * 2 \
                + rng.integers(0, 2, n, dtype=np.uint64)
        words = native.pack_bits(values, bits)
        assert words is not None
        needed = (n * bits + 7) // 8
        got = words.view(np.uint8)[:needed].tobytes()
        ref_blocked = bitpack._pack_words_blocked(values, bits)
        assert got == ref_blocked.view(np.uint8)[:needed].tobytes()

    def test_gated_off_by_dtype_and_layout(self, rng):
        # The gates that legitimately remain: the inner (last-axis)
        # stride must be one cell, there must be cells, both sides
        # must be ndarrays of one dtype and shape.
        ints = rng.integers(0, 9, (8, 8), dtype=np.int32)
        assert native.delta_zigzag_stats(ints[:, ::2],
                                         ints[:, ::2]) is None
        assert native.delta_zigzag_stats(ints[0, ::2],
                                         ints[0, ::2]) is None
        empty = np.zeros(0, dtype=np.int64)
        assert native.delta_zigzag_stats(empty, empty) is None
        assert native.delta_zigzag_stats(ints.tolist(), ints) is None
        assert native.delta_zigzag_stats(np.int32(3),
                                         np.int32(4)) is None
        assert native.delta_zigzag_stats(
            ints, ints.astype(np.int64)) is None
        assert native.delta_zigzag_stats(ints, ints[:4]) is None
        swapped = ints.astype(ints.dtype.newbyteorder())
        assert native.delta_zigzag_stats(swapped, swapped) is None

    def test_decline_is_logged_once_per_reason(self, caplog,
                                               monkeypatch):
        monkeypatch.setattr(native, "_declined", set())
        ints = np.arange(16, dtype=np.int32).reshape(4, 4)
        with caplog.at_level("DEBUG", logger="repro.native"):
            for _ in range(3):
                assert native.delta_zigzag_stats(ints[:, ::2],
                                                 ints[:, ::2]) is None
            assert native.delta_zigzag_stats(ints[:0], ints[:0]) is None
        messages = [record.getMessage() for record in caplog.records]
        assert messages == [
            "native declined delta_zigzag_stats: non-unit inner stride",
            "native declined delta_zigzag_stats: empty",
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
}


def _cells(rng, dtype: np.dtype, shape) -> np.ndarray:
    """Uniformly random bit patterns of ``dtype`` (NaNs, infinities,
    subnormals and both zeros included for floats)."""
    if dtype.kind == "b":
        return rng.integers(0, 2, size=shape).astype(dtype)
    raw = rng.integers(0, 256, size=(*shape, dtype.itemsize),
                       dtype=np.uint8)
    return raw.view(dtype).reshape(shape)


def _expanded(n: int, fused) -> np.ndarray:
    """The full code array of a ``delta_zigzag_stats`` run list."""
    codes, spans, _ = fused
    return _Runs(n, codes, spans).expand()


def _reference_plan(target, base) -> CodePlan:
    """The plan the numpy path builds for the same inputs."""
    with native.disabled():
        return CodePlan.build(target, base)


def _assert_family_agrees(target, base, plan, reference):
    """All four code-array codecs emit the same payload from the
    kernel-built ``plan``, from the numpy-built ``reference`` plan
    with the kernels off, and from the sort-and-mask oracle; and the
    sizes priced from either plan are that payload's length."""
    for codec in _code_array_codecs():
        expected = reference_encode(codec.name, target, base)
        assert b"".join(codec.encode_from_plan(plan)) == expected, \
            codec.name
        with native.disabled():
            assert b"".join(codec.encode_from_plan(reference)) == \
                expected, codec.name
        assert codec.encode(target, base) == expected, codec.name
        assert codec.plan_size(plan) in (None, len(expected))
        assert codec.plan_size(reference) in (None, len(expected))


@pytest.mark.skipif(not native.available(),
                    reason="native kernels did not compile")
class TestNativeEveryCellType:
    """The write path's two kernels are held to the numpy path — the
    oracle — for every dtype ``delta_mode_for`` accepts, so a gate can
    never again quietly send a whole class of arrays to the fallback."""

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("base_kind", ["canvas", "root"])
    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
        np.uint32, np.uint64, np.bool_, np.float16, np.float32,
        np.float64])
    def test_gate_accepts(self, rng, dtype, layout, base_kind):
        dtype = np.dtype(dtype)
        target = _LAYOUTS[layout](_cells(rng, dtype, (10, 12)))
        base = _LAYOUTS[layout](_cells(rng, dtype, (10, 12)))
        if base_kind == "root":
            # A decoded root is its own contiguous array.
            base = np.ascontiguousarray(base).reshape(target.shape)
        fused = native.delta_zigzag_stats(target, base)
        assert fused is not None
        reference = _reference_plan(target, base)
        codes, counts = _expanded(target.size, fused), fused[2]
        assert np.array_equal(codes, reference.codes)
        assert np.array_equal(counts, reference.stats.width_counts)

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
        plan = CodePlan.build(target, base)
        assert plan.mode == reference.mode
        assert np.array_equal(plan.codes, reference.codes)
        assert np.array_equal(plan.stats.width_counts,
                              reference.stats.width_counts)
        assert hybrid_split_width(plan.codes, plan.stats) == \
            hybrid_split_width(reference.codes, reference.stats)
        _assert_family_agrees(target, base, plan, reference)

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
        plan = CodePlan.build(target, base)
        assert np.array_equal(plan.codes, reference.codes)
        assert np.array_equal(plan.stats.width_counts,
                              reference.stats.width_counts)
        _assert_family_agrees(target, base, plan, reference)

    @pytest.mark.parametrize("small_bits", range(65))
    def test_split_pack_at_every_width(self, rng, small_bits):
        # Codes of every exact bit length 0..64, zero runs included.
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
        with native.disabled():
            expected = (
                bitpack.pack_unsigned(np.where(is_outlier, np.uint64(0),
                                               codes), small_bits),
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
            assert native.pack_runs(run_codes, spans, codes.size,
                                    small_bits, positions.size,
                                    value_bits) == expected
            # A count the codes overrun is refused, not written past.
            if positions.size:
                assert native.pack_runs(run_codes, spans, codes.size,
                                        small_bits, positions.size - 1,
                                        value_bits) is None


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
    """The analysis kernel keeps only the runs that differ and the pack
    walks only them: held to the numpy oracle — full code array, width
    histogram, every payload — for every cell kind the kernel knows,
    chunk layout and share of changed runs; with and without the base
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
        plan = CodePlan.build(target, base)
        codes, spans = plan.runs.codes, plan.runs.spans
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
        assert np.array_equal(plan.codes, reference.codes)
        assert np.array_equal(plan.stats.width_counts,
                              reference.stats.width_counts)
        if case == "every-run-changed" and dtype.itemsize == 8:
            assert plan.stats.max_bits == 64
        _assert_family_agrees(target, base, plan, reference)

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
        reference = _reference_plan(target, window(base_canvas).copy())
        canvas = base_canvas.copy()
        base = window(canvas)
        scope = native.disabled() if kernels == "numpy" \
            else contextlib.nullcontext()
        with scope:
            plan = CodePlan.build(target, base, adopt=True)
            for codec in _code_array_codecs():
                assert b"".join(codec.encode_from_plan(plan)) == \
                    b"".join(codec.encode_from_plan(reference)), codec.name
        assert np.array_equal(plan.codes, reference.codes)
        # The window holds the target, bit for bit; nothing outside it
        # changed.
        assert base.tobytes() == np.ascontiguousarray(target).tobytes()
        outside = np.ones(canvas.shape, dtype=bool)
        window(outside)[...] = False
        assert canvas[outside].tobytes() == base_canvas[outside].tobytes()

    def test_adopt_needs_a_writable_base(self, rng):
        base = np.zeros(64, dtype=np.int32)
        base.setflags(write=False)
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
        codes, spans, counts = native.delta_zigzag_stats(target, base)
        assert spans.shape == (n // 2 + 1, 2)
        assert codes.size == n // 2 + 1
        reference = _reference_plan(target, base)
        assert np.array_equal(_expanded(n, (codes, spans, None)),
                              reference.codes)
        assert np.array_equal(counts, reference.stats.width_counts)
        encode = chunk_encode(dtype, target.shape, ("hybrid", "sparse"),
                              "none")
        canary = np.uint64(0xA5A5A5A5A5A5A5A5)
        space = np.full(encode.words + 4, canary, dtype=np.uint64)
        winner, payload, _, _ = encode(target, base, False, space)
        # The last span's cell count (1) is the space's last word.
        assert space[encode.words - 1] == 1
        assert (space[encode.words:] == canary).all()
        planned = plan_encoding(target, base).decision
        assert (winner, payload) == (planned.delta_codec, planned.payload)

    @pytest.mark.parametrize("short", ["outliers", "codes"])
    def test_stale_histogram_writes_nothing_out_of_bounds(self, rng,
                                                          short):
        # The pack sized for one outlier fewer than the codes hold, or
        # told it holds one code fewer than the spans name: refused at
        # the overrun, every canary word beyond the sized sections
        # intact.
        lib = native._load()
        codes = np.array([0, 5, 900, 0, 700, 3], dtype=np.uint64)
        spans = np.array([[2, 2], [9, 4]], dtype=np.int64)
        n, small_bits, value_bits = 16, 3, 10
        outliers = 1 if short == "outliers" else 2
        ncodes = codes.size - (short == "codes")
        canary = np.uint64(0xA5A5A5A5A5A5A5A5)
        sized = [(n * small_bits + 63) // 64,
                 (outliers * 4 + 63) // 64,
                 (outliers * value_bits + 63) // 64]
        buffers = [np.full(words + 4, canary, dtype=np.uint64)
                   for words in sized]
        found = lib.repro_pack_runs(
            codes.ctypes.data, ncodes, spans.ctypes.data, len(spans), n,
            small_bits, 4, value_bits, outliers,
            *(buffer.ctypes.data for buffer in buffers))
        assert found == -1
        for words, buffer in zip(sized, buffers):
            assert (buffer[words:] == canary).all()
        # The wrapper declines, so the numpy path packs instead.
        assert native.pack_runs(codes, spans, n, small_bits, 1,
                                value_bits) is None
        assert native.pack_runs(codes[:-1], spans, n, small_bits, 2,
                                value_bits) is None
        assert native.pack_runs(codes, spans, n, small_bits, 2,
                                value_bits) is not None

    @pytest.mark.parametrize("spans", [
        [[4, 2], [2, 2]],    # descending
        [[0, 4], [3, 2]],    # overlapping
        [[14, 4]],           # past the last cell
        [[0, -1]],           # negative count
        [[0, 4], [8, 4]],    # more codes than given
    ], ids=["descending", "overlapping", "past-the-end", "negative",
            "too-many-codes"])
    def test_malformed_spans_are_refused(self, spans):
        codes = np.arange(1, 7, dtype=np.uint64)
        assert native.pack_runs(codes, np.array(spans, dtype=np.int64),
                                16, 3, 3, 3) is None


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
