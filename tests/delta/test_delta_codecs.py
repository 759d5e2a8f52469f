"""Round-trip and behaviour tests for the store's delta codecs (Table I's
array-aware rows)."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codec_cases import (
    DeltaBackwardRoundTrips,
    DeltaForwardRoundTrips,
    check_corrupt_decode_forward,
    corruptions,
    delta_pair as _pair,
    frame_agrees,
)
from repro.core import bitpack, native, numeric
from repro.core.errors import CodecError, DeltaLevelError, ReproError
from repro.delta import codes as code_store
from repro.compression.base import IdentityCodec
from repro.delta.base import bare_levels, chunk_fold, pack_frame
from repro.delta.codes import (
    CodePlan,
    CodeStats,
    pack_sections,
    section_size,
)
from repro.delta import (
    DenseDeltaCodec,
    HybridDeltaCodec,
    SparseDeltaCodec,
    delta_codec_names,
    get_delta_codec,
)

ALL_CODECS = [
    DenseDeltaCodec(),
    SparseDeltaCodec(),
    HybridDeltaCodec(),
    HybridDeltaCodec(lz=True),
]


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestForwardRoundTrip(DeltaForwardRoundTrips):
    pass


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestBackwardRoundTrip(DeltaBackwardRoundTrips):
    pass


class TestSizes:
    def test_identical_versions_negligible_space(self, rng):
        # Section III-B.3: identical arrays must delta to ~nothing.
        base = rng.normal(0, 10, size=(64, 64)).astype(np.float64)
        for codec in (DenseDeltaCodec(), SparseDeltaCodec(),
                      HybridDeltaCodec()):
            size = len(codec.encode(base.copy(), base))
            assert size < 64, f"{codec.name} used {size} bytes"

    def test_sparse_wins_on_few_changes(self, rng):
        base = rng.integers(0, 2**20, size=(64, 64)).astype(np.int32)
        target = base.copy()
        target[5, 5] += 1  # a single changed cell
        sparse = len(SparseDeltaCodec().encode(target, base))
        dense = len(DenseDeltaCodec().encode(target, base))
        assert sparse < dense

    def test_dense_wins_on_small_everywhere_changes(self, rng):
        base = rng.integers(0, 2**20, size=(64, 64)).astype(np.int32)
        with np.errstate(over="ignore"):
            target = base + rng.integers(-2, 3, size=(64, 64)).astype(np.int32)
        sparse = len(SparseDeltaCodec().encode(target, base))
        dense = len(DenseDeltaCodec().encode(target, base))
        assert dense < sparse

    def test_hybrid_never_worse_than_dense_or_sparse(self, rng):
        # The hybrid cost search includes both extremes.
        for similarity in (0.5, 0.9, 0.99):
            target, base = _pair(np.int32, (48, 48), rng,
                                 similarity=similarity)
            hybrid = len(HybridDeltaCodec().encode(target, base))
            dense = len(DenseDeltaCodec().encode(target, base))
            sparse = len(SparseDeltaCodec().encode(target, base))
            assert hybrid <= min(dense, sparse) + 16


class TestRegistry:
    def test_names_are_the_store_codecs(self):
        assert delta_codec_names() == ("dense", "hybrid", "hybrid+lz",
                                       "sparse")

    def test_get(self):
        assert get_delta_codec("hybrid").name == "hybrid"
        assert get_delta_codec("hybrid+lz").lz

    def test_unknown(self):
        with pytest.raises(CodecError):
            get_delta_codec("vcdiff")

    @pytest.mark.parametrize("name", ["mpeg-like", "bsdiff"])
    def test_comparison_codecs_are_not_store_codecs(self, name):
        with pytest.raises(CodecError, match=name):
            get_delta_codec(name)


@settings(max_examples=25, deadline=None)
@given(data=st.data(),
       codec_name=st.sampled_from(["dense", "sparse", "hybrid",
                                   "hybrid+lz"]))
def test_roundtrip_property(data, codec_name):
    codec = get_delta_codec(codec_name)
    dtype = data.draw(st.sampled_from([np.int32, np.float64]))
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=10))
    elements = (
        st.floats(allow_nan=False, width=64)
        if np.dtype(dtype).kind == "f"
        else st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max)
    )
    target = data.draw(hnp.arrays(dtype, shape, elements=elements))
    base = data.draw(hnp.arrays(dtype, shape, elements=elements))
    blob = codec.encode(target, base)
    assert codec.decode_forward(blob, base).tobytes() == target.tobytes()


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestEncodeParts:
    """encode_parts is the zero-copy contract: the joined parts must be
    the exact bytes encode() produces, so the chunk store can defer the
    join to placement without moving a single stored byte."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float32], ids=str)
    def test_parts_join_to_encode(self, codec, dtype, rng):
        target, base = _pair(dtype, (24, 32), rng)
        parts = codec.encode_parts(target, base)
        assert isinstance(parts, list)
        assert b"".join(parts) == codec.encode(target, base)

    def test_parts_sizes_sum(self, codec, rng):
        target, base = _pair(np.int64, (16, 16), rng)
        parts = codec.encode_parts(target, base)
        assert sum(len(part) for part in parts) == \
            len(codec.encode(target, base))


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestStrictDecode:
    """Decoders consume exactly the payload they are handed — trailing
    garbage means a placement/addressing bug and must surface, not be
    silently ignored."""

    def test_trailing_bytes_rejected(self, codec, rng):
        target, base = _pair(np.int64, (16, 16), rng)
        blob = codec.encode(target, base)
        with pytest.raises(CodecError, match="trailing"):
            codec.decode_forward(blob + b"\x00", base)

    def test_memoryview_payload_accepted(self, codec, rng):
        """The read path hands zero-copy views, never joined copies."""
        target, base = _pair(np.int64, (16, 16), rng)
        blob = codec.encode(target, base)
        out = codec.decode_forward(memoryview(blob), base)
        np.testing.assert_array_equal(out, target)


@pytest.mark.parametrize("kernels", [True, False],
                         ids=["native", "numpy"])
@pytest.mark.parametrize("dtype", [np.int32, np.float32], ids=str)
class TestCorruptPayloads:
    """A payload is bytes from disk: whatever is wrong with it, a
    decoder raises a typed :class:`ReproError` (see
    :func:`codec_cases.check_corrupt_decode_forward`)."""

    TRIALS = 40

    @staticmethod
    def _payload(name, dtype, rng):
        target, base = _pair(dtype, (12, 16), rng, similarity=0.8)
        target[3, 5] = 1 << 20  # an outlier: hybrid keeps a real table
        return get_delta_codec(name).encode(target, base), target, base

    @pytest.mark.parametrize("name", delta_codec_names())
    def test_decode_forward(self, name, dtype, kernels, rng):
        with contextlib.nullcontext() if kernels else native.disabled():
            check_corrupt_decode_forward(get_delta_codec(name), dtype, rng,
                                         self.TRIALS)

    @pytest.mark.parametrize("name", delta_codec_names())
    def test_accumulate(self, name, dtype, kernels, rng):
        codec = get_delta_codec(name)
        payload, _, base = self._payload(name, dtype, rng)
        mode = numeric.delta_mode_for(base.dtype)
        with contextlib.nullcontext() if kernels else native.disabled():
            for bad in corruptions(rng, payload, self.TRIALS):
                # As the read pipeline calls it: an accumulator sized
                # from the chunk being decoded, never from the bytes.
                accumulator = numeric.delta_accumulator(mode, base.size)
                try:
                    out, got_mode, _, shape = codec.accumulate(
                        bad, accumulator)
                except ReproError:
                    continue
                assert out is accumulator and got_mode == mode
                assert math.prod(shape) == base.size


CANARY = 0x5A

#: The fold's two forms: the compiled call, where the kernels built, and
#: its numpy form (:func:`repro.delta.codes._fold_numpy`).
KERNELS = [
    pytest.param(True, id="native", marks=pytest.mark.skipif(
        not native.available(), reason="native kernels did not compile")),
    pytest.param(False, id="numpy"),
]


def _kernels(on: bool):
    return contextlib.nullcontext() if on else native.disabled()


def _one(fold, base, payloads, layouts, cells, window=None) -> int:
    """One chunk through the one call (:class:`native.FoldBatch` of one
    descriptor): 0 once rebuilt, or :data:`native.FOLD_DECLINED`."""
    batch = native.FoldBatch()
    batch.add(fold, base, payloads, layouts, cells, window)
    done, status = batch.run()
    assert (done, bool(status)) in ((0, True), (1, False))
    return status


def _read_path(codec, base, payloads, cells, window=None) -> None:
    """Fold ``codec``'s stored ``payloads`` onto ``base`` (a root
    payload, or cells) as the read path makes its calls: the levels as
    stored where the call reads them so, and once more as cells and
    bare sections when it declines."""
    fold = chunk_fold(cells.dtype, cells.shape)
    layouts = [codec.fold_layout] * len(payloads)
    if None in layouts or _one(fold, base, payloads, layouts, cells,
                               window):
        if type(base) is not np.ndarray:
            base = IdentityCodec().decode_view(base)
        _one(fold, base, *bare_levels([codec] * len(payloads), payloads,
                                      fold), cells, window)


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64,
                                   np.float16, np.float32, np.float64],
                         ids=str)
@pytest.mark.parametrize("name", delta_codec_names())
class TestCorruptFold:
    """The read path's fold (:func:`_read_path`) parses stored bytes and
    writes into the caller's cells: for every cell width x operation x
    strategy, whatever is wrong with a level only a :class:`CodecError`
    escapes and no byte outside the destination window changes."""

    SHAPE = (12, 16)    # 192 cells: 8 position bits can say up to 255

    @classmethod
    def _level(cls, name, dtype, rng):
        """``(codec, section, target, base)``: one level with a dense
        part and real outliers, as its unframed, unsealed section."""
        codec = get_delta_codec(name)
        target, base = _pair(dtype, cls.SHAPE, rng, similarity=0.8)
        bits = target.view(f"u{target.itemsize}")
        bits[3, 5] ^= 1 << (8 * target.itemsize - 2)
        bits[7, 2] ^= 1 << (8 * target.itemsize - 3)
        plan = CodePlan.build(target, base)
        section = pack_sections(plan.codes, plan.stats, codec.layout,
                                section_size(plan.stats, codec.layout)[1])
        return codec, section, target, base

    @staticmethod
    def _payload(codec, section, base) -> bytes:
        mode = numeric.delta_mode_for(base.dtype)
        return pack_frame(base, mode) + b"".join(codec._seal([section]))

    @staticmethod
    def _fold(codec, payload, base, kernels):
        """Fold one level onto ``base`` in place, in a contiguous window
        of a canary frame, as a read folds onto a held layer; the
        folded window, or None for a refused payload."""
        frame = np.full(base.nbytes + 32, CANARY, dtype=np.uint8)
        window = frame[16:-16].view(base.dtype).reshape(base.shape)
        window[...] = base
        refused = False
        with _kernels(kernels):
            try:
                _read_path(codec, window, [payload], window)
            except CodecError:
                refused = True
        assert (frame[:16] == CANARY).all() and \
            (frame[-16:] == CANARY).all()
        return None if refused else window

    def test_valid_level_folds_in_place(self, name, dtype, kernels, rng):
        codec, section, target, base = self._level(name, dtype, rng)
        for payload in (self._payload(codec, section, base),
                        codec.encode(target, base)):
            got = self._fold(codec, payload, base, kernels)
            assert got.tobytes() == target.tobytes()

    def test_every_truncation(self, name, dtype, kernels, rng):
        """Cut the section at every byte — so at every part boundary
        and inside every part — and the payload likewise."""
        codec, section, _, base = self._level(name, dtype, rng)
        for cut in range(len(section)):
            assert self._fold(
                codec, self._payload(codec, section[:cut], base), base,
                kernels) is None, cut
        payload = self._payload(codec, section, base)
        for cut in range(len(payload)):
            assert self._fold(codec, payload[:cut], base, kernels) \
                is None, cut
        assert self._fold(codec, payload + b"\0", base, kernels) is None

    def test_hostile_fields(self, name, dtype, kernels, rng):
        codec, section, _, base = self._level(name, dtype, rng)
        count = base.size

        def refused(at, replacement: bytes) -> bool:
            bad = bytearray(section)
            bad[at:at + len(replacement)] = replacement
            return self._fold(codec, self._payload(codec, bytes(bad), base),
                              base, kernels) is None

        table_at = 0
        if codec.layout & code_store.SMALL:
            # The small width: every value a byte can hold.
            for width in range(256):
                assert refused(0, bytes([width])) or width <= 64
            table_at = 1 + bitpack.packed_size(count, section[0])
        if not codec.layout & code_store.TABLE:
            return
        entries = int.from_bytes(section[table_at:table_at + 8], "little")
        assert 0 < entries < count
        for width in range(65, 256):        # position / value widths
            assert refused(table_at + 8, bytes([width]))
            assert refused(table_at + 9, bytes([width]))
        for width in range(65):
            refused(table_at + 8, bytes([width]))   # canaries only
            refused(table_at + 9, bytes([width]))
        # Entry counts: negative, more than the cells, and one the
        # cells allow but the payload does not hold.
        for claim in (-1, count + 1, 1 << 40, (1 << 63) - 1, -(1 << 63),
                      count):
            assert refused(table_at, claim.to_bytes(8, "little",
                                                    signed=True)), claim
        # A position past the last cell: all ones in the first one.
        assert section[table_at + 8] == 8
        assert refused(table_at + 10, b"\xff")
        # And bit flips through every header field.
        for at in [0] * bool(table_at) + list(range(table_at,
                                                    table_at + 10)):
            for bit in range(8):
                refused(at, bytes([section[at] ^ (1 << bit)]))

    def test_random_corruption(self, name, dtype, kernels, rng):
        codec, section, _, base = self._level(name, dtype, rng)
        payload = self._payload(codec, section, base)
        for bad in corruptions(rng, payload, 30):
            got = self._fold(codec, bad, base, kernels)
            assert got is None or frame_agrees(bad, base)



def _canvas(dtype, shape, windows: int = 1):
    """A canary-filled canvas and ``windows`` strided windows of
    ``shape`` in it, side by side, each one row and three cells in from
    the canary around it; the canvas and the window, or the list of
    windows."""
    rows, cols = shape
    width = 3 + windows * (cols + 3)
    itemsize = np.dtype(dtype).itemsize
    canvas = np.full((rows + 2) * width * itemsize, CANARY,
                     dtype=np.uint8).view(dtype).reshape(rows + 2, width)
    cut = [canvas[1:-1, 3 + at * (cols + 3):3 + at * (cols + 3) + cols]
           for at in range(windows)]
    return canvas, cut[0] if windows == 1 else cut


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64,
                                   np.float16, np.float32, np.float64],
                         ids=str)
@pytest.mark.parametrize("name", delta_codec_names())
# A flipped header bit can turn "<i4" into "<a4", which numpy parses
# with a DeprecationWarning when the root is decoded in Python.
@pytest.mark.filterwarnings("ignore:Data type alias:DeprecationWarning")
class TestChunkFold:
    """The one call (:class:`native.FoldBatch`, chunks laid out by
    :func:`repro.delta.base.chunk_fold`) over stored bytes against the
    long way — the root's ``decode_view``, each level's bare section
    (:func:`~repro.delta.base.bare_levels`) and the numpy section fold
    (:func:`repro.delta.codes._fold_numpy`) — on the same bytes.  The
    chunk under test goes in between two valid ones of one batch, each
    into a strided window of one canary-filled canvas.  Where the call
    rebuilds it, the long way gives the same bytes and the batch runs
    on; where it declines or a level is malformed, the batch stops
    there — the chunk before it in place, its own window and the one
    after it untouched — and the long way decodes or raises only a
    :class:`CodecError`.  Nothing but a
    :class:`~repro.core.errors.DeltaLevelError` escapes the call."""

    SHAPE = TestCorruptFold.SHAPE

    def _chain(self, name, dtype, rng):
        """``(root, levels, target)``: a none-codec root payload and two
        stored levels onto it, the top one with real outliers — kept as
        the valid neighbours of every chunk this test hands the call."""
        codec = get_delta_codec(name)
        middle, base = _pair(dtype, self.SHAPE, rng, similarity=0.8)
        target = middle.copy()
        bits = target.view(f"u{target.itemsize}")
        bits[3, 5] ^= 1 << (8 * target.itemsize - 2)
        bits[7, 2] ^= 1 << (8 * target.itemsize - 3)
        self.valid = (IdentityCodec().encode(base),
                      [codec.encode(target, middle),
                       codec.encode(middle, base)], target)
        return self.valid

    def _agree(self, name, dtype, root, levels, kernels) -> bool:
        """Decode ``root`` and ``levels`` both ways and hold them to the
        contract above; whether the one call rebuilt the chunk."""
        codec = get_delta_codec(name)
        canvas, windows = _canvas(dtype, self.SHAPE, 3)
        before = canvas.copy()
        fold = chunk_fold(np.dtype(dtype), self.SHAPE)
        layouts = [codec.fold_layout] * len(levels)
        valid_root, valid_levels, valid_target = self.valid
        done = False
        if None not in layouts:
            batch = native.FoldBatch()
            for at, (base, chain) in enumerate([
                    (valid_root, valid_levels), (root, levels),
                    (valid_root, valid_levels)]):
                batch.add(fold, base, chain, layouts,
                          np.empty(self.SHAPE, dtype), windows[at])
            with _kernels(kernels):
                try:
                    stopped, status = batch.run()
                except DeltaLevelError as exc:
                    stopped, status = exc.chunk, -1
            done = stopped == 3
            assert done == (status == 0) and stopped in (1, 3)
            # Whatever the chunk under test is, the one before it is in
            # place; the one after it is rebuilt only if it was.
            assert windows[0].tobytes() == valid_target.tobytes()
            before[1:-1, 3:3 + self.SHAPE[1]] = windows[0]
            if done:
                assert windows[2].tobytes() == valid_target.tobytes()
                before[1:-1, -3 - self.SHAPE[1]:-3] = windows[2]
        try:
            long_way = IdentityCodec().decode_view(root).copy()
            sections, bare = bare_levels([codec] * len(levels), levels,
                                         fold)
            code_store._fold_numpy(
                sections, bare, long_way,
                numeric.delta_mode_for(dtype) == numeric.XOR)
        except CodecError:
            long_way = None
        if done:
            assert long_way is not None
            assert windows[1].tobytes() == long_way.tobytes()
            before[1:-1, 6 + self.SHAPE[1]:6 + 2 * self.SHAPE[1]] = \
                windows[1]
        assert canvas.tobytes() == before.tobytes()
        return done

    def test_valid_chain_in_one_call(self, name, dtype, kernels, rng):
        """A chain the call reads as stored is rebuilt by it; an
        LZ-sealed one is declined, and the same call over its bare
        sections, in place on the root's cells, gives the target."""
        root, levels, target = self._chain(name, dtype, rng)
        codec = get_delta_codec(name)
        assert self._agree(name, dtype, root, levels, kernels) \
            == (codec.fold_layout is not None)
        base = IdentityCodec().decode(root)
        fold = chunk_fold(np.dtype(dtype), self.SHAPE)
        with _kernels(kernels):
            assert _one(fold, base, *bare_levels([codec] * 2, levels, fold),
                        base) == 0
        assert base.tobytes() == target.tobytes()

    def test_every_truncation(self, name, dtype, kernels, rng):
        """Cut the root and each level at every byte, and give each one
        trailing byte: the call refuses every one."""
        root, levels, _ = self._chain(name, dtype, rng)
        for cut in range(len(root)):
            assert not self._agree(name, dtype, root[:cut], levels,
                                   kernels), cut
        assert not self._agree(name, dtype, root + b"\0", levels, kernels)
        for at, level in enumerate(levels):
            for cut in [*range(len(level)), None]:
                bad = level[:cut] if cut is not None else level + b"\0"
                chain = levels[:at] + [bad] + levels[at + 1:]
                assert not self._agree(name, dtype, root, chain,
                                       kernels), (at, cut)

    def test_respelled_root_and_frame(self, name, dtype, kernels, rng):
        """A root header or a frame that names the dtype another way
        ("=" for its byte order) is valid: the call declines it before
        the root is copied, and the read path, calling again with cells
        and bare sections, decodes it."""
        root, levels, target = self._chain(name, dtype, rng)
        respelled = [payload[:1] + b"=" + payload[2:]
                     for payload in (root, levels[0])]
        chains = [(respelled[0], levels), (root, [respelled[1], levels[1]])]
        codec = get_delta_codec(name)
        layouts = [codec.fold_layout] * 2
        for base, chain in chains:
            assert not self._agree(name, dtype, base, chain, kernels)
            cells = np.zeros(self.SHAPE, dtype)
            with _kernels(kernels):
                if None not in layouts:
                    assert _one(chunk_fold(np.dtype(dtype), self.SHAPE),
                                base, chain, layouts, cells) \
                        == native.FOLD_DECLINED
                    assert not cells.view(np.uint8).any()
                _read_path(codec, base, chain, cells)
            assert cells.tobytes() == target.tobytes()

    def test_hostile_fields(self, name, dtype, kernels, rng):
        """Every width byte, table entry count and a position past the
        last cell, in the top level's section, and bit flips through
        the root's header and each frame."""
        root, levels, _ = self._chain(name, dtype, rng)
        codec = get_delta_codec(name)
        if codec.fold_layout is None:
            return      # the call never reads an LZ-sealed level
        start = len(pack_frame(np.empty(self.SHAPE, dtype),
                               numeric.delta_mode_for(dtype))) \
            + bool(codec.fold_layout & native.FOLD_SEALED)
        section = levels[0][start:]

        def agree(at, replacement: bytes) -> bool:
            bad = bytearray(levels[0])
            bad[start + at:start + at + len(replacement)] = replacement
            return self._agree(name, dtype, root, [bytes(bad), levels[1]],
                               kernels)

        table_at = 0
        if codec.layout & code_store.SMALL:
            for width in range(256):
                assert not agree(0, bytes([width])) or width <= 64
            table_at = 1 + bitpack.packed_size(192, section[0])
        if codec.layout & code_store.TABLE:
            for width in range(256):
                assert not agree(table_at + 8, bytes([width])) \
                    or width <= 64
                assert not agree(table_at + 9, bytes([width])) \
                    or width <= 64
            for claim in (-1, 193, 1 << 40, (1 << 63) - 1, -(1 << 63)):
                assert not agree(table_at, claim.to_bytes(
                    8, "little", signed=True)), claim
            assert not agree(table_at + 10, b"\xff")
        for payload_at, payload in enumerate([root, *levels]):
            for at in range(start):
                for bit in range(8):
                    bad = bytearray(payload)
                    bad[at] ^= 1 << bit
                    chain = [root, *levels]
                    chain[payload_at] = bytes(bad)
                    self._agree(name, dtype, chain[0], chain[1:], kernels)

    def test_random_corruption(self, name, dtype, kernels, rng):
        root, levels, _ = self._chain(name, dtype, rng)
        for bad in corruptions(rng, root, 20):
            self._agree(name, dtype, bad, levels, kernels)
        for bad in corruptions(rng, levels[0], 20):
            self._agree(name, dtype, root, [bad, levels[1]], kernels)


@pytest.mark.parametrize("kernels", KERNELS)
def test_lz_sealed_hybrid_level_folds_bare(rng, kernels):
    """A level under the plain hybrid name whose seal byte says LZ is
    valid — ``_unseal`` inflates it — but not the call's to read as
    stored: it declines before writing, and the same call over the
    level's bare section gives the target."""
    codec = get_delta_codec("hybrid")
    target, base = _pair(np.int32, (12, 16), rng)
    sealed = HybridDeltaCodec(lz=True).encode(target, base)
    root = IdentityCodec().encode(base)
    canvas, window = _canvas(np.int32, (12, 16))
    before = canvas.copy()
    cells = np.zeros_like(base)
    fold = chunk_fold(np.dtype(np.int32), (12, 16))
    with _kernels(kernels):
        assert _one(fold, root, [sealed], [codec.fold_layout], cells,
                    window) == native.FOLD_DECLINED
        assert not cells.any()      # refused before the root was copied
        assert canvas.tobytes() == before.tobytes()
        assert _one(fold, root, *bare_levels([codec], [sealed], fold),
                    cells, window) == 0
    assert window.tobytes() == target.tobytes()
    before[1:-1, 3:19] = target
    assert canvas.tobytes() == before.tobytes()


def test_respelled_frame_is_parsed_in_full_and_says_so(rng, caplog,
                                                       monkeypatch):
    """A level's bare section is cut off by comparing its first bytes
    with the frame the chunk implies.  A frame that names the same
    dtype another way ("=i4" for "<i4") is not corrupt: it is parsed in
    full, the level still folds, and the miss is logged once."""
    monkeypatch.setattr(native, "_declined", set())
    codec = get_delta_codec("hybrid")
    target, base = _pair(np.int32, (12, 16), rng)
    payload = codec.encode(target, base)
    assert payload[:4] == b"\x03<i4"
    respelled = b"\x03=i4" + payload[4:]
    fold = chunk_fold(np.dtype(np.int32), (12, 16))
    out = base.copy()
    with caplog.at_level("DEBUG", logger="repro.native"):
        bare_levels([codec, codec], [payload, respelled], fold)
        sections, layouts = bare_levels([codec], [respelled], fold)
    assert _one(fold, out, sections, layouts, out) == 0
    assert out.tobytes() == target.tobytes()
    said = [record.getMessage() for record in caplog.records]
    assert said.count(
        "native declined fold_chain: frame prefix mismatch") == 1


@pytest.mark.parametrize("kernels", KERNELS)
def test_fold_refuses_a_strided_destination(rng, kernels):
    """The fold writes only contiguous cells; strided ones are a caller
    error, refused before anything is folded."""
    codec = get_delta_codec("hybrid")
    target, base = _pair(np.int32, (12, 16), rng)
    payload = codec.encode(target, base)
    canvas = np.zeros((12, 32), dtype=np.int32)
    canvas[:, :16] = base
    fold = chunk_fold(np.dtype(np.int32), (12, 16))
    with _kernels(kernels):
        with pytest.raises(ValueError, match="C-contiguous"):
            _one(fold, IdentityCodec().encode(base), [payload],
                 [codec.fold_layout], canvas[:, :16])
    assert np.array_equal(canvas[:, :16], base) and not canvas[:, 16:].any()


@pytest.mark.parametrize("kernels", KERNELS)
def test_bool_cells_fold_to_booleans(kernels):
    """A well-formed level whose deltas take a bool cell past 1 (only a
    corrupt one can) leaves booleans: the call, into a window as
    stored and in place over the level's bare section, turns every
    folded byte into 0 or 1."""
    base = np.zeros((4, 8), dtype=bool)
    base[0] = True
    codes = bitpack.zigzag_encode(
        np.tile(np.array([5, -3, 2, 0], dtype=np.int64), 8))
    stats = CodeStats.from_codes(codes)
    payload = pack_frame(base, numeric.ARITHMETIC) + pack_sections(
        codes, stats, code_store.SMALL, stats.max_bits)
    codec = get_delta_codec("dense")
    canvas, window = _canvas(np.uint8, (4, 8))
    window = window.view(bool)
    fold = chunk_fold(np.dtype(bool), (4, 8))
    cells = base.copy()
    with _kernels(kernels):
        assert _one(fold, IdentityCodec().encode(base), [payload],
                    [codec.fold_layout], np.empty_like(base), window) == 0
        assert _one(fold, cells, *bare_levels([codec], [payload], fold),
                    cells) == 0
    assert set(cells.view(np.uint8).ravel().tolist()) == {0, 1}
    assert window.tobytes() == cells.tobytes()


@pytest.mark.skipif(not native.available(),
                    reason="counts the compiled calls")
@pytest.mark.parametrize("name", delta_codec_names())
def test_accumulate_is_one_compiled_call_per_level(name, rng, monkeypatch):
    """``accumulate`` folds each level through the read path's call
    (:class:`native.FoldBatch`, one chunk), as a bare section: a chain
    of three levels is three compiled calls, and the accumulator holds
    their composition."""
    lib = native._load()
    real, calls = lib.repro_fold_chain, []
    monkeypatch.setattr(lib, "repro_fold_chain",
                        lambda *args: calls.append(args) or real(*args))
    face, faced = native.FoldBatch.run, []
    monkeypatch.setattr(native.FoldBatch, "run",
                        lambda *args: faced.append(args) or face(*args))
    codec = get_delta_codec(name)
    versions = [rng.integers(-50, 50, (12, 16)).astype(np.int32)]
    for _ in range(3):
        cells = versions[-1].copy()
        cells.reshape(-1)[rng.choice(cells.size, 20, replace=False)] += 7
        versions.append(cells)
    accumulator = None
    for base, target in zip(versions, versions[1:]):
        accumulator = codec.accumulate(codec.encode(target, base),
                                       accumulator)[0]
    assert len(calls) == len(faced) == 3
    composed = versions[0].reshape(-1).astype(np.int64) + accumulator
    assert composed.astype(np.int32).tobytes() == versions[-1].tobytes()
