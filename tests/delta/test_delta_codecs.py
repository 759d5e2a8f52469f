"""Round-trip and behaviour tests for the delta codecs (Table I set)."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import bitpack, native, numeric
from repro.core.errors import (
    CodecError,
    DeltaShapeMismatchError,
    ReproError,
)
from repro.core.serial import unpack_array_header
from repro.delta import codes as code_store
from repro.delta.base import fold_chain
from repro.delta.codes import CodePlan
from repro.delta import (
    BSDiffDeltaCodec,
    DenseDeltaCodec,
    HybridDeltaCodec,
    MPEGLikeDeltaCodec,
    SparseDeltaCodec,
    delta_codec_names,
    get_delta_codec,
)

ALL_CODECS = [
    DenseDeltaCodec(),
    SparseDeltaCodec(),
    HybridDeltaCodec(),
    HybridDeltaCodec(lz=True),
    MPEGLikeDeltaCodec(block=8, radius=2),
    BSDiffDeltaCodec(),
]
BIDIRECTIONAL = [codec for codec in ALL_CODECS if codec.bidirectional]
DTYPES = [np.uint8, np.int16, np.int32, np.int64, np.float32, np.float64]


def _pair(dtype, shape, rng, similarity=0.95):
    """Two versions that agree on ~similarity of their cells."""
    if np.dtype(dtype).kind == "f":
        base = rng.normal(0, 100, size=shape).astype(dtype)
        noise = rng.normal(0, 1, size=shape).astype(dtype)
    else:
        info = np.iinfo(dtype)
        lo, hi = max(info.min, -1000), min(info.max, 1000)
        base = rng.integers(lo, hi, size=shape).astype(dtype)
        noise = rng.integers(-3, 4, size=shape).astype(dtype)
    mask = rng.random(size=shape) > similarity
    with np.errstate(over="ignore"):
        target = np.where(mask, base + noise, base).astype(dtype)
    return target, base


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestForwardRoundTrip:
    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    def test_similar_versions(self, codec, dtype, rng):
        target, base = _pair(dtype, (24, 32), rng)
        data = codec.encode(target, base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == target.tobytes()
        assert out.shape == target.shape
        assert out.dtype == target.dtype

    def test_identical_versions(self, codec, rng):
        base = rng.normal(0, 10, size=(16, 16)).astype(np.float32)
        data = codec.encode(base.copy(), base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == base.tobytes()

    def test_completely_different(self, codec, rng):
        target = rng.integers(0, 2**31, size=(8, 8)).astype(np.int32)
        base = rng.integers(0, 2**31, size=(8, 8)).astype(np.int32)
        data = codec.encode(target, base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == target.tobytes()

    def test_1d(self, codec, rng):
        target, base = _pair(np.int32, (100,), rng)
        data = codec.encode(target, base)
        assert codec.decode_forward(data, base).tobytes() == target.tobytes()

    def test_3d(self, codec, rng):
        target, base = _pair(np.int16, (4, 6, 8), rng)
        data = codec.encode(target, base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == target.tobytes()
        assert out.shape == target.shape

    def test_shape_mismatch_rejected(self, codec):
        with pytest.raises(DeltaShapeMismatchError):
            codec.encode(np.zeros((2, 2), dtype=np.int32),
                         np.zeros((2, 3), dtype=np.int32))

    def test_nan_inf_bit_exact(self, codec):
        base = np.array([[1.0, np.nan], [np.inf, -0.0]], dtype=np.float64)
        target = np.array([[np.nan, np.nan], [np.inf, 2.0]],
                          dtype=np.float64)
        data = codec.encode(target, base)
        out = codec.decode_forward(data, base)
        assert out.tobytes() == target.tobytes()


@pytest.mark.parametrize("codec", BIDIRECTIONAL, ids=lambda c: c.name)
class TestBackwardRoundTrip:
    @pytest.mark.parametrize("dtype", [np.int32, np.float64], ids=str)
    def test_base_from_target(self, codec, dtype, rng):
        target, base = _pair(dtype, (20, 20), rng)
        data = codec.encode(target, base)
        out = codec.decode_backward(data, target)
        assert out.tobytes() == base.tobytes()


class TestDirectionalCodecs:
    @pytest.mark.parametrize("codec",
                             [MPEGLikeDeltaCodec(), BSDiffDeltaCodec()],
                             ids=lambda c: c.name)
    def test_backward_rejected(self, codec, rng):
        target, base = _pair(np.int32, (8, 8), rng)
        data = codec.encode(target, base)
        with pytest.raises(CodecError):
            codec.decode_backward(data, target)


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

    def test_encoded_size_matches_actual(self, rng):
        target, base = _pair(np.int32, (32, 32), rng)
        for codec in (DenseDeltaCodec(), SparseDeltaCodec(),
                      HybridDeltaCodec()):
            assert codec.encoded_size(target, base) == \
                len(codec.encode(target, base))

    def test_mpeg_detects_shift(self, rng):
        # A pure translation must produce a much smaller residual with
        # motion compensation than with the plain hybrid delta.
        base = rng.integers(0, 255, size=(64, 64)).astype(np.uint8)
        target = np.roll(base, shift=(3, 2), axis=(0, 1))
        mpeg = MPEGLikeDeltaCodec(block=16, radius=4)
        hybrid = HybridDeltaCodec()
        mpeg_size = len(mpeg.encode(target, base))
        hybrid_size = len(hybrid.encode(target, base))
        assert mpeg_size < hybrid_size / 4
        out = mpeg.decode_forward(mpeg.encode(target, base), base)
        assert out.tobytes() == target.tobytes()

    def test_bsdiff_compresses_mostly_equal_bytes(self, rng):
        base = rng.integers(0, 255, size=4096).astype(np.uint8)
        target = base.copy()
        target[100:120] += 1
        size = len(BSDiffDeltaCodec().encode(target, base))
        assert size < base.nbytes / 4


class TestSuffixArray:
    def test_small_known(self):
        from repro.delta import suffix_array

        data = np.frombuffer(b"banana", dtype=np.uint8)
        sa = suffix_array(data)
        suffixes = [bytes(data[i:]).decode() for i in sa]
        assert suffixes == sorted("banana"[i:] for i in range(6))

    def test_empty(self):
        from repro.delta import suffix_array

        assert suffix_array(np.zeros(0, dtype=np.uint8)).size == 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(min_size=1, max_size=200))
    def test_sorted_property(self, data):
        from repro.delta import suffix_array

        array = np.frombuffer(data, dtype=np.uint8)
        sa = suffix_array(array)
        suffixes = [data[i:] for i in sa]
        assert suffixes == sorted(data[i:] for i in range(len(data)))


class TestRegistry:
    def test_names(self):
        names = delta_codec_names()
        for expected in ("dense", "sparse", "hybrid", "hybrid+lz",
                         "mpeg-like", "bsdiff"):
            assert expected in names

    def test_get(self):
        assert get_delta_codec("hybrid").name == "hybrid"
        assert get_delta_codec("hybrid+lz").lz

    def test_unknown(self):
        with pytest.raises(CodecError):
            get_delta_codec("vcdiff")


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
    assert codec.decode_backward(blob, target).tobytes() == base.tobytes()


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


@pytest.mark.parametrize("codec", [DenseDeltaCodec(), SparseDeltaCodec(),
                                   HybridDeltaCodec(),
                                   HybridDeltaCodec(lz=True)],
                         ids=lambda c: c.name)
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


def _corruptions(rng, payload: bytes, trials: int):
    """Seeded hostile variants of ``payload``: truncations, single bit
    flips anywhere, and whole-byte smashes in the header region (frame,
    width bytes, the outlier count) — the fields that size things."""
    for _ in range(trials):
        yield payload[:int(rng.integers(0, len(payload)))]
        flipped = bytearray(payload)
        flipped[int(rng.integers(0, len(payload)))] ^= \
            1 << int(rng.integers(0, 8))
        yield bytes(flipped)
        smashed = bytearray(payload)
        smashed[int(rng.integers(0, min(48, len(payload))))] = \
            int(rng.integers(0, 256))
        yield bytes(smashed)


def _frame_agrees(payload: bytes, base: np.ndarray) -> bool:
    try:
        dtype, shape, _ = unpack_array_header(payload)
    except CodecError:
        return False
    return (dtype, shape) == (base.dtype, base.shape)


@pytest.mark.parametrize("kernels", [True, False],
                         ids=["native", "numpy"])
@pytest.mark.parametrize("dtype", [np.int32, np.float32], ids=str)
class TestCorruptPayloads:
    """A payload is bytes from disk: whatever is wrong with it, a
    decoder raises a typed :class:`ReproError` — never a MemoryError
    from an allocation the bytes sized, never numpy's ValueError from
    a shape the bytes chose — and never hands back an array for a
    frame that disagrees with the array it was asked to decode
    against."""

    TRIALS = 40

    @staticmethod
    def _payload(name, dtype, rng):
        target, base = _pair(dtype, (12, 16), rng, similarity=0.8)
        target[3, 5] = 1 << 20  # an outlier: hybrid keeps a real table
        return get_delta_codec(name).encode(target, base), target, base

    @pytest.mark.parametrize("name", delta_codec_names())
    def test_decode_forward(self, name, dtype, kernels, rng):
        codec = get_delta_codec(name)
        payload, target, base = self._payload(name, dtype, rng)
        with contextlib.nullcontext() if kernels else native.disabled():
            assert codec.decode_forward(payload, base).tobytes() == \
                target.tobytes()
            wrong = np.zeros((16, 12), dtype=base.dtype)
            with pytest.raises(ReproError):
                codec.decode_forward(payload, wrong)
            for bad in _corruptions(rng, payload, self.TRIALS):
                try:
                    out = codec.decode_forward(bad, base)
                except ReproError:
                    continue
                assert _frame_agrees(bad, base)
                assert (out.dtype, out.shape) == (base.dtype, base.shape)

    @pytest.mark.parametrize("name", [
        name for name in delta_codec_names()
        if get_delta_codec(name).composable])
    def test_accumulate(self, name, dtype, kernels, rng):
        codec = get_delta_codec(name)
        payload, _, base = self._payload(name, dtype, rng)
        mode = numeric.delta_mode_for(base.dtype)
        with contextlib.nullcontext() if kernels else native.disabled():
            for bad in _corruptions(rng, payload, self.TRIALS):
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


COMPOSABLE = [name for name in delta_codec_names()
              if get_delta_codec(name).composable]
CANARY = 0x5A


@pytest.mark.parametrize("kernels", [True, False],
                         ids=["native", "numpy"])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64,
                                   np.float16, np.float32, np.float64],
                         ids=str)
@pytest.mark.parametrize("name", COMPOSABLE)
class TestCorruptFold:
    """The read path's entry point (:func:`repro.delta.base.fold_chain`)
    parses stored bytes and writes through the caller's strides: for
    every cell width x operation x strategy, whatever is wrong with a
    level only a :class:`CodecError` escapes and no byte outside the
    destination window changes."""

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
        section = b"".join(codec._encode(plan.codes, plan.stats))
        return codec, section, target, base

    @staticmethod
    def _payload(codec, section, base) -> bytes:
        mode = numeric.delta_mode_for(base.dtype)
        return codec._frame(base, mode) + b"".join(codec._seal([section]))

    @staticmethod
    def _fold(codec, payload, base, kernels):
        """Fold one level onto ``base`` inside a canary frame, as
        ``read_version`` does into its canvas; the folded window, or
        None for a refused payload."""
        frame = np.full((base.shape[0] + 4,
                         (base.shape[1] + 4) * base.itemsize), CANARY,
                        dtype=np.uint8).view(base.dtype)
        window = frame[2:-2, 2:-2]
        window[...] = base
        refused = False
        with contextlib.nullcontext() if kernels else native.disabled():
            try:
                fold_chain([codec], [payload], base, window)
            except CodecError:
                refused = True
        outside = np.ones(frame.shape, dtype=bool)
        outside[2:-2, 2:-2] = False
        assert (frame.view(np.uint8).reshape(frame.shape[0], -1)
                [np.repeat(outside, frame.itemsize, axis=1)]
                == CANARY).all()
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
        for bad in _corruptions(rng, payload, 30):
            got = self._fold(codec, bad, base, kernels)
            assert got is None or _frame_agrees(bad, base)



def test_respelled_frame_takes_the_long_way_and_says_so(rng, caplog,
                                                        monkeypatch):
    """The fold recognises a level by comparing its first bytes with
    the frame the root implies.  A frame that names the same dtype
    another way ("=i4" for "<i4") is not corrupt: it is parsed in full,
    the level still folds, and the miss is logged once."""
    monkeypatch.setattr(native, "_declined", set())
    codec = get_delta_codec("hybrid")
    target, base = _pair(np.int32, (12, 16), rng)
    payload = codec.encode(target, base)
    assert payload[:4] == b"\x03<i4"
    respelled = b"\x03=i4" + payload[4:]
    out = base.copy()
    with caplog.at_level("DEBUG", logger="repro.native"):
        fold_chain([codec, codec], [payload, respelled], base,
                   np.zeros_like(base))
        fold_chain([codec], [respelled], base, out)
    assert out.tobytes() == target.tobytes()
    said = [record.getMessage() for record in caplog.records]
    assert said.count(
        "native declined fold_chain: frame prefix mismatch") == 1
