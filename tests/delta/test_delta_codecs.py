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
from repro.core.errors import CodecError, ReproError
from repro.delta import codes as code_store
from repro.delta.base import fold_chain, pack_frame
from repro.delta.codes import CodePlan
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


@pytest.mark.parametrize("kernels", [True, False],
                         ids=["native", "numpy"])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64,
                                   np.float16, np.float32, np.float64],
                         ids=str)
@pytest.mark.parametrize("name", delta_codec_names())
class TestCorruptFold:
    """The read path's entry point (:func:`repro.delta.base.fold_chain`)
    parses stored bytes and writes into the caller's cells: for every
    cell width x operation x strategy, whatever is wrong with a level
    only a :class:`CodecError` escapes and no byte outside the
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
        return pack_frame(base, mode) + b"".join(codec._seal([section]))

    @staticmethod
    def _fold(codec, payload, base, kernels):
        """Fold one level onto ``base`` in a contiguous window of a
        canary frame, as ``read_region`` does into its chunk buffer;
        the folded window, or None for a refused payload."""
        frame = np.full(base.nbytes + 32, CANARY, dtype=np.uint8)
        window = frame[16:-16].view(base.dtype).reshape(base.shape)
        window[...] = base
        refused = False
        with contextlib.nullcontext() if kernels else native.disabled():
            try:
                fold_chain([codec], [payload], base, window)
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


@pytest.mark.parametrize("kernels", [True, False], ids=["native", "numpy"])
def test_fold_refuses_a_strided_destination(rng, kernels):
    """The fold writes only contiguous cells; a strided window is a
    caller error, refused before anything is folded."""
    codec = get_delta_codec("hybrid")
    target, base = _pair(np.int32, (12, 16), rng)
    payload = codec.encode(target, base)
    canvas = np.zeros((12, 32), dtype=np.int32)
    canvas[:, :16] = base
    with contextlib.nullcontext() if kernels else native.disabled():
        with pytest.raises(ValueError, match="C-contiguous"):
            fold_chain([codec], [payload], base, canvas[:, :16])
    assert np.array_equal(canvas[:, :16], base) and not canvas[:, 16:].any()
