"""The read side's one C entry vs its numpy references, byte for byte.

The encode side is covered next to the encode face
(``tests/delta/test_planner.py``, ``tests/delta/test_chunk_encode.py``);
this file owns the decode side: the fold's in-register zigzag decode
and its D-bit unpack across every width, held against the numpy
kernels, and the chain fold itself, plus the shape of the library (two
entries) and the switches that turn it off.  The fold
(:class:`native.FoldBatch`, here one chunk over bare sections) runs its
numpy form itself and is held against it; it parses bytes from disk
and writes through caller strides: whatever the
bytes say, it names a malformed level and never touches a byte outside
its destination, a contiguous run of cells inside a canary frame.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitpack, native
from repro.core.errors import DeltaLevelError
from repro.delta import codes as code_store
from repro.delta.base import chunk_encode
from repro.delta.registry import delta_codec_names, get_delta_codec

pytestmark = pytest.mark.skipif(not native.available(),
                                reason="native kernels did not compile")


def _dense_fold(values: np.ndarray, bits: int, use_xor: bool
                ) -> np.ndarray:
    """``values`` packed at ``bits`` by the numpy packer as one dense
    level, folded through the one call onto zeroed 64-bit cells."""
    cells = np.zeros(values.size, dtype=np.uint64 if use_xor else np.int64)
    section = bytes([bits]) + bitpack.pack_unsigned(values, bits)
    assert _call(cells, [section], [native.FOLD_SMALL], use_xor) is None
    return cells


class TestZigzagDecode:
    """The fold's in-register zigzag decode, against the numpy one."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000))
    def test_matches_numpy(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        codes = bitpack.zigzag_encode(values)
        got = _dense_fold(codes, 64, False)
        assert np.array_equal(got, values)
        assert np.array_equal(got, bitpack.zigzag_decode(codes))

    def test_boundary_values(self):
        values = np.array([0, 1, -1, 2**63 - 1, -2**63, 2**62,
                           -2**62], dtype=np.int64)
        codes = bitpack.zigzag_encode(values)
        assert np.array_equal(_dense_fold(codes, 64, False), values)


class TestUnpackBits:
    """The fold's carry-register unpack, against the numpy packer."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(0, 64),
           n=st.integers(1, 3000))
    def test_every_width_matches_numpy(self, seed, bits, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << bits, n, dtype=np.uint64) \
            if bits < 64 else rng.integers(0, 2**64, n, dtype=np.uint64)
        got = _dense_fold(values, bits, True)
        assert np.array_equal(got, values)
        assert np.array_equal(got, bitpack.unpack_unsigned(
            bitpack.pack_unsigned(values, bits), bits, n))

    def test_decode_forward_is_the_fold(self):
        # End to end: a codec's one-level decode is the fold's, kernels
        # on and off.
        rng = np.random.default_rng(2012)
        base = rng.integers(0, 1 << 29, (64, 64)).astype(np.int64)
        target = base + rng.integers(-3, 4, base.shape)
        for name in delta_codec_names():
            codec = get_delta_codec(name)
            payload = codec.encode(target, base)
            hot = codec.decode_forward(payload, base)
            with native.disabled():
                cold = codec.decode_forward(payload, base)
            assert np.array_equal(hot, cold)
            assert np.array_equal(hot, target)


#: Cell dtypes by the fold kernel they reach (width x operation).
FOLD_DTYPES = [np.int8, np.uint8, np.bool_, np.int16, np.uint16, np.int32,
               np.uint32, np.int64, np.uint64, np.float16, np.float32,
               np.float64]
#: A strategy's layout: the parts of its sections.
FOLD_SECTIONS = {
    "dense": native.FOLD_SMALL,
    "sparse": native.FOLD_TABLE,
    "hybrid": native.FOLD_SMALL | native.FOLD_TABLE,
}


def _pack(codes: np.ndarray, layout: int) -> bytes:
    """``codes`` as the numpy packer writes ``layout``'s sections, at
    the split the sizer picks."""
    stats = code_store.CodeStats.from_codes(codes)
    return code_store.pack_sections(
        codes, stats, layout, code_store.section_size(stats, layout)[1])
CANARY = 0xA5
#: Canary bytes on each side of a destination.
PAD = 16


def _use_xor(dtype) -> bool:
    return np.dtype(dtype).kind == "f"


def _level_codes(rng, n: int, use_xor: bool) -> np.ndarray:
    """Codes of one plausible level: mostly zero, some small, three of
    them wide — so every strategy has something in every part."""
    codes = np.zeros(n, dtype=np.uint64)
    small = rng.choice(n, n // 3, replace=False)
    codes[small] = rng.integers(1, 8, small.size, dtype=np.uint64)
    wide = rng.choice(n, 3, replace=False)
    top = 64 if use_xor else 63
    codes[wide] = rng.integers(1 << 20, 1 << top, wide.size,
                               dtype=np.uint64)
    return codes


def _fold_reference(cells: np.ndarray, codes: np.ndarray,
                    use_xor: bool) -> np.ndarray:
    """``cells`` after one level, computed the long way: widen to 64
    bits, compose, truncate back to the cell width."""
    image = cells.reshape(-1).view(f"u{cells.itemsize}").astype(np.uint64)
    if use_xor:
        image ^= codes
    else:
        image += bitpack.zigzag_decode(codes).view(np.uint64)
    return image.astype(f"u{cells.itemsize}").view(cells.dtype) \
        .reshape(cells.shape)


def _in_canary_frame(shape, dtype):
    """A contiguous destination of ``shape`` carved out of a larger
    byte array filled with canary bytes; returns ``(frame, window)``."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    frame = np.full(nbytes + 2 * PAD, CANARY, dtype=np.uint8)
    window = frame[PAD:-PAD].view(dtype).reshape(shape)
    assert window.flags.c_contiguous
    return frame, window


def _canaries_intact(frame: np.ndarray) -> bool:
    return bool((frame[:PAD] == CANARY).all()
                and (frame[-PAD:] == CANARY).all())


def _call(cells: np.ndarray, sections: list, layouts: list[int],
          use_xor: bool) -> tuple[int, int] | None:
    """Fold bare ``sections`` into ``cells`` in place through the one
    call (a :class:`native.FoldBatch` of one chunk of the cells' own
    layout, as ``accumulate`` makes it): None once folded, else the
    failing level and its reason code (:data:`native.FOLD_REASONS`)."""
    batch = native.FoldBatch()
    batch.add(native.ChunkFold(cells.dtype, cells.shape, b"", b"",
                               use_xor),
              cells, sections,
              [layout | native.FOLD_BARE for layout in layouts], cells)
    try:
        assert batch.run() == (1, 0)
    except DeltaLevelError as exc:
        assert exc.chunk == 0
        return exc.level, _REASON_CODES[str(exc)]
    return None


def _fold(cells: np.ndarray, sections: list, layouts: list[int],
          use_xor: bool) -> tuple[int, int] | None:
    """:func:`_call`, held against the numpy fold
    (:func:`repro.delta.codes._fold_numpy`) on a copy of ``cells``:
    both fold the same bytes or both refuse the same level."""
    reference = cells.copy()
    try:
        code_store._fold_numpy(sections, layouts, reference, use_xor)
        refused = None
    except DeltaLevelError as exc:
        refused = exc.level
    failed = _call(cells, sections, layouts, use_xor)
    assert (failed and failed[0]) == refused
    if failed is None and cells.dtype == bool:
        reference = reference.view(np.uint8) != 0
    assert failed is not None or cells.tobytes() == reference.tobytes()
    return failed


#: :data:`native.FOLD_REASONS` backwards: a message's reason code.
_REASON_CODES = {message: code
                 for code, message in native.FOLD_REASONS.items()}


class TestFoldChain:
    """The C entry over bare sections, folded in place, against the
    numpy fold: every width x operation x section layout, and hostile
    bytes in every field."""

    @pytest.mark.parametrize("strategy", FOLD_SECTIONS)
    @pytest.mark.parametrize("dtype", FOLD_DTYPES, ids=str)
    def test_matches_wide_compose(self, dtype, strategy):
        """Every width x operation x section layout, three levels, in a
        canary frame: the narrow in-place fold equals widening,
        composing in 64 bits and truncating — and stays in its window.
        Bool cells end as 0 or 1."""
        rng = np.random.default_rng(2012)
        layout = FOLD_SECTIONS[strategy]
        use_xor = _use_xor(dtype)
        frame, window = _in_canary_frame((6, 9), dtype)
        start = rng.integers(0, 256, 54 * np.dtype(dtype).itemsize,
                             dtype=np.uint8).view(dtype).reshape(6, 9)
        window[...] = start
        expected = start.copy()
        sections = []
        for _ in range(3):
            codes = _level_codes(rng, 54, use_xor)
            sections.append(_pack(codes, layout))
            expected = _fold_reference(expected, codes, use_xor)
        if expected.dtype == bool:
            expected = expected.view(np.uint8) != 0
        assert _fold(window, sections, [layout] * 3, use_xor) is None
        assert window.tobytes() == expected.tobytes()
        assert _canaries_intact(frame)

    def test_wraps_in_the_cell_width(self):
        """int8 crossing +127 and -128; uint64 with the top bit set."""
        cells = np.array([127, -128, 5], dtype=np.int8)
        deltas = np.array([3, -3, 0], dtype=np.int64)
        section = _pack(bitpack.zigzag_encode(deltas), native.FOLD_SMALL)
        assert _fold(cells, [section], [native.FOLD_SMALL], False) is None
        assert cells.tolist() == [-126, 125, 5]
        wide = np.array([2**64 - 1, 2**63], dtype=np.uint64)
        deltas = np.array([1, -1], dtype=np.int64)
        section = _pack(bitpack.zigzag_encode(deltas), native.FOLD_TABLE)
        assert _fold(wide, [section], [native.FOLD_TABLE], False) is None
        assert wide.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("shape", [(2, 3, 5), (4, 1), (5,)],
                             ids=["three-d", "one-column", "run"])
    def test_destination_shapes(self, shape):
        """A destination of any shape is its cells in order: the kernel
        folds ``count`` adjacent cells and nothing around them."""
        rng = np.random.default_rng(7)
        frame, window = _in_canary_frame(shape, np.int32)
        window[...] = rng.integers(-100, 100, shape)
        codes = _level_codes(rng, window.size, False)
        expected = _fold_reference(window.copy(), codes, False)
        layout = native.FOLD_SMALL | native.FOLD_TABLE
        assert _fold(window, [_pack(codes, layout)], [layout],
                     False) is None
        assert np.array_equal(window, expected)
        assert _canaries_intact(frame)

    @pytest.mark.parametrize("index", [
        np.s_[1:3, 1:4, 2:5],       # rows two strides apart
        np.s_[1:3, 2:4, :],         # rows one stride apart
        np.s_[:, 2, 3:4],           # one column
    ])
    def test_strided_destination_is_refused(self, index):
        """The kernel has no stride addressing for the cells it folds:
        cells that are not C-contiguous are refused, untouched."""
        canvas = np.arange(4 * 5 * 6, dtype=np.int32).reshape(4, 5, 6)
        before = canvas.copy()
        window = canvas[index]
        section = _pack(np.ones(window.size, dtype=np.uint64),
                        native.FOLD_SMALL)
        with pytest.raises(ValueError, match="contiguous"):
            _call(window, [section], [native.FOLD_SMALL], False)
        assert np.array_equal(canvas, before)

    def test_unsorted_and_repeated_positions_are_exact(self):
        """Encoders emit ascending unique positions; the kernel does
        not rely on it (it only ever trusts what it bounds-checked)."""
        positions = np.array([7, 2, 7, 0], dtype=np.uint64)
        values = bitpack.zigzag_encode(np.array([5, 1, -2, 9]))
        table = b"".join([
            (4).to_bytes(8, "little"), bytes([3, 5]),
            bitpack.pack_unsigned(positions, 3),
            bitpack.pack_unsigned(values, 5)])
        _, window = _in_canary_frame((2, 4), np.int32)
        window[...] = 0
        assert _call(window, [table], [native.FOLD_TABLE], False) is None
        assert window.reshape(-1).tolist() == [9, 0, 1, 0, 0, 0, 0, 3]

    @pytest.mark.parametrize("strategy", FOLD_SECTIONS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32,
                                       np.int64], ids=str)
    def test_every_truncation_is_refused(self, dtype, strategy):
        rng = np.random.default_rng(11)
        layout = FOLD_SECTIONS[strategy]
        use_xor = _use_xor(dtype)
        section = _pack(_level_codes(rng, 24, use_xor), layout)
        frame, window = _in_canary_frame((4, 6), dtype)
        for cut in range(len(section)):
            window[...] = 0
            # "a packed section overruns the payload"
            assert _fold(window, [section[:cut]], [layout],
                         use_xor) == (0, 1), cut
        assert _fold(window, [section + b"\0"], [layout],
                     use_xor) == (0, 5)     # trailing bytes
        assert _canaries_intact(frame)

    @pytest.mark.parametrize("use_xor", [False, True], ids=["add", "xor"])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_hostile_header_fields(self, width, use_xor):
        """Small width, entry count, position width and value width set
        to everything a byte (or eight) can say: a refusal naming the
        level, never a write outside the window."""
        rng = np.random.default_rng(5)
        dtype = np.dtype(f"u{width}")
        codes = _level_codes(rng, 24, use_xor)
        hybrid = bytearray(_pack(codes, native.FOLD_SMALL | native.FOLD_TABLE))
        small_bits = hybrid[0]
        table_at = 1 + bitpack.packed_size(24, small_bits)
        frame, window = _in_canary_frame((4, 6), dtype)
        layout = native.FOLD_SMALL | native.FOLD_TABLE

        def failure(section) -> tuple[int, int] | None:
            window[...] = 0
            failed = _fold(window, [bytes(section)], [layout], use_xor)
            assert _canaries_intact(frame)
            return failed

        assert failure(hybrid) is None
        for at in (0, table_at + 8, table_at + 9):   # the three widths
            for value in (65, 66, 128, 255):
                bad = bytearray(hybrid)
                bad[at] = value
                assert failure(bad) == (0, 2)        # width above 64
            for value in range(65):
                bad = bytearray(hybrid)
                bad[at] = value
                failure(bad)
        for entries in (-1, 25, 1 << 40, (1 << 63) - 1, -(1 << 63)):
            bad = bytearray(hybrid)
            bad[table_at:table_at + 8] = entries.to_bytes(
                8, "little", signed=True)
            assert failure(bad) == (0, 3)            # entries > cells
        # A count the cells allow but the payload cannot hold.
        bad = bytearray(hybrid)
        bad[table_at:table_at + 8] = (24).to_bytes(8, "little")
        assert failure(bad) == (0, 1)

    def test_position_past_the_chunk_is_refused(self):
        # 24 cells need 5 position bits, which can say up to 31.
        for position in (24, 31):
            table = b"".join([
                (2).to_bytes(8, "little"), bytes([5, 3]),
                bitpack.pack_unsigned(
                    np.array([3, position], dtype=np.uint64), 5),
                bitpack.pack_unsigned(np.array([1, 1], dtype=np.uint64),
                                      3)])
            frame, window = _in_canary_frame((4, 6), np.int16)
            window[...] = 0
            assert _fold(window, [table], [native.FOLD_TABLE],
                         False) == (0, 4)
            assert _canaries_intact(frame)
        # 64-bit positions: the sign bit must not index backwards.
        table = b"".join([
            (1).to_bytes(8, "little"), bytes([64, 1]),
            (2**64 - 8).to_bytes(8, "little"), b"\x01"])
        assert _fold(window, [table], [native.FOLD_TABLE], False) == (0, 4)
        assert _canaries_intact(frame)

    def test_failing_level_is_named(self):
        good = _pack(np.ones(6, dtype=np.uint64), native.FOLD_SMALL)
        cells = np.zeros(6, dtype=np.int32)
        assert _fold(cells, [good, good, good[:-1], good],
                     [native.FOLD_SMALL] * 4, False) == (2, 1)

    def test_declines_say_why(self, caplog, monkeypatch):
        """A layout the C entry does not take folds in numpy and says
        why, once per reason; cells that are not writable contiguous
        cells of the layout are refused before anything is written."""
        monkeypatch.setattr(native, "_declined", set())
        section = _pack(np.ones(8, dtype=np.uint64), native.FOLD_SMALL)
        layouts = [native.FOLD_SMALL]
        cells = np.zeros(16, dtype=np.int32)
        read_only = np.zeros(8, dtype=np.int32)
        read_only.flags.writeable = False
        swapped = np.zeros(8, dtype=">i4")
        with caplog.at_level("DEBUG", logger="repro.native"):
            assert _call(swapped, [section], layouts, False) is None
            assert swapped.tolist() == [-1] * 8
            assert _call(np.zeros(8, dtype=np.complex64), [section],
                         layouts, False) is None
            with native.disabled():
                assert _call(cells[:8], [section], layouts, False) is None
            assert cells[:8].tolist() == [-1] * 8
            for refused in (cells[8:][::2], read_only):
                with pytest.raises(ValueError):
                    _call(refused, [section], layouts, False)
        said = [record.getMessage() for record in caplog.records]
        for reason in ("byte-swapped dtype >i4",
                       "unsupported dtype complex64",
                       "kernels disabled or unavailable"):
            assert any("fold_chain" in line and reason in line
                       for line in said), reason
        assert not cells[8:].any() and not read_only.any()


@pytest.mark.skipif(not native.available(),
                    reason="the C entry's own checks")
@pytest.mark.parametrize("flip", [False, True], ids=["forward", "reversed"])
def test_window_geometry_must_fit_its_buffer(flip):
    """The call checks every window's geometry against the buffer the
    tables name for it — the span its strides reach over the box, from
    its lowest byte.  A strided window, strides of either sign, lands
    in place; the same tables with that buffer a byte short, or with a
    row stride past it, are refused before anything is written."""
    fold = native.ChunkFold(np.int32, (4, 6), b"", b"", False)
    cells = np.arange(24, dtype=np.int32).reshape(4, 6)
    frame = np.full((8, 10), -7, dtype=np.int32)
    window = frame[2:6, 2:8]
    if flip:
        window = window[::-1, ::-1]
    batch = native.FoldBatch()
    batch.add(fold, cells, [], [], None, window)
    assert batch.run() == (1, 0)
    assert window.tolist() == cells.tolist()
    frame[...] = -7
    # Descriptor fields 10 and 12: the window's slot and its first
    # geometry entry (extents, box start, box extents, then strides).
    slot, first = batch._build()[0][10], batch._build()[0][12]
    assert batch._build()[3][first + 3 * 2] == window.strides[0]
    for tamper in ("short", "stride"):
        tables = batch._build()
        geometry, lengths = tables[3], tables[5]
        if tamper == "short":
            lengths[slot] -= 1
        else:
            geometry[first + 3 * 2] *= 3
        batch._tables = tables
        with pytest.raises(DeltaLevelError) as refused:
            batch.run()
        assert (refused.value.level, refused.value.chunk) == (0, 0)
        assert str(refused.value) == native.FOLD_REASONS[6]
        assert (frame == -7).all()


def test_the_library_has_one_entry_per_direction():
    """Two C entries: the write side's ``repro_encode_chunk`` and the
    read side's ``repro_fold_chain``; the four fine-grained kernels
    that served the level-by-level paths are gone."""
    lib = native._load()
    assert hasattr(lib, "repro_encode_chunk")
    assert hasattr(lib, "repro_fold_chain")
    for gone in ("repro_delta_codes", "repro_pack_runs",
                 "repro_zigzag_decode", "repro_unpack_bits"):
        assert not hasattr(lib, gone), gone
    nm = shutil.which("nm")
    if nm:
        symbols = subprocess.run([nm, "-D", "--defined-only", lib._name],
                                 check=True, capture_output=True,
                                 text=True).stdout.split()
        assert sorted(name for name in symbols
                      if name.startswith("repro_")) == [
            "repro_encode_chunk", "repro_fold_chain"]


class TestDisabledScope:
    def test_disabled_turns_every_kernel_off(self, monkeypatch):
        codes = np.arange(8, dtype=np.uint64)
        acc = np.zeros(8, dtype=np.int64)
        section = _pack(codes, native.FOLD_SMALL)
        lib = native._load()
        calls = []
        for entry in ("repro_fold_chain", "repro_encode_chunk"):
            real = getattr(lib, entry)
            monkeypatch.setattr(lib, entry, lambda *args, real=real: (
                calls.append(args) or real(*args)))
        with native.disabled():
            assert not native.available()
            assert _call(acc, [section], [native.FOLD_SMALL], False) is None
            encode = chunk_encode(acc.dtype, acc.shape,
                                  (get_delta_codec("hybrid"),))
            payload = get_delta_codec("hybrid").encode(acc + 1, acc)
            assert encode(acc + 1, acc, False).payload == payload
        assert calls == []      # the fold and the encode ran in numpy
        assert acc.tolist() == [0, -1, 1, -2, 2, -3, 3, -4]
        assert get_delta_codec("hybrid").encode(acc + 1, acc) == payload
        assert len(calls) == 1

    def test_disabled_nests(self):
        with native.disabled():
            with native.disabled():
                assert not native.available()
            assert not native.available()
        assert native.available()

    def test_env_gate(self):
        # REPRO_NATIVE is latched at first load, so the =0 path needs
        # a fresh interpreter: nothing may reach a kernel.
        # The child does not inherit pytest's ``pythonpath``: hand it
        # the source tree, so the probe runs from an uninstalled checkout.
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, REPRO_NATIVE="0", PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        probe = (
            "import numpy as np\n"
            "from repro.core import bitpack, native\n"
            "from repro.delta.base import chunk_encode\n"
            "from repro.delta.registry import get_delta_codec\n"
            "codes = np.arange(8, dtype=np.uint64)\n"
            "assert not native.available()\n"
            "acc = np.zeros(8, dtype=np.int64)\n"
            "hybrid = get_delta_codec('hybrid')\n"
            "encode = chunk_encode(acc.dtype, acc.shape, (hybrid,))\n"
            "payload = encode(acc + 1, acc, False).payload\n"
            "assert payload == hybrid.encode(acc + 1, acc)\n"
            "assert hybrid.decode_forward(payload, acc).tolist() == [1] * 8\n"
            "batch = native.FoldBatch()\n"
            "batch.add(native.ChunkFold(acc.dtype, acc.shape, b'', b'',\n"
            "                           False),\n"
            "          acc, [bytes([4]) + bitpack.pack_unsigned(codes, 4)],\n"
            "          [native.FOLD_SMALL | native.FOLD_BARE], acc)\n"
            "assert batch.run() == (1, 0)\n"
            "assert acc.tolist() == [0, -1, 1, -2, 2, -3, 3, -4]\n"
            "assert native._lib is None\n"
        )
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env=env)
