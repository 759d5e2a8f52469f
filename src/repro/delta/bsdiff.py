"""A BSDiff-style generic binary differ (Table I comparator).

Colin Percival's bsdiff ("Naive differences of executable code", the
paper's reference [6]) builds a suffix array over the old file, greedily
matches the new file against it, and emits three separately-compressed
streams: *control* (copy/insert lengths), *diff* (bytewise differences of
approximately-matching regions, which are near-zero and compress well),
and *extra* (unmatched literals).

This is a from-scratch reimplementation of that design:

* suffix array via the prefix-doubling algorithm, fully vectorized
  (O(n log^2 n));
* greedy longest-match scan with a minimum match length;
* control/diff/extra streams DEFLATE-compressed (the original uses
  bzip2; the stream structure is what matters).

As in the paper's Table I, the codec achieves the smallest sizes on many
inputs but is far slower than the array-aware deltas — it treats the
array as opaque bytes and cannot exploit cell structure.  It is
directional: the base cannot be recovered from the target.
"""

from __future__ import annotations

import numpy as np

from repro.compression.lz import lz_bytes, unlz_bytes
from repro.core import numeric
from repro.core.errors import CodecError
from repro.core.serial import pack_bytes, pack_i64, unpack_bytes, unpack_i64
from repro.delta.base import DeltaCodec

#: Matches shorter than this are treated as literals.
MIN_MATCH = 16


def suffix_array(data: np.ndarray) -> np.ndarray:
    """Suffix array of a uint8 sequence via prefix doubling."""
    n = len(data)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    rank = data.astype(np.int64)
    sa = np.argsort(rank, kind="stable")
    k = 1
    while k < n:
        # Secondary key: the rank of the suffix k positions later
        # (-1 past the end, which sorts first).
        key2 = np.full(n, -1, dtype=np.int64)
        key2[:n - k] = rank[k:]
        sa = np.lexsort((key2, rank))
        r1 = rank[sa]
        r2 = key2[sa]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        new_ranks = np.cumsum(changed)
        rank = np.empty(n, dtype=np.int64)
        rank[sa] = new_ranks
        if new_ranks[-1] == n - 1:
            break
        k *= 2
    return sa


class _Matcher:
    """Longest-match queries against a base byte string.

    Two-level search: an 8-byte big-endian prefix of every suffix (in
    suffix-array order the prefixes are sorted) lets ``np.searchsorted``
    reject positions with no 8-byte match in O(log n) C time — the
    common case on the mismatching stretches that dominate encode cost,
    and exact because MIN_MATCH exceeds 8.  Only when a prefix matches
    does the slower bytes-comparison binary search run, restricted to
    the tie range, and the surviving candidates' true lengths are
    extended with a zero-copy vectorized LCP.
    """

    window = 256

    def __init__(self, base: bytes):
        self.base = base
        self.base_view = np.frombuffer(base, dtype=np.uint8)
        self.sa = suffix_array(self.base_view)
        self.prefixes = _prefix8(self.base_view)[self.sa] \
            if len(base) else np.zeros(0, dtype=np.uint64)

    def prepare_target(self, target: bytes) -> None:
        """Precompute the target's per-position 8-byte prefixes."""
        self.target = target
        self.target_view = np.frombuffer(target, dtype=np.uint8)
        self.target_prefixes = _prefix8(self.target_view)

    def longest_match(self, scan: int) -> tuple[int, int]:
        """Longest base match for ``target[scan:]``; returns (pos, length)."""
        target = self.target
        target_view = self.target_view
        needle8 = self.target_prefixes[scan]
        lo = int(np.searchsorted(self.prefixes, needle8, side="left"))
        hi = int(np.searchsorted(self.prefixes, needle8, side="right"))
        if lo == hi:
            return 0, 0  # no 8-byte match anywhere: shorter than MIN_MATCH

        needle_key = target[scan:scan + self.window]
        while lo < hi:
            mid = (lo + hi) // 2
            pos = int(self.sa[mid])
            if self.base[pos:pos + self.window] < needle_key:
                lo = mid + 1
            else:
                hi = mid
        best_pos, best_len = 0, 0
        for index in (lo - 1, lo):
            if 0 <= index < len(self.sa):
                pos = int(self.sa[index])
                length = _lcp_arrays(target_view[scan:], self.base_view[pos:])
                if length > best_len:
                    best_pos, best_len = pos, length
        return best_pos, best_len


def _prefix8(view: np.ndarray) -> np.ndarray:
    """Big-endian uint64 of the first 8 bytes of every suffix (padded)."""
    padded = np.concatenate([view, np.zeros(8, dtype=np.uint8)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, 8)[:len(view)]
    weights = (np.uint64(256) ** np.arange(7, -1, -1, dtype=np.uint64))
    return windows.astype(np.uint64) @ weights




def _lcp_arrays(a: np.ndarray, b: np.ndarray) -> int:
    """Common-prefix length of two uint8 arrays (zero-copy views)."""
    limit = min(len(a), len(b))
    if limit == 0:
        return 0
    mismatch = np.flatnonzero(a[:limit] != b[:limit])
    return int(mismatch[0]) if mismatch.size else limit


class BSDiffDeltaCodec(DeltaCodec):
    """Suffix-array binary differ with diff/extra/control streams."""

    name = "bsdiff"
    bidirectional = False

    def encode(self, target: np.ndarray, base: np.ndarray) -> bytes:
        numeric.check_same_layout(np.asarray(target), np.asarray(base))
        target = np.ascontiguousarray(target)
        base = np.ascontiguousarray(base)
        target_bytes = target.tobytes()
        base_bytes = base.tobytes()

        matcher = _Matcher(base_bytes)
        matcher.prepare_target(target_bytes)
        control: list[tuple[int, int, int]] = []  # (copy_pos, copy_len, lit_len)
        diff = bytearray()
        extra = bytearray()

        scan = 0
        literal_start = 0
        n = len(target_bytes)
        while scan < n:
            pos, length = matcher.longest_match(scan)
            if length >= MIN_MATCH:
                literal = target_bytes[literal_start:scan]
                extra.extend(literal)
                control.append((pos, length, len(literal)))
                matched_new = np.frombuffer(
                    target_bytes, dtype=np.uint8, count=length, offset=scan)
                matched_old = np.frombuffer(
                    base_bytes, dtype=np.uint8, count=length, offset=pos)
                diff.extend((matched_new - matched_old).tobytes())
                scan += length
                literal_start = scan
            else:
                scan += 1
        extra.extend(target_bytes[literal_start:])
        control.append((0, 0, n - literal_start))

        control_bytes = b"".join(
            pack_i64(a) + pack_i64(b) + pack_i64(c) for a, b, c in control)
        mode = numeric.delta_mode_for(target.dtype)
        return b"".join([
            self._frame(target, mode),
            pack_bytes(lz_bytes(control_bytes)),
            pack_bytes(lz_bytes(bytes(diff))),
            pack_bytes(lz_bytes(bytes(extra))),
        ])

    def decode_forward(self, data: bytes, base: np.ndarray) -> np.ndarray:
        dtype, shape, _mode, offset = self._unframe(data, base)
        control_blob, offset = unpack_bytes(data, offset)
        diff_blob, offset = unpack_bytes(data, offset)
        extra_blob, offset = unpack_bytes(data, offset)
        self._check_consumed(offset, data)
        control_bytes = unlz_bytes(control_blob)
        diff = unlz_bytes(diff_blob)
        extra = unlz_bytes(extra_blob)
        base_bytes = np.ascontiguousarray(base).tobytes()

        output = bytearray()
        diff_at = 0
        extra_at = 0
        position = 0
        while position < len(control_bytes):
            copy_pos, position = unpack_i64(control_bytes, position)
            copy_len, position = unpack_i64(control_bytes, position)
            literal_len, position = unpack_i64(control_bytes, position)
            # Every length and position is read from the bytes: each
            # must land inside the stream it indexes, and the output
            # may not outgrow the array being rebuilt.
            if not (0 <= literal_len <= len(extra) - extra_at
                    and 0 <= copy_len <= len(diff) - diff_at
                    and 0 <= copy_pos <= len(base_bytes) - copy_len
                    and len(output) + literal_len + copy_len
                    <= len(base_bytes)):
                raise CodecError("bsdiff control stream is corrupt")
            output.extend(extra[extra_at:extra_at + literal_len])
            extra_at += literal_len
            if copy_len:
                old = np.frombuffer(base_bytes, dtype=np.uint8,
                                    count=copy_len, offset=copy_pos)
                delta = np.frombuffer(diff, dtype=np.uint8,
                                      count=copy_len, offset=diff_at)
                output.extend((old + delta).tobytes())
                diff_at += copy_len
        if len(output) != len(base_bytes):
            raise CodecError(
                f"bsdiff output is {len(output)} bytes, "
                f"expected {len(base_bytes)}")
        return np.frombuffer(bytes(output), dtype=dtype) \
            .reshape(shape).copy()
