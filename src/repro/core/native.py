"""Optional compiled kernels for the hottest encode *and* decode loops.

The numpy kernels in :mod:`repro.core.bitpack` and the planner's
shared-stats pass are bound by one structural cost: every logical step
is a whole-array numpy operation, so a chunk is streamed through the
cache once per step — the numpy encode path makes a dozen whole-array
passes and ~20 MiB of temporaries per 1 MiB chunk.  A scalar C loop
does the same work in one stream per kernel.

The write side costs what changed, not what the chunk holds.
:func:`delta_zigzag_stats` is the *analysis* pass — cell pair in,
delta code + width-histogram bucket out — one kernel family over every
cell type (signed / unsigned / bool of 1, 2, 4, 8 bytes as wrapping
int64 differences, float16/32/64 as xor of bit images), reading the
chunk in place from its canvas by ``(rows, cols, row_stride)``.  It
skips every 64-byte run equal to the base, codes only the cells of a
differing run whose bytes differ (read off the run's byte-difference
mask) and keeps only a *run list*: those cells' codes and the maximal
spans they form; on the insert path it also copies each differing run
of the new version over the hot slot's canvas (the base it just
read), which so becomes the new version without a whole-version copy.
:func:`pack_runs` is the one *pack*: it walks the run list — only real
codes, the gaps between spans leaving as bulk zeros — and emits the
dense section, the split's packed small codes and outlier table, or
the sparse table (the split at width 0);
:func:`pack_bits`, behind every other ``pack_unsigned`` call, is the
same kernel over one run of every value.

The read side is one call per chunk, with one C entry behind it.
:class:`ChunkFold` hands it a chunk's whole decode: it checks the root
payload's array header and every level's delta frame (and hybrid seal
byte) against the bytes the chunk implies, copies the root into one
contiguous run of cells — a contiguous canvas window, or the decode
thread's chunk buffer — parses every level out of its stored payload,
zigzag-decodes in register and applies it in place in the cell's own
width, and copies the cells into a strided window once.
:func:`fold_chain` is the same entry over sections already unframed,
folded in place.  The zigzag decode and the carry-register unpack
serve the level-by-level decoders.

**Byte-identity contract.**  The kernels are *pure accelerators*: they
are gated behind runtime compilation with the host C compiler and
every caller keeps its numpy path, which produces byte-identical
output (the equivalence is part of the test suite, width by width and
boundary value by boundary value).  No compiler, a failed compile, a
read-only tree, ``REPRO_NATIVE=0``, or an in-process
:func:`disabled` scope all degrade to numpy — behaviour, stored
bytes, fingerprints and test results are identical either way; only
throughput changes, so a build that failed under every cache root
says so once on the ``repro.native`` logger.  Every wrapper returns
``None`` (or ``False`` for in-place kernels) instead of raising when
its gate rejects the input, and callers fall through to numpy; the
write-side wrappers and the fold say why at ``debug``, once per
reason (:class:`ChunkFold` returns False, and its caller decodes the
long way).

The shared object is cached under ``.cache/native/`` next to the
package (keyed by a hash of the C source and the compiler flags —
``CFLAGS`` is honoured next to ``CC`` — so edits rebuild) and falls
back to a per-process temporary directory when the tree is not
writable.  Compilation happens at most once per process, lazily, on
the first kernel request; ctypes releases the GIL around every call.
"""

from __future__ import annotations

import array
import ctypes
import hashlib
import logging
import math
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* ---- Write side, pass 1: delta analysis --------------------------
 *
 * One kernel family over every cell type: the chunk is read in place
 * as `rows` runs of `cols` cells, `*_stride` bytes apart (a chunk of a
 * version canvas; rows = 1 for a contiguous array), through memcpy
 * loads so zero-copy payload views need no alignment.  Cells are taken
 * 64 bytes at a time: a run equal to the base is one compare and a
 * skip.  A run that differs yields its byte-difference mask (bit k set
 * when byte k differs; a row's tail shorter than a run builds the same
 * mask byte by byte), and only the cells with a set bit are coded,
 * zigzag of the wrapping int64 difference (ARITHMETIC) or the xor of
 * the bit images (XOR), and counted into the 65-bucket exact-bit-length
 * histogram.  Their codes go to `codes` back to back and the spans —
 * maximal stretches of differing cells, first cell (row-major index
 * into the chunk) and cell count — to `spans`; `*ncodes` is set to the
 * code count.  Two spans are at least one equal cell apart, so the
 * codes and spans of a chunk of n cells never take more than n and
 * n / 2 + 1 entries.  With `adopt` set each differing run of the target
 * is then copied over the base, which so ends holding the target:
 * equal runs already do.  Matches numpy's compute_delta ->
 * zigzag_encode -> width bincount bit for bit, with the codes outside
 * the spans (every equal cell's) left implicit.  The masks are built
 * in portable C (SWAR over eight 64-bit words) on a little-endian host;
 * the wrapper declines a big-endian one. */

/* Bit k of the result set when byte k of `d` is nonzero: OR each byte
 * down into its low bit, then gather the eight low bits with one
 * carry-free multiply. */
static inline uint64_t repro_nonzero_bytes(uint64_t d)
{
    d |= d >> 4;
    d |= d >> 2;
    d |= d >> 1;
    return ((d & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

/* Byte-difference mask of one 64-byte run: 0 when the run is equal. */
static inline uint64_t repro_diff64(const unsigned char *a,
                                    const unsigned char *b)
{
    uint64_t x[8], y[8], any = 0, mask = 0;
    memcpy(x, a, 64);
    memcpy(y, b, 64);
    for (int k = 0; k < 8; k++) {
        x[k] ^= y[k];
        any |= x[k];
    }
    if (!any)
        return 0;
    for (int k = 0; k < 8; k++)
        mask |= repro_nonzero_bytes(x[k]) << (8 * k);
    return mask;
}

/* The same mask over `nbytes` < 64 bytes. */
static inline uint64_t repro_diff_tail(const unsigned char *a,
                                       const unsigned char *b,
                                       int64_t nbytes)
{
    uint64_t mask = 0;
    for (int64_t k = 0; k < nbytes; k++)
        mask |= (uint64_t)(a[k] != b[k]) << k;
    return mask;
}

/* WIDEN: cell -> its int64 value's (or bit image's) uint64 image.
 * CELL is the mask bits of the run's first cell: after the lowest set
 * bit names cell j, shifting CELL by j * S (< 64) clears all of it. */
#define DELTA_KERNEL(NAME, T, WIDEN)                                   \
static int64_t NAME(const unsigned char *t, unsigned char *b,          \
                    int use_xor, int adopt, int64_t rows, int64_t cols,\
                    int64_t t_stride, int64_t b_stride,                \
                    uint64_t *codes, int64_t *spans, int64_t *hist,    \
                    int64_t *ncodes)                                   \
{                                                                      \
    enum { S = sizeof(T), RUN = 64 / sizeof(T) };                      \
    const uint64_t CELL = ~0ULL >> (64 - S);                           \
    uint64_t *const first_code = codes;                                \
    int64_t nspans = 0, end = -1;                                      \
    for (int64_t r = 0; r < rows; r++) {                               \
        const unsigned char *tr = t + r * t_stride;                    \
        unsigned char *br = b + r * b_stride;                          \
        /* A chunk row ends mid-page, where the hardware streamer      \
         * stops: each run asks for the same run of the next row. */   \
        int64_t ahead_t = r + 1 < rows ? t_stride : 0;                 \
        int64_t ahead_b = r + 1 < rows ? b_stride : 0;                 \
        for (int64_t i = 0; i < cols; i += RUN) {                      \
            const unsigned char *tp = tr + i * S;                      \
            unsigned char *bp = br + i * S;                            \
            __builtin_prefetch(tp + ahead_t);                          \
            __builtin_prefetch(bp + ahead_b);                          \
            int64_t bytes = cols - i < RUN ? (cols - i) * S : 64;      \
            uint64_t mask = bytes == 64 ? repro_diff64(tp, bp)         \
                : repro_diff_tail(tp, bp, bytes);                      \
            if (!mask)                                                 \
                continue;                                              \
            int64_t at = r * cols + i;                                 \
            do {                                                       \
                int64_t j = __builtin_ctzll(mask) / S;                 \
                mask &= ~(CELL << (j * S));                            \
                T tv, bv;                                              \
                memcpy(&tv, tp + j * S, S);                            \
                memcpy(&bv, bp + j * S, S);                            \
                uint64_t code;                                         \
                if (use_xor) {                                         \
                    code = WIDEN(tv) ^ WIDEN(bv);                      \
                } else {                                               \
                    /* zigzag: (d << 1) ^ (d >> 63) with the sign      \
                     * spread by negation, so no signed shift or       \
                     * overflow is involved. */                        \
                    uint64_t d = WIDEN(tv) - WIDEN(bv);                \
                    code = (d << 1) ^ (0 - (d >> 63));                 \
                }                                                      \
                *codes++ = code;                                       \
                if (code)                                              \
                    hist[64 - __builtin_clzll(code)]++;                \
                if (at + j == end) {                                   \
                    spans[2 * nspans - 1]++;                           \
                } else {                                               \
                    spans[2 * nspans] = at + j;                        \
                    spans[2 * nspans + 1] = 1;                         \
                    nspans++;                                          \
                }                                                      \
                end = at + j + 1;                                      \
            } while (mask);                                            \
            if (adopt)                                                 \
                memcpy(bp, tp, (size_t)bytes);                         \
        }                                                              \
    }                                                                  \
    *ncodes = codes - first_code;                                      \
    return nspans;                                                     \
}

#define AS_SIGNED(v) ((uint64_t)(int64_t)(v))
#define AS_UNSIGNED(v) ((uint64_t)(v))
#define AS_TRUTH(v) ((uint64_t)((v) != 0))
DELTA_KERNEL(repro_delta_i8, int8_t, AS_SIGNED)
DELTA_KERNEL(repro_delta_i16, int16_t, AS_SIGNED)
DELTA_KERNEL(repro_delta_i32, int32_t, AS_SIGNED)
DELTA_KERNEL(repro_delta_i64, int64_t, AS_SIGNED)
DELTA_KERNEL(repro_delta_u8, uint8_t, AS_UNSIGNED)
DELTA_KERNEL(repro_delta_u16, uint16_t, AS_UNSIGNED)
DELTA_KERNEL(repro_delta_u32, uint32_t, AS_UNSIGNED)
DELTA_KERNEL(repro_delta_u64, uint64_t, AS_UNSIGNED)
DELTA_KERNEL(repro_delta_bool, uint8_t, AS_TRUTH)

/* `kind` indexes the cell types in the order above (floats arrive as
 * the same-width unsigned kind with use_xor set).  Returns the span
 * count and sets `*ncodes`, or returns -1 for a kind this build does
 * not know.  Every cell without a code is code 0 (bucket 0), and so is
 * a bool cell whose bytes differ but whose truth does not. */
int64_t repro_delta_codes(const unsigned char *t, unsigned char *b,
                          int kind, int use_xor, int adopt, int64_t rows,
                          int64_t cols, int64_t t_stride, int64_t b_stride,
                          uint64_t *codes, int64_t *spans, int64_t *hist,
                          int64_t *ncodes)
{
    static int64_t (*const kernels[])(
        const unsigned char *, unsigned char *, int, int, int64_t,
        int64_t, int64_t, int64_t, uint64_t *, int64_t *, int64_t *,
        int64_t *) = {
        repro_delta_i8, repro_delta_i16, repro_delta_i32,
        repro_delta_i64, repro_delta_u8, repro_delta_u16,
        repro_delta_u32, repro_delta_u64, repro_delta_bool,
    };
    if (kind < 0 || kind >= (int)(sizeof kernels / sizeof kernels[0]))
        return -1;
    memset(hist, 0, 65 * sizeof(int64_t));
    int64_t nspans = kernels[kind](t, b, use_xor, adopt, rows, cols,
                                   t_stride, b_stride, codes, spans, hist,
                                   ncodes);
    int64_t nonzero = 0;
    for (int k = 1; k < 65; k++)
        nonzero += hist[k];
    hist[0] = rows * cols - nonzero;
    return nspans;
}

/* ---- Write side, pass 2: the pack -------------------------------- */
typedef struct {
    uint64_t *w;
    uint64_t acc;
    int64_t fill;
    int64_t bits;
} repro_stream;

/* Append one value to an LSB-first stream (any width 0..64: at 64 the
 * fill is always 0, at 0 nothing is ever stored). */
static inline void repro_push(repro_stream *s, uint64_t x)
{
    s->acc |= x << s->fill;
    s->fill += s->bits;
    if (s->fill >= 64) {
        *s->w++ = s->acc;
        s->fill -= 64;
        s->acc = s->fill ? x >> (s->bits - s->fill) : 0;
    }
}

/* Append `count` zero values. */
static inline void repro_push_zeros(repro_stream *s, int64_t count)
{
    int64_t fill = s->fill + count * s->bits;
    while (fill >= 64) {
        *s->w++ = s->acc;
        s->acc = 0;
        fill -= 64;
    }
    s->fill = fill;
}

/* The one pack, over a code array of `n` cells given as the analysis
 * pass leaves it: `ncodes` codes back to back for the `nspans` (first
 * cell, cell count) spans, every cell outside them code 0.  Writes the
 * dense stream of every code below 2**small_bits (zero at outlier
 * positions) and the outliers' positions and values, each packed
 * LSB-first at its own width: the gaps between spans go out as bulk
 * zeros, and an outlier's position is its span's first cell plus its
 * offset in the span.  small_bits = 0 stores no dense stream and makes
 * every nonzero code an outlier — the sparse codec's layout; a split
 * with no outliers is the dense layout, and one span over every cell
 * packs a plain array.  The caller sizes the three word buffers from
 * the width histogram (`outliers` codes need more than small_bits);
 * the return value is the outlier count found, or -1 the moment the
 * codes would overrun that count, a span is not ascending inside
 * [0, n) or the spans name more than `ncodes` codes, so a stale
 * histogram or a short code array can never read or write out of
 * bounds. */
int64_t repro_pack_runs(const uint64_t *codes, int64_t ncodes,
                        const int64_t *spans, int64_t nspans, int64_t n,
                        int64_t small_bits, int64_t position_bits,
                        int64_t value_bits, int64_t outliers,
                        uint64_t *small_words, uint64_t *position_words,
                        uint64_t *value_words)
{
    repro_stream small = {small_words, 0, 0, small_bits};
    repro_stream positions = {position_words, 0, 0, position_bits};
    repro_stream values = {value_words, 0, 0, value_bits};
    int64_t found = 0, at = 0;
    for (int64_t s = 0; s < nspans; s++) {
        int64_t first = spans[2 * s], count = spans[2 * s + 1];
        if (first < at || count < 0 || count > n - first
                || count > ncodes)
            return -1;
        ncodes -= count;
        repro_push_zeros(&small, first - at);
        for (int64_t j = 0; j < count; j++) {
            uint64_t x = *codes++;
            if (small_bits < 64 && (x >> small_bits)) {
                if (found == outliers)
                    return -1;
                found++;
                repro_push(&positions, (uint64_t)(first + j));
                repro_push(&values, x);
                x = 0;
            }
            repro_push(&small, x);
        }
        at = first + count;
    }
    repro_push_zeros(&small, n - at);
    if (small.fill)
        *small.w = small.acc;
    if (positions.fill)
        *positions.w = positions.acc;
    if (values.fill)
        *values.w = values.acc;
    return found;
}

/* Inverse zigzag over the uint64 bit image: 0,1,2,3 -> 0,-1,1,-2.
 * The output pointer is the two's-complement image of the int64
 * result, so no signed arithmetic (and no overflow UB) is involved. */
void repro_zigzag_decode(const uint64_t *c, uint64_t *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t v = c[i];
        out[i] = (v >> 1) ^ (0 - (v & 1));
    }
}

/* LSB-first bit stream unpack for widths 1..63: the carry-register
 * inverse of repro_pack_runs (width 64 is a plain dtype reinterpret
 * upstream and never reaches here).  The stream arrives as raw bytes
 * so the trailing partial word never reads past the buffer; the tail
 * is zero-extended exactly like the numpy word loader. */
void repro_unpack_bits(const unsigned char *src, int64_t nbytes,
                       int64_t n, int64_t bits, uint64_t *out)
{
    uint64_t mask = (1ULL << bits) - 1;
    int64_t full_words = nbytes / 8;
    int64_t wi = 0;
    uint64_t acc = 0;
    int64_t avail = 0;
    for (int64_t i = 0; i < n; i++) {
        if (avail < bits) {
            uint64_t nxt = 0;
            if (wi < full_words)
                memcpy(&nxt, src + wi * 8, 8);
            else
                memcpy(&nxt, src + wi * 8,
                       (size_t)(nbytes - wi * 8));
            wi++;
            /* avail < bits <= 63, so both shifts stay in range. */
            out[i] = (acc | (nxt << avail)) & mask;
            acc = nxt >> (bits - avail);
            avail += 64 - bits;
        } else {
            out[i] = acc & mask;
            acc >>= bits;
            avail -= bits;
        }
    }
}

/* ---- Read side: one chunk's decode --------------------------------
 *
 * One call rebuilds one chunk of the version being read: it copies the
 * base into `count` adjacent cells, folds every level of the delta
 * chain onto them and copies them into the destination window.  The
 * cells are a contiguous canvas window, or the decode thread's chunk
 * buffer, which stays in L2 across the levels where a window whose
 * rows sit a canvas row apart would not (or `accumulate`'s zeroed
 * 64-bit accumulator).  ctypes releases the GIL for the whole call.
 *
 * The base is a `none`-codec root payload — an array header, which
 * must equal the one the chunk implies byte for byte, then the cells —
 * or cells a held layer already resolved.  Each level is a whole
 * stored payload: the delta frame the chunk implies (compared byte for
 * byte), for hybrid one seal byte that must say "no LZ", then one
 * code-array section — `layout` says which parts it has:
 *
 *   FOLD_SMALL  u8 width, then `count` codes packed at it (dense, and
 *               hybrid's small codes: zero at outlier positions);
 *   FOLD_TABLE  i64 entries, u8 position width, u8 value width, the
 *               packed positions, the packed values (sparse, and
 *               hybrid's outliers).
 *
 * Codes are zigzag-decoded in register (ADD) or taken as they are
 * (XOR) and applied as `cell op= (cell_t)delta` in the cell's own
 * width: the deltas were computed mod 2^64 and mod 2^w is a ring
 * image of that, so the narrow fold is exact.  Nothing in the bytes is
 * trusted: the root header, every frame and seal byte are checked
 * before anything is written, and every width, the entry count and
 * every section length against `len` and `count` before the section
 * is read, every position before the cell is touched. */
enum {
    FOLD_SMALL = 1, FOLD_TABLE = 2, FOLD_SEALED = 4,
    FOLD_TRUNCATED = 1, FOLD_WIDTH, FOLD_ENTRIES, FOLD_POSITION,
    FOLD_TRAILING, FOLD_ARGUMENT,
    FOLD_DECLINED = 1
};

/* LSB-first reader of `bits`-wide values (0..64): the carry register
 * of repro_unpack_bits, pulled one value at a time so two streams can
 * advance in lock step.  The caller has checked that the stream holds
 * every value it pulls; the tail word is zero-extended. */
typedef struct {
    const unsigned char *src, *end;
    uint64_t acc, mask;
    int64_t avail, bits;
} repro_reader;

static inline repro_reader repro_reader_at(const unsigned char *src,
                                           int64_t nbytes, int64_t bits)
{
    repro_reader r = {src, src + nbytes, 0,
                      bits == 64 ? ~0ULL : (1ULL << bits) - 1, 0, bits};
    return r;
}

static inline uint64_t repro_pull(repro_reader *r)
{
    uint64_t v;
    if (r->avail < r->bits) {
        uint64_t nxt = 0;
        int64_t left = r->end - r->src;
        if (left >= 8) {
            memcpy(&nxt, r->src, 8);
            r->src += 8;
        } else if (left > 0) {
            memcpy(&nxt, r->src, (size_t)left);
            r->src = r->end;
        }
        /* avail < bits <= 64: the shift by avail stays in range, and
         * `taken` bits of nxt (1..64) are consumed by this value. */
        int64_t taken = r->bits - r->avail;
        v = (r->acc | (nxt << r->avail)) & r->mask;
        r->acc = taken < 64 ? nxt >> taken : 0;
        r->avail = 64 - taken;
    } else {
        v = r->acc & r->mask;
        r->acc >>= r->bits;
        r->avail -= r->bits;
    }
    return v;
}

#define FOLD_ADD(cell, c) \
    ((cell) + (((c) >> 1) ^ (0 - ((c) & 1))))
#define FOLD_XOR(cell, c) ((cell) ^ (c))

/* One level into one destination, for one cell width and operation. */
#define FOLD_KERNEL(NAME, T, OP)                                       \
static int NAME(unsigned char *dest, int64_t count,                    \
                const unsigned char *p, int64_t len, int layout)       \
{                                                                      \
    enum { S = sizeof(T) };                                            \
    int64_t at = 0;                                                    \
    if (layout & FOLD_SMALL) {                                         \
        if (len < 1)                                                   \
            return FOLD_TRUNCATED;                                     \
        int64_t bits = p[at++];                                        \
        if (bits > 64)                                                 \
            return FOLD_WIDTH;                                         \
        int64_t need = (count * bits + 7) / 8;                         \
        if (need > len - at)                                           \
            return FOLD_TRUNCATED;                                     \
        if (bits) {                                                    \
            repro_reader codes = repro_reader_at(p + at, need, bits);  \
            unsigned char *q = dest;                                   \
            for (int64_t i = 0; i < count; i++, q += S) {              \
                uint64_t c = repro_pull(&codes);                       \
                T cell;                                                \
                memcpy(&cell, q, S);                                   \
                cell = (T)OP((uint64_t)cell, c);                       \
                memcpy(q, &cell, S);                                   \
            }                                                          \
        }                                                              \
        at += need;                                                    \
    }                                                                  \
    if (layout & FOLD_TABLE) {                                         \
        if (len - at < 10)                                             \
            return FOLD_TRUNCATED;                                     \
        int64_t entries;                                               \
        memcpy(&entries, p + at, 8);                                   \
        int64_t position_bits = p[at + 8], value_bits = p[at + 9];     \
        at += 10;                                                      \
        if (entries < 0 || entries > count)                            \
            return FOLD_ENTRIES;                                       \
        if (position_bits > 64 || value_bits > 64)                     \
            return FOLD_WIDTH;                                         \
        int64_t position_bytes = (entries * position_bits + 7) / 8;    \
        int64_t value_bytes = (entries * value_bits + 7) / 8;          \
        if (position_bytes > len - at                                  \
                || value_bytes > len - at - position_bytes)            \
            return FOLD_TRUNCATED;                                     \
        repro_reader positions =                                       \
            repro_reader_at(p + at, position_bytes, position_bits);    \
        repro_reader values = repro_reader_at(                         \
            p + at + position_bytes, value_bytes, value_bits);         \
        for (int64_t i = 0; i < entries; i++) {                        \
            uint64_t where = repro_pull(&positions);                   \
            uint64_t c = repro_pull(&values);                          \
            if (where >= (uint64_t)count)                              \
                return FOLD_POSITION;                                  \
            unsigned char *q = dest + where * S;                       \
            T cell;                                                    \
            memcpy(&cell, q, S);                                       \
            cell = (T)OP((uint64_t)cell, c);                           \
            memcpy(q, &cell, S);                                       \
        }                                                              \
        at += position_bytes + value_bytes;                            \
    }                                                                  \
    return at == len ? 0 : FOLD_TRAILING;                              \
}

FOLD_KERNEL(repro_fold_add1, uint8_t, FOLD_ADD)
FOLD_KERNEL(repro_fold_add2, uint16_t, FOLD_ADD)
FOLD_KERNEL(repro_fold_add4, uint32_t, FOLD_ADD)
FOLD_KERNEL(repro_fold_add8, uint64_t, FOLD_ADD)
FOLD_KERNEL(repro_fold_xor1, uint8_t, FOLD_XOR)
FOLD_KERNEL(repro_fold_xor2, uint16_t, FOLD_XOR)
FOLD_KERNEL(repro_fold_xor4, uint32_t, FOLD_XOR)
FOLD_KERNEL(repro_fold_xor8, uint64_t, FOLD_XOR)

/* Copy `count` contiguous cells of `width` bytes into an `ndim`-d
 * window at `dst`: `geometry` holds its extents, then its byte
 * strides (any sign).  The caller has checked that the extents
 * multiply to `count`; offsets stay integers until a cell is copied. */
static void repro_to_window(unsigned char *dst, int64_t ndim,
                            const int64_t *geometry,
                            const unsigned char *src, int width,
                            int64_t count)
{
    if (ndim == 0) {
        memcpy(dst, src, (size_t)width);
        return;
    }
    const int64_t *extents = geometry, *strides = geometry + ndim;
    int64_t inner = extents[ndim - 1], step = strides[ndim - 1];
    int64_t row_bytes = inner * width;
    int64_t index[64] = {0};
    int64_t at = 0;
    for (int64_t done = 0; done < count; done += inner) {
        if (step == width) {
            memcpy(dst + at, src, (size_t)row_bytes);
        } else {
            for (int64_t j = 0; j < inner; j++)
                memcpy(dst + at + j * step, src + j * width,
                       (size_t)width);
        }
        src += row_bytes;
        for (int64_t d = ndim - 2; d >= 0; d--) {
            at += strides[d];
            if (++index[d] < extents[d])
                break;
            at -= strides[d] * extents[d];
            index[d] = 0;
        }
    }
}

/* The one read-side entry: rebuild one chunk of `count` cells of
 * `width` bytes.
 *
 *   base, base_len      the base: with `header_len` > 0 a root
 *                       payload of that header then the cells, else
 *                       the cells alone;
 *   header, frame       the array header and delta frame the chunk
 *                       implies (either may be empty);
 *   levels, level_desc  (address, length, layout) per level payload;
 *                       a layout with FOLD_SEALED has a seal byte;
 *   cells               contiguous cells the chain folds into (may be
 *                       the base itself: no copy), or NULL for a chain
 *                       of no levels, copied into the window directly;
 *   window, ndim,       the destination, NULL when it is `cells`:
 *   geometry            extents then byte strides (repro_to_window).
 *
 * `truth` (bool cells) turns every folded byte into 0 or 1.  Returns 0
 * when the chunk is in place, FOLD_DECLINED when the root header, a
 * frame or a seal byte is not the expected one (or the base is not
 * exactly header plus cells) — checked before anything is written, so
 * the caller can take the long way — or -(8 * level + reason) for the
 * first level that is not a well-formed section over `count` cells;
 * the cells are then partly folded and must be discarded, and the
 * window is untouched unless it is the cells. */
int64_t repro_fold_chain(unsigned char *cells, int width, int use_xor,
                         int truth, int64_t count,
                         const unsigned char *base, int64_t base_len,
                         const unsigned char *header, int64_t header_len,
                         const unsigned char *frame, int64_t frame_len,
                         int64_t levels, const int64_t *level_desc,
                         unsigned char *window, int64_t ndim,
                         const int64_t *geometry)
{
    static int (*const kernels[2][4])(
        unsigned char *, int64_t, const unsigned char *, int64_t,
        int) = {
        {repro_fold_add1, repro_fold_add2, repro_fold_add4,
         repro_fold_add8},
        {repro_fold_xor1, repro_fold_xor2, repro_fold_xor4,
         repro_fold_xor8},
    };
    int slot = width == 1 ? 0 : width == 2 ? 1 : width == 4 ? 2
        : width == 8 ? 3 : -1;
    /* 2^56 cells keep every count * bits below 2^63. */
    if (slot < 0 || count < 1 || count > (1LL << 56) || levels < 0
            || header_len < 0 || frame_len < 0
            || (levels > 0 && !cells) || (!cells && !window)
            || ndim < 0 || ndim > 64)
        return -FOLD_ARGUMENT;
    if (window) {
        int64_t cells_in = 1;
        for (int64_t d = 0; d < ndim; d++) {
            if (geometry[d] < 1 || geometry[d] > count / cells_in)
                return -FOLD_ARGUMENT;
            cells_in *= geometry[d];
        }
        if (cells_in != count)
            return -FOLD_ARGUMENT;
    }
    int64_t nbytes = count * width;
    /* memcmp is never handed an empty (possibly NULL) prefix. */
    if (base_len != header_len + nbytes
            || (header_len && memcmp(base, header, (size_t)header_len)))
        return FOLD_DECLINED;
    for (int64_t level = 0; level < levels; level++) {
        const unsigned char *p =
            (const unsigned char *)(intptr_t)level_desc[3 * level];
        int64_t len = level_desc[3 * level + 1];
        int sealed = (level_desc[3 * level + 2] & FOLD_SEALED) != 0;
        if (len < frame_len + sealed
                || (frame_len && memcmp(p, frame, (size_t)frame_len))
                || (sealed && p[frame_len] != 0))
            return FOLD_DECLINED;
    }
    const unsigned char *from = base + header_len;
    if (cells && cells != from)
        memcpy(cells, from, (size_t)nbytes);
    for (int64_t level = 0; level < levels; level++) {
        const int64_t *desc = level_desc + 3 * level;
        int64_t skip = frame_len + ((desc[2] & FOLD_SEALED) != 0);
        int reason = kernels[use_xor != 0][slot](
            cells, count, (const unsigned char *)(intptr_t)desc[0] + skip,
            desc[1] - skip, (int)(desc[2] & (FOLD_SMALL | FOLD_TABLE)));
        if (reason)
            return -(8 * level + reason);
    }
    if (truth && levels > 0)
        for (int64_t i = 0; i < nbytes; i++)
            cells[i] = cells[i] != 0;
    if (window)
        repro_to_window(window, ndim, geometry, cells ? cells : from,
                        width, count);
    return 0;
}
"""

_I64_P = ctypes.POINTER(ctypes.c_int64)
_U64_P = ctypes.POINTER(ctypes.c_uint64)
_U8_P = ctypes.POINTER(ctypes.c_uint8)

_log = logging.getLogger("repro.native")

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_tried = False
#: In-process override depth: > 0 forces every wrapper onto its numpy
#: fallback even when the library is loaded.  ``REPRO_NATIVE`` is read
#: once per process, so the bench native axis (and gating tests) use
#: :func:`disabled` to sweep both paths inside one process.
_disabled = 0


def _cache_dir() -> Path:
    """Build cache next to the repo tree, else a temp dir."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / ".cache" / "native"


def _compile() -> ctypes.CDLL | None:
    compiler = os.environ.get("CC", "cc")
    # CFLAGS follows the defaults so a build can add to or override
    # them (a sanitizer cell, -march=native); like the source it is
    # part of the cache key, so differently-built objects never mix.
    flags = ["-O3", "-shared", "-fPIC",
             *os.environ.get("CFLAGS", "").split()]
    digest = hashlib.sha256(
        "\0".join([_SOURCE, *flags]).encode()).hexdigest()[:16]
    failures = []
    for root in (_cache_dir(), Path(tempfile.gettempdir()) / "repro-native"):
        so_path = root / f"reprokernels-{digest}.so"
        try:
            if not so_path.exists():
                root.mkdir(parents=True, exist_ok=True)
                src = root / f"reprokernels-{digest}.c"
                src.write_text(_SOURCE)
                staging = root / f".build-{os.getpid()}-{digest}.so"
                subprocess.run(
                    [compiler, *flags, "-o", str(staging), str(src)],
                    check=True, capture_output=True, timeout=120)
                # Atomic publish: concurrent builders race benignly.
                os.replace(staging, so_path)
            lib = ctypes.CDLL(str(so_path))
        except (OSError, subprocess.SubprocessError) as exc:
            # CalledProcessError / TimeoutExpired name the command and
            # exit status themselves; the compiler's own words follow.
            stderr = (getattr(exc, "stderr", None) or b"").decode(
                errors="replace").strip().splitlines()[-3:]
            failures.append(" | ".join([f"{root}: {exc}", *stderr]))
            continue
        # Buffers go in as plain addresses (``array.ctypes.data``):
        # these two run once per chunk on the insert path, where a
        # typed ``data_as`` cast per argument is measurable.
        lib.repro_delta_codes.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int, ctypes.c_int,
            ctypes.c_int, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p]
        lib.repro_delta_codes.restype = ctypes.c_int64
        lib.repro_pack_runs.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        lib.repro_pack_runs.restype = ctypes.c_int64
        lib.repro_zigzag_decode.argtypes = [_U64_P, _U64_P,
                                            ctypes.c_int64]
        lib.repro_zigzag_decode.restype = None
        lib.repro_unpack_bits.argtypes = [
            _U8_P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _U64_P]
        lib.repro_unpack_bits.restype = None
        lib.repro_fold_chain.argtypes = [
            ctypes.c_void_p, ctypes.c_int, ctypes.c_int, ctypes.c_int,
            ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_char_p, ctypes.c_int64, ctypes.c_char_p,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
        lib.repro_fold_chain.restype = ctypes.c_int64
        return lib
    _log.warning("compiled kernels unavailable (CC=%s), numpy fallbacks"
                 " in use: %s", compiler, "; ".join(failures))
    return None


def _load() -> ctypes.CDLL | None:
    global _lib, _tried
    if _tried:
        return _lib
    with _lock:
        if not _tried:
            raw = os.environ.get("REPRO_NATIVE", "1")
            _lib = _compile() if raw != "0" else None
            _tried = True
    return _lib


@contextmanager
def disabled():
    """Force the numpy fallbacks for the duration of the block.

    ``REPRO_NATIVE`` is latched on first use, so it cannot sweep the
    native axis *within* one process; benches and gating tests use
    this instead.  The override is process-global (a depth counter, so
    scopes nest); it is not a per-thread isolation mechanism.
    """
    global _disabled
    _disabled += 1
    try:
        yield
    finally:
        _disabled -= 1


def available() -> bool:
    """Whether the compiled kernels are usable right now."""
    return _disabled == 0 and _load() is not None


def _active() -> ctypes.CDLL | None:
    """The library, unless unloadable or inside a :func:`disabled`
    scope — the single gate every wrapper consults first."""
    return None if _disabled else _load()


#: ``dtype.kind + itemsize`` -> (kernel index, xor mode): every cell
#: type :func:`repro.core.numeric.delta_mode_for` accepts.  Floats are
#: differenced as the same-width unsigned bit image.
_CELL_KINDS = {
    "i1": (0, 0), "i2": (1, 0), "i4": (2, 0), "i8": (3, 0),
    "u1": (4, 0), "u2": (5, 0), "u4": (6, 0), "u8": (7, 0),
    "b1": (8, 0),
    "f2": (5, 1), "f4": (6, 1), "f8": (7, 1),
}

#: (kernel, reason) pairs already reported by :func:`decline`.
_declined: set[tuple[str, str]] = set()


def decline(kernel: str, reason: str) -> None:
    """Say why a kernel's fast path was not taken — once per
    (kernel, reason), at debug, so a caller silently running its numpy
    path can be found without flooding the log."""
    if (kernel, reason) not in _declined:
        _declined.add((kernel, reason))
        _log.debug("native declined %s: %s", kernel, reason)
    return None


def _as_rows(array: np.ndarray
             ) -> tuple[np.ndarray, int, int, int] | None:
    """``(array, rows, cols, row_stride_bytes)``: ``array`` as equally
    spaced runs of adjacent cells — a contiguous array (one run), or a
    chunk view of a row-major canvas.  A window whose runs are more
    than one stride apart (a 3-d chunk view) comes back as a contiguous
    copy: one extra pass, still a fraction of the numpy path.  None
    when the cells of the last axis are not adjacent."""
    if array.flags.c_contiguous:
        return array, 1, array.size, 0
    if array.shape[-1] != 1 and array.strides[-1] != array.itemsize:
        return None
    # Drop unit extents, then merge axes that are adjacent in memory.
    dims = [(extent, stride)
            for extent, stride in zip(array.shape, array.strides)
            if extent != 1]
    merged = [dims[-1]]
    for extent, stride in reversed(dims[:-1]):
        inner_extent, inner_stride = merged[0]
        if stride == inner_extent * inner_stride:
            merged[0] = (extent * inner_extent, inner_stride)
        else:
            merged.insert(0, (extent, stride))
    if len(merged) == 1:
        (rows, stride), = merged
        return array, rows, 1, stride
    if len(merged) == 2 and merged[1][1] == array.itemsize:
        (rows, stride), (cols, _) = merged
        return array, rows, cols, stride
    return np.ascontiguousarray(array), 1, array.size, 0


def scratch_cells(n: int) -> int:
    """uint64 cells of scratch :func:`delta_zigzag_stats` needs to keep
    the run list of a chunk of ``n`` cells: ``n`` codes, then two
    entries for each of at most ``n // 2 + 1`` spans (every other cell
    changed)."""
    return n + 2 * (n // 2 + 1)


def delta_zigzag_stats(target: np.ndarray, base: np.ndarray, *,
                       out: np.ndarray | None = None, adopt: bool = False
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Fused delta + code + width histogram of one chunk, or None.

    The write path's analysis pass for every cell type
    :func:`repro.core.numeric.delta_mode_for` accepts, read in place:
    ``target`` and ``base`` may be row-strided views of their canvases
    (see :func:`_as_rows`).  Returns ``(codes, spans, width_counts)``,
    the *run list* of the chunk's flat code array — ``spans`` the
    ``(first cell, cell count)`` rows of the maximal stretches of cells
    whose bytes differ from the base's, ascending, and ``codes`` their
    codes back to back; every other code is 0 — and the count of codes
    per exact bit length, bit-identical to the numpy pipeline's.
    ``out`` (flat uint64, at least :func:`scratch_cells` long) holds
    the run list instead of a fresh array; the caller must be done with
    the previous contents.
    With ``adopt`` the writable ``base`` ends holding ``target``'s
    cells: the kernel copies each 64-byte run that holds a coded cell.
    """
    lib = _active()
    if lib is None:
        return None
    kernel = "delta_zigzag_stats"
    # The isinstance gate matters: numpy *scalars* (0-d arithmetic
    # results) satisfy the dtype/size checks but carry no ``.ctypes``
    # buffer interface.
    if not isinstance(target, np.ndarray) \
            or not isinstance(base, np.ndarray):
        return decline(kernel, "not an ndarray")
    if target.dtype != base.dtype or target.shape != base.shape:
        return decline(kernel, "dtype or shape mismatch")
    cell = _CELL_KINDS.get(target.dtype.kind + str(target.itemsize))
    if cell is None or not target.dtype.isnative:
        return decline(kernel, f"unsupported dtype {target.dtype}")
    n = target.size
    if n == 0:
        return decline(kernel, "empty")
    if sys.byteorder != "little":
        return decline(kernel, "big-endian host")
    sides = (_as_rows(target), _as_rows(base))
    if None in sides:
        return decline(kernel, "non-unit inner stride")
    # A contiguous side reads as rows of any length, so it adopts the
    # other side's (a chunk view of a canvas against a decoded root).
    rows, cols = next((side[1:3] for side in sides if side[1] > 1),
                      (1, n))
    strides = [side[3] if side[1:3] == (rows, cols)
               else cols * target.itemsize if side[1] == 1 else None
               for side in sides]
    if None in strides:
        return decline(kernel, "target and base rows differ")
    kind, use_xor = cell
    need = scratch_cells(n)
    if out is None or out.size < need or out.dtype != np.uint64 \
            or not out.flags.c_contiguous or not out.flags.writeable:
        out = np.empty(need, dtype=np.uint64)
    spans = out[n:need].view(np.int64)
    # The width histogram, then the code count in the last slot.
    tally = np.empty(66, dtype=np.int64)
    at = tally.ctypes.data
    # A base read through a copy (a 3-d window) is adopted afterwards.
    in_place = adopt and sides[1][0] is base
    count = lib.repro_delta_codes(
        sides[0][0].ctypes.data, sides[1][0].ctypes.data,
        kind, use_xor, in_place, rows, cols, *strides,
        out.ctypes.data, spans.ctypes.data, at, at + 65 * 8)
    if count < 0:
        return decline(kernel, "cell kind unknown to this build")
    if adopt and not in_place:
        np.copyto(base, target)
    return (out[:int(tally[65])], spans[:2 * count].reshape(count, 2),
            tally[:65])


def pack_runs(codes: np.ndarray, spans: np.ndarray, n: int,
              small_bits: int, outliers: int, value_bits: int
              ) -> tuple[memoryview, memoryview, memoryview] | None:
    """The split's three packed sections in one pass over a run list,
    or None.

    ``codes`` and ``spans`` are a run list of ``n`` cells as
    :func:`delta_zigzag_stats` returns it, ``outliers`` how many codes
    need more than ``small_bits`` bits and ``value_bits`` the width of
    the largest — both read off the width histogram the analysis pass
    already produced, never re-derived.  Returns the packed ``(small,
    positions, values)`` sections — views of one buffer — holding
    exactly the bytes :func:`repro.core.bitpack.pack_unsigned` would
    emit for the full code array masked at the outliers, the outlier
    positions and the outlier values; ``small_bits = 0`` is the sparse
    codec's layout (empty dense section, every nonzero code in the
    table), and ``small_bits`` = the widest code with no outliers the
    dense one.
    """
    lib = _active()
    if lib is None:
        return None
    kernel = "pack_runs"
    if not isinstance(codes, np.ndarray) or codes.dtype != np.uint64 \
            or codes.ndim != 1 or not codes.flags.c_contiguous:
        return decline(kernel, "codes are not a flat uint64 array")
    if not isinstance(spans, np.ndarray) or spans.dtype != np.int64 \
            or spans.ndim != 2 or spans.shape[1] != 2 \
            or not spans.flags.c_contiguous:
        return decline(kernel, "spans are not (first, count) int64 rows")
    if n <= 0:
        return decline(kernel, "empty")
    if sys.byteorder != "little":
        return decline(kernel, "big-endian host")
    if not (0 <= small_bits <= 64 and 0 <= value_bits <= 64
            and 0 <= outliers <= n):
        return decline(kernel, "split parameters out of range")
    position_bits = (n - 1).bit_length()
    sections = [(n * small_bits + 7) // 8,
                (outliers * position_bits + 7) // 8,
                (outliers * value_bits + 7) // 8]
    # One allocation; each section starts on a word boundary.
    small, positions = ((nbytes + 7) // 8 * 8 for nbytes in sections[:2])
    starts = (0, small, small + positions)
    words = np.empty((starts[2] + sections[2] + 7) // 8, dtype=np.uint64)
    at = words.ctypes.data
    found = lib.repro_pack_runs(
        codes.ctypes.data, codes.size, spans.ctypes.data, spans.shape[0],
        n, small_bits, position_bits, value_bits, outliers,
        at + starts[0], at + starts[1], at + starts[2])
    if found != outliers:
        return decline(kernel, "the spans or the outlier count disagree"
                               " with the codes")
    packed = memoryview(words).cast("B")
    return tuple(packed[start:start + nbytes]
                 for start, nbytes in zip(starts, sections))


def pack_bits(values: np.ndarray, bits: int) -> np.ndarray | None:
    """LSB-first packed word array of ``values`` at ``bits``, or None.

    ``values`` must be flat, C-contiguous uint64 already validated to
    fit ``bits`` (the caller, :func:`repro.core.bitpack.pack_unsigned`,
    checks).  The pack kernel over one span of every value, with no
    outliers; byte-identical to the numpy block kernel.
    """
    lib = _active()
    if (lib is None or not isinstance(values, np.ndarray)
            or values.dtype != np.uint64 or not values.flags.c_contiguous
            or values.size == 0 or not 0 < bits <= 64):
        return None
    n = values.size
    words = np.empty((n * bits + 63) // 64, dtype=np.uint64)
    whole = np.array([[0, n]], dtype=np.int64)
    if lib.repro_pack_runs(values.ctypes.data, n, whole.ctypes.data, 1,
                           n, bits, 0, 0, 0, words.ctypes.data, None,
                           None) != 0:
        return None
    return words


def zigzag_decode(codes: np.ndarray) -> np.ndarray | None:
    """Signed int64 deltas from flat uint64 zigzag codes, or None.

    The decode-side inverse of the fused delta kernel's code stream;
    bit-identical to :func:`repro.core.bitpack.zigzag_decode`.
    """
    lib = _active()
    if (lib is None or not isinstance(codes, np.ndarray)
            or codes.dtype != np.uint64
            or not codes.flags.c_contiguous or codes.size == 0):
        return None
    out = np.empty(codes.size, dtype=np.int64)
    lib.repro_zigzag_decode(
        codes.ctypes.data_as(_U64_P), out.ctypes.data_as(_U64_P),
        ctypes.c_int64(codes.size))
    return out


def unpack_bits(data, bits: int, count: int) -> np.ndarray | None:
    """``count`` uint64 codes from an LSB-first packed stream, or None.

    ``data`` is the raw packed byte buffer already length-validated by
    the caller (:func:`repro.core.bitpack.unpack_unsigned`); any width
    1..63 is handled by the one carry-register loop (64 never gets
    here — it is a dtype reinterpret upstream).  Byte-identical to the
    numpy gather/blocked kernels.
    """
    lib = _active()
    if lib is None or not 0 < bits < 64 or count <= 0 \
            or sys.byteorder != "little":
        return None
    try:
        raw = np.frombuffer(data, dtype=np.uint8)
    except (ValueError, BufferError):
        return None
    out = np.empty(count, dtype=np.uint64)
    lib.repro_unpack_bits(
        raw.ctypes.data_as(_U8_P), ctypes.c_int64(raw.size),
        ctypes.c_int64(count), ctypes.c_int64(bits),
        out.ctypes.data_as(_U64_P))
    return out


#: ``layouts`` bits of :func:`fold_chain` and :class:`ChunkFold`: the
#: parts one code-array payload section has (the C side's
#: ``FOLD_SMALL`` / ``FOLD_TABLE``), and — whole stored payloads only —
#: a seal byte between the frame and the section that must say "no LZ".
FOLD_SMALL = 1
FOLD_TABLE = 2
FOLD_SEALED = 4

#: The C entry's status for a base or level whose prefix is not the
#: expected one, refused before anything was written.
_FOLD_DECLINED = 1

_frombuffer = np.frombuffer
_BYTE = np.uint8


def _level_table(payloads: list, layouts: list[int]) -> array.array:
    """The ``(address, length, layout)`` int64 rows the C entry reads
    its levels from (its address: ``buffer_info()[0]``).  The rows hold
    plain addresses: the caller keeps the payloads alive for the
    call."""
    rows = []
    for payload, layout in zip(payloads, layouts):
        raw = _frombuffer(payload, _BYTE)
        rows += (raw.ctypes.data, raw.size, layout)
    return array.array("q", rows)


def fold_chain(dest: np.ndarray, sections: list, layouts: list[int],
               use_xor: bool) -> int | None:
    """Fold a chain's code-array sections into ``dest`` in place.

    ``dest`` is C-contiguous and holds the decoded root in the cell's
    own dtype, or a zeroed 64-bit accumulator, and every level
    (``sections[i]`` any bytes-like object, ``layouts[i]`` its
    ``FOLD_SMALL`` / ``FOLD_TABLE`` parts, already unframed and
    unsealed) is parsed, zigzag-decoded unless ``use_xor`` and applied
    as wrapping add / xor at the cell width — the read side's one C
    entry with ``dest`` as its own base and no window.  Returns 0 when
    every level folded, ``-(8 * level + reason)`` for the first
    malformed one (reason 1: a section overruns its payload, 2: a bit
    width above 64, 3: more table entries than cells, 4: a position
    outside the chunk, 5: trailing bytes; ``dest`` is then partly
    folded — discard it), or None when the gate declined and the
    caller must run the numpy fold.
    """
    lib = _active()
    kernel = "fold_chain"
    if lib is None:
        return decline(kernel, "kernels disabled or unavailable")
    if sys.byteorder != "little":
        return decline(kernel, "big-endian host")
    if not isinstance(dest, np.ndarray) or not dest.flags.writeable:
        return decline(kernel, "destination is not a writable ndarray")
    if dest.itemsize not in (1, 2, 4, 8) or dest.dtype.kind not in "iubf":
        return decline(kernel, f"unsupported dtype {dest.dtype}")
    if not dest.dtype.isnative:
        return decline(kernel, f"byte-swapped dtype {dest.dtype}")
    if dest.size == 0:
        return decline(kernel, "empty")
    if not dest.flags.c_contiguous:
        return decline(kernel, "destination is not C-contiguous")
    table = _level_table(sections, layouts)
    at = dest.ctypes.data
    return lib.repro_fold_chain(
        at, dest.itemsize, use_xor, 0, dest.size, at, dest.nbytes, None,
        0, None, 0, len(sections), table.buffer_info()[0], None, 0, None)


class ChunkFold:
    """One chunk's whole decode as one native call, for chunks of one
    ``(dtype, shape)`` (build it once, with :func:`chunk_fold`).

    A call copies the base into contiguous cells, checks and folds
    every level of a delta chain onto them and copies them into the
    destination window, all in C with the GIL released.  The base is
    the chain's root payload of the ``none`` compressor — ``header``,
    then the cells — or an ndarray of cells a held layer resolved; a
    level is a whole stored delta payload: ``frame``, a seal byte when
    its layout has :data:`FOLD_SEALED`, then its section.  The header,
    each frame and each seal byte are compared with the expected bytes
    before anything is written, so a refusal leaves the caller free to
    decode the long way."""

    __slots__ = ("dtype", "shape", "count", "_header", "_frame", "_cell")

    def __init__(self, dtype: np.dtype, shape: tuple[int, ...],
                 header: bytes, frame: bytes, use_xor: bool):
        self.dtype = dtype
        self.shape = shape
        self.count = math.prod(shape)
        self._header = header
        self._frame = frame
        self._cell = (dtype.itemsize, int(use_xor), int(dtype.kind == "b"),
                      self.count)

    def __call__(self, base, payloads: list, layouts: list[int],
                 cells: np.ndarray | None,
                 window: np.ndarray | None = None) -> bool:
        """Rebuild one chunk; whether it is in place.

        ``payloads`` are the levels to fold (any order: they commute),
        ``layouts`` their ``FOLD_*`` bits.  ``cells`` are contiguous
        cells of this chunk's layout to fold in — the base's own
        cells fold in place — or None for no levels, the base then
        copied straight into ``window``.  ``window`` is a writable
        view of this layout (any strides) that receives the cells,
        None when ``cells`` are the destination.  False means nothing
        usable was produced: the kernels are off, a prefix is not the
        expected one, or a level is malformed (``cells`` are then
        partly folded) — decode the long way, which names the fault.
        """
        lib = _active()
        refusal = "kernels disabled or unavailable" if lib is None \
            else self._refusal(base, cells, window)
        if refusal:
            decline("fold_chain", refusal)
            return False
        width, use_xor, truth, count = self._cell
        if type(base) is np.ndarray:
            header, base_at, base_len = None, base.ctypes.data, base.nbytes
        else:
            raw = _frombuffer(base, _BYTE)
            header, base_at, base_len = \
                self._header, raw.ctypes.data, raw.size
        geometry = window_at = None
        ndim = 0
        if window is not None:
            ndim = window.ndim
            geometry = array.array("q", window.shape + window.strides)
            window_at = window.ctypes.data
        table = _level_table(payloads, layouts) if payloads else None
        status = lib.repro_fold_chain(
            None if cells is None else cells.ctypes.data, width, use_xor,
            truth, count, base_at, base_len, header,
            0 if header is None else len(header), self._frame,
            len(self._frame), len(payloads),
            None if table is None else table.buffer_info()[0], window_at,
            ndim, None if geometry is None else geometry.buffer_info()[0])
        if status:
            decline("fold_chain", "a root header, frame or seal byte is"
                                  " not the expected one"
                    if status == _FOLD_DECLINED else "a malformed level")
        return not status


    def _refusal(self, base, cells: np.ndarray | None,
                 window: np.ndarray | None) -> str | None:
        """Why the arrays a call is handed are not this layout's cells
        as the C entry needs them, or None."""
        def cells_of_the_chunk(array: np.ndarray) -> bool:
            return array.dtype == self.dtype and array.shape == self.shape
        if type(base) is np.ndarray and not (
                cells_of_the_chunk(base) and base.flags.c_contiguous):
            return "base is not contiguous cells of the chunk's layout"
        if cells is not None and not (
                cells_of_the_chunk(cells) and cells.flags.c_contiguous
                and cells.flags.writeable):
            return "cells are not writable contiguous cells of the chunk"
        if window is not None and not (
                cells_of_the_chunk(window) and window.flags.writeable):
            return "window is not a writable view of the chunk's layout"
        return None


def chunk_fold(dtype: np.dtype, shape: tuple[int, ...], header: bytes,
               frame: bytes, use_xor: bool) -> ChunkFold | None:
    """The :class:`ChunkFold` of chunks of ``(dtype, shape)``, or None
    when no kernel folds that cell type on this host.  ``header`` and
    ``frame`` are the array header and the delta frame such a chunk's
    root and levels start with."""
    dtype = np.dtype(dtype)
    if dtype.itemsize not in (1, 2, 4, 8) or dtype.kind not in "iubf" \
            or not dtype.isnative or sys.byteorder != "little" \
            or 0 in shape:
        return None
    return ChunkFold(dtype, tuple(shape), header, frame, use_xor)
