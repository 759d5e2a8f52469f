"""Optional compiled kernels for the hottest encode *and* decode loops.

The numpy forms — :mod:`repro.core.bitpack`'s word kernels and the
two faces' numpy forms built on :mod:`repro.delta.codes` — are bound
by one structural cost: every logical step is a whole-array numpy
operation, so a chunk is streamed through the cache once per step
— the numpy encode makes a dozen whole-array passes and ~20 MiB of
temporaries per 1 MiB chunk.  A scalar C loop does the same work in one
stream.  The library has two entries, one per direction, each with one
Python face.

The write side costs what changed, not what the chunk holds, and is
one call per chunk, :class:`ChunkEncode` (C entry
``repro_encode_chunk``).  Its *analysis* pass — cell pair in, delta
code + width-histogram bucket out — is one kernel family over every
cell type (signed / unsigned / bool of 1, 2, 4, 8 bytes as wrapping
int64 differences, float16/32/64 as xor of bit images), reading the
chunk in place from its canvas by ``(rows, cols, row_stride)``, or
through a contiguous copy where a window cannot be read that way.  It
skips every 64-byte run equal to the base, codes only the cells of a
differing run whose bytes differ (read off the run's byte-difference
mask) and keeps only a *run list*: those cells' codes and the maximal
spans they form; on the insert path it also copies each differing run
of the new version over the hot slot's canvas (the base it just read),
which so becomes the new version without a whole-version copy.  Every
representation is then sized off the histogram, and the *pack* walks
the run list — only real codes, the gaps between spans leaving as bulk
zeros — to emit one of them: the cheapest (ties to the earlier, the
materialized form first), a named candidate whatever its size (a
codec's own ``encode``, a ``hybrid+lz`` candidate's sections, which
Python seals), or none (the Materialization Matrix's prices).

The read side is one call per batch of chunks, :class:`FoldBatch`
(C entry ``repro_fold_chain``; chunks laid out by a
:class:`ChunkFold`).  It hands the entry every chunk's whole decode
as tables — a descriptor per chunk, a buffer slot and layout per
level, the address and length of every buffer — and per chunk the
entry checks the root payload's array header and every level's delta
frame (and hybrid seal byte) against the bytes the chunk implies,
copies the root into one contiguous run of cells — a contiguous
canvas window, cells of the chunk's own, or the decode thread's chunk
buffer — parses every level out of its stored payload (or out of a
bare section, a level the caller unframed and unsealed itself),
zigzag-decodes in register and applies it in place in the cell's own
width, and copies the cells, or the box of them a read cuts, into a
strided window once.  A codec's one-level ``decode_forward`` is a
batch of one chunk.

**Byte-identity contract.**  The kernels are *pure accelerators*: they
are gated behind runtime compilation with the host C compiler and
each face keeps its numpy form, which produces byte-identical output
(the equivalence is part of the test suite, width by width and
boundary value by boundary value).  No compiler, a failed compile, a
read-only tree, ``REPRO_NATIVE=0``, or an in-process
:func:`disabled` scope all degrade to numpy — behaviour, stored
bytes, fingerprints and test results are identical either way; only
throughput changes, so a build that failed under every cache root
says so once on the ``repro.native`` logger.  No caller checks:
:class:`ChunkEncode` and :class:`FoldBatch` each run their numpy form
themselves where the C entry does not take a call — kernels off, a
big-endian host, a byte-swapped cell type, an empty chunk
(:func:`_unfit`, one rule for both), or for the encode more candidates
than it sizes — and say why at ``debug``, once per reason.

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
from typing import NamedTuple

import numpy as np

from repro.core.errors import CodecError, DeltaLevelError

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
 * the same-width unsigned kind with use_xor set; the encode entry has
 * checked it).  Returns the span count and sets `*ncodes`.  Every cell
 * without a code is code 0 (bucket 0), and so is a bool cell whose
 * bytes differ but whose truth does not. */
static int64_t repro_delta_codes(const unsigned char *t, unsigned char *b,
                                 int kind, int use_xor, int adopt,
                                 int64_t rows, int64_t cols,
                                 int64_t t_stride, int64_t b_stride,
                                 uint64_t *codes, int64_t *spans,
                                 int64_t *hist, int64_t *ncodes)
{
    static int64_t (*const kernels[])(
        const unsigned char *, unsigned char *, int, int, int64_t,
        int64_t, int64_t, int64_t, uint64_t *, int64_t *, int64_t *,
        int64_t *) = {
        repro_delta_i8, repro_delta_i16, repro_delta_i32,
        repro_delta_i64, repro_delta_u8, repro_delta_u16,
        repro_delta_u32, repro_delta_u64, repro_delta_bool,
    };
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

/* What a delta level's payload holds past its frame: the sections the
 * fold reads and the encode writes, and a seal byte before them.  The
 * fold also takes FOLD_BARE: a level that is its sections alone, its
 * frame and seal already stripped and checked by the caller. */
enum { FOLD_SMALL = 1, FOLD_TABLE = 2, FOLD_SEALED = 4, FOLD_BARE = 8 };

/* ---- Write side, pass 2: the pack --------------------------------
 *
 * A stream writes whole 64-bit words through memcpy, so it may start at
 * any byte, and its last partial word only as the bytes it fills: the
 * encode entry packs sections back to back in one payload. */
typedef struct {
    unsigned char *w;
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
        memcpy(s->w, &s->acc, 8);
        s->w += 8;
        s->fill -= 64;
        s->acc = s->fill ? x >> (s->bits - s->fill) : 0;
    }
}

/* Append `count` zero values. */
static inline void repro_push_zeros(repro_stream *s, int64_t count)
{
    int64_t fill = s->fill + count * s->bits;
    while (fill >= 64) {
        memcpy(s->w, &s->acc, 8);
        s->w += 8;
        s->acc = 0;
        fill -= 64;
    }
    s->fill = fill;
}

/* Write the partial word left in the stream: its filled bytes only. */
static inline void repro_flush(repro_stream *s)
{
    if (s->fill)
        memcpy(s->w, &s->acc, (size_t)(s->fill + 7) / 8);
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
 * with no outliers is the dense layout.  The caller sizes the three
 * sections from the width histogram (`outliers` codes need more than
 * small_bits);
 * the return value is the outlier count found, or -1 the moment the
 * codes would overrun that count, a span is not ascending inside
 * [0, n) or the spans name more than `ncodes` codes, so a stale
 * histogram or a short code array can never read or write out of
 * bounds. */
static int64_t repro_pack_runs(const uint64_t *codes, int64_t ncodes,
                               const int64_t *spans, int64_t nspans,
                               int64_t n, int64_t small_bits,
                               int64_t position_bits, int64_t value_bits,
                               int64_t outliers, unsigned char *small_out,
                               unsigned char *position_out,
                               unsigned char *value_out)
{
    repro_stream small = {small_out, 0, 0, small_bits};
    repro_stream positions = {position_out, 0, 0, position_bits};
    repro_stream values = {value_out, 0, 0, value_bits};
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
    repro_flush(&small);
    repro_flush(&positions);
    repro_flush(&values);
    return found;
}

/* ---- Write side: one chunk's encode ------------------------------
 *
 * One call makes a chunk's whole encode: the analysis pass above
 * (adopting the target into the base when asked), every
 * representation sized from the 65-bucket histogram alone, and one
 * packed behind its prefix into `out` — its numpy form's
 * (repro.delta.codes._encode_numpy) winner and payload byte for byte.
 * ctypes releases the GIL for the whole call.
 *
 * A delta's payload is the frame, for hybrid one seal byte saying "no
 * LZ", then the sections `layout` names — the parts the fold reads:
 *
 *   FOLD_SMALL alone    dense: u8 width, every code at the widest;
 *   FOLD_TABLE alone    sparse: the outlier table of the split at 0;
 *   both                hybrid: u8 width, the small codes, the table,
 *                       split at the cheapest width (the narrowest of
 *                       equally cheap ones);
 *
 * an outlier table being i64 entries, u8 position width, u8 value
 * width, the packed positions and the packed values.  A FOLD_BARE
 * candidate is its sections alone, without frame or seal byte (what an
 * LZ stage seals, or the Materialization Matrix prices).  The
 * materialized form is the `none` compressor's — the array header,
 * then the cells — unless the caller made it and gives its size.  It
 * comes first in the race and a candidate replaces the one before it
 * only when strictly smaller. */
enum { ENCODE_DECLINED = -1, ENCODE_BROKEN = -2, ENCODE_SHORT = -3,
       ENCODE_CANDIDATES = 8 };
/* The `pack` modes past a candidate's index. */
enum { ENCODE_RACE = -1, ENCODE_SIZE = -2 };

static const int64_t repro_cell_bytes[] = {1, 2, 4, 8, 1, 2, 4, 8, 1};

static inline int64_t repro_packed(int64_t count, int64_t bits)
{
    return (count * bits + 7) / 8;
}

/* A code array's order statistics, off its width histogram. */
typedef struct {
    int64_t n, max_bits, nonzero, position_bits;
    int64_t at_most[65];     /* codes of at most d bits */
} repro_stats;

/* Codes the split at `d` keeps as outliers.  At d = 64 (reached only
 * when some code is 64 bits wide) every code counts, as in the
 * sort-based reference search: its 1 << 64 threshold wraps to 0. */
static inline int64_t repro_outliers(const repro_stats *s, int64_t d)
{
    return d == 64 ? s->n : s->n - s->at_most[d];
}

/* Byte size of the sections of `layout`, and the split they pack at. */
static int64_t repro_section_size(const repro_stats *s, int layout,
                                  int64_t *small_bits, int64_t *outliers)
{
    if (!(layout & FOLD_TABLE)) {
        *small_bits = s->max_bits;
        *outliers = 0;
        return 1 + repro_packed(s->n, s->max_bits);
    }
    if (!(layout & FOLD_SMALL)) {
        *small_bits = 0;
        *outliers = s->nonzero;
        return 10 + repro_packed(s->nonzero, s->position_bits)
            + repro_packed(s->nonzero, s->max_bits);
    }
    int64_t best = -1;
    for (int64_t d = 0; d <= s->max_bits; d++) {
        int64_t out = repro_outliers(s, d);
        int64_t cost = 11 + repro_packed(s->n, d)
            + repro_packed(out, s->position_bits)
            + repro_packed(out, s->max_bits);
        if (best < 0 || cost < best) {
            best = cost;
            *small_bits = d;
            *outliers = out;
        }
    }
    return best;
}

/* Pack the sections of `layout` at `p`; their byte count, or -1 when
 * the run list disagrees with the histogram. */
static int64_t repro_pack_sections(const uint64_t *codes, int64_t ncodes,
                                   const int64_t *spans, int64_t nspans,
                                   const repro_stats *s, int layout,
                                   int64_t small_bits, int64_t outliers,
                                   unsigned char *p)
{
    unsigned char *const start = p;
    unsigned char *small = NULL, *positions = NULL, *values = NULL;
    int64_t value_bits = outliers ? s->max_bits : 0;
    if (layout & FOLD_SMALL) {
        *p++ = (unsigned char)small_bits;
        small = p;
        p += repro_packed(s->n, small_bits);
    }
    if (layout & FOLD_TABLE) {
        memcpy(p, &outliers, 8);
        p[8] = (unsigned char)s->position_bits;
        p[9] = (unsigned char)value_bits;
        positions = p + 10;
        values = positions + repro_packed(outliers, s->position_bits);
        p = values + repro_packed(outliers, value_bits);
    }
    if (repro_pack_runs(codes, ncodes, spans, nspans, s->n, small_bits,
                        s->position_bits, value_bits, outliers, small,
                        positions, values) != outliers)
        return -1;
    return p - start;
}

/* The one write-side entry: encode one chunk of rows x cols cells of
 * cell kind `kind` (repro_delta_codes), `target` against `base`.
 *
 *   header, frame       the materialized prefix (array header) and the
 *                       delta frame the chunk implies;
 *   layouts             the candidates' layouts in the race's order,
 *                       FOLD_SEALED for a seal byte after the frame,
 *                       FOLD_BARE for the sections alone;
 *   pack                ENCODE_RACE: pack the cheapest representation;
 *                       a candidate's index: pack it whatever its size;
 *                       ENCODE_SIZE: pack nothing;
 *   materialized        the materialized form's size when the caller
 *                       made it (it then packs as nothing), or -1: the
 *                       `none` compressor's, packed here;
 *   scratch             the run list: rows * cols codes, then room for
 *                       rows * cols / 2 + 1 spans;
 *   out, out_len        the payload;
 *   result              the race's winner (-1 materialized, else the
 *                       candidate's index), then every candidate's
 *                       size.
 *
 * Returns the payload's length; ENCODE_DECLINED for arguments it does
 * not take, before anything is read or written; ENCODE_SHORT when the
 * payload would not fit `out_len`, before `out` is written;
 * ENCODE_BROKEN if the pack disagrees with the histogram, which cannot
 * happen.  After the analysis the base may hold the target, so neither
 * of those two is a decline. */
int64_t repro_encode_chunk(const unsigned char *target,
                           unsigned char *base, int kind, int use_xor,
                           int adopt, int64_t rows, int64_t cols,
                           int64_t t_stride, int64_t b_stride,
                           const unsigned char *header, int64_t header_len,
                           const unsigned char *frame, int64_t frame_len,
                           int64_t ncandidates, const int64_t *layouts,
                           int64_t pack, int64_t materialized,
                           uint64_t *scratch, unsigned char *out,
                           int64_t out_len, int64_t *result)
{
    if (kind < 0
            || kind >= (int)(sizeof repro_cell_bytes
                             / sizeof repro_cell_bytes[0])
            || rows < 1 || cols < 1 || rows > (1LL << 56) / cols
            || header_len < 0 || frame_len < 0 || ncandidates < 1
            || ncandidates > ENCODE_CANDIDATES || pack < ENCODE_SIZE
            || pack >= ncandidates || materialized < -1)
        return ENCODE_DECLINED;
    for (int64_t c = 0; c < ncandidates; c++)
        if ((layouts[c] & ~(int64_t)(FOLD_SMALL | FOLD_TABLE | FOLD_SEALED
                                     | FOLD_BARE))
                || !(layouts[c] & (FOLD_SMALL | FOLD_TABLE))
                || (layouts[c] & FOLD_BARE && layouts[c] & FOLD_SEALED))
            return ENCODE_DECLINED;
    int64_t n = rows * cols, width = repro_cell_bytes[kind];
    int64_t mine = materialized < 0;
    if (mine)
        materialized = header_len + n * width;

    int64_t hist[65], ncodes;
    int64_t *spans = (int64_t *)(scratch + n);
    int64_t nspans = repro_delta_codes(target, base, kind, use_xor, adopt,
                                       rows, cols, t_stride, b_stride,
                                       scratch, spans, hist, &ncodes);
    repro_stats s = {n, 0, n - hist[0], n > 1 ? 64 - __builtin_clzll(
                         (uint64_t)(n - 1)) : 0, {0}};
    int64_t below = 0;
    for (int d = 0; d < 65; d++) {
        below += hist[d];
        s.at_most[d] = below;
        if (hist[d])
            s.max_bits = d;
    }

    int64_t *sizes = result + 1, small_bits[ENCODE_CANDIDATES];
    int64_t outliers[ENCODE_CANDIDATES];
    int64_t winner = -1, best = materialized;
    for (int64_t c = 0; c < ncandidates; c++) {
        sizes[c] = (layouts[c] & FOLD_BARE ? 0
                    : frame_len + ((layouts[c] & FOLD_SEALED) != 0))
            + repro_section_size(&s, (int)layouts[c], &small_bits[c],
                                 &outliers[c]);
        if (sizes[c] < best) {
            best = sizes[c];
            winner = c;
        }
    }
    result[0] = winner;

    int64_t chosen = pack == ENCODE_RACE ? winner : pack;
    if (pack == ENCODE_SIZE || (chosen < 0 && !mine))
        return 0;
    int64_t need = chosen < 0 ? materialized : sizes[chosen];
    if (need > out_len)
        return ENCODE_SHORT;
    if (chosen < 0) {
        memcpy(out, header, (size_t)header_len);
        unsigned char *q = out + header_len;
        for (int64_t r = 0; r < rows; r++, q += cols * width)
            memcpy(q, target + r * t_stride, (size_t)(cols * width));
        return materialized;
    }
    int layout = (int)layouts[chosen];
    unsigned char *p = out;
    if (!(layout & FOLD_BARE)) {
        memcpy(p, frame, (size_t)frame_len);
        p += frame_len;
        if (layout & FOLD_SEALED)
            *p++ = 0;
    }
    int64_t packed = repro_pack_sections(scratch, ncodes, spans, nspans, &s,
                                         layout, small_bits[chosen],
                                         outliers[chosen], p);
    if (packed < 0 || (p - out) + packed != need)
        return ENCODE_BROKEN;
    return need;
}

/* ---- Read side: a batch of chunk decodes ---------------------------
 *
 * One call rebuilds a batch of chunks of the versions being read, in
 * order.  Per chunk it copies the base into `count` adjacent cells,
 * folds every level of the delta chain onto them and copies them into
 * the destination window.  The cells are a contiguous canvas window,
 * cells of the chunk's own, or the decode thread's chunk buffer, which
 * stays in L2 across the levels where a window whose rows sit a canvas
 * row apart would not (or `accumulate`'s zeroed 64-bit accumulator).
 * ctypes releases the GIL for the whole call.
 *
 * The base is a `none`-codec root payload — an array header, which
 * must equal the one the chunk implies byte for byte, then the cells —
 * or cells a held layer already resolved.  Each level is a whole
 * stored payload: the delta frame the chunk implies (compared byte for
 * byte), for hybrid one seal byte that must say "no LZ", then one
 * code-array section — or, with FOLD_BARE in its `layout`, that section
 * alone.  `layout` says which parts the section has:
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
 * is read, every position before the cell is touched.  The reasons a
 * level fails are FOLD_REASONS in the Python wrapper, in this order. */
enum {
    FOLD_TRUNCATED = 1, FOLD_WIDTH, FOLD_ENTRIES, FOLD_POSITION,
    FOLD_TRAILING, FOLD_ARGUMENT,
    FOLD_DECLINED = 1
};

/* LSB-first reader of `bits`-wide values (0..64): a carry register,
 * pulled one value at a time so two streams can advance in lock
 * step.  The caller has checked that the stream holds every value it
 * pulls; the tail word is zero-extended. */
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

/* Copy a box of a chunk's cells, contiguous in C order at `src`, into
 * an `ndim`-d window at `dst`: `geometry` holds the chunk's extents,
 * the box's first index in it, the box's extents (the window's), then
 * the window's byte strides (any sign).  The caller has checked that
 * the box lies in the chunk and every cell in the window's buffer;
 * offsets stay integers until a cell is copied. */
static void repro_to_window(unsigned char *dst, int64_t ndim,
                            const int64_t *geometry,
                            const unsigned char *src, int64_t width)
{
    if (ndim == 0) {
        memcpy(dst, src, (size_t)width);
        return;
    }
    const int64_t *shape = geometry, *first = geometry + ndim;
    const int64_t *extents = geometry + 2 * ndim;
    const int64_t *strides = geometry + 3 * ndim;
    int64_t pitch[64];
    pitch[ndim - 1] = width;
    for (int64_t d = ndim - 2; d >= 0; d--)
        pitch[d] = pitch[d + 1] * shape[d + 1];
    for (int64_t d = 0; d < ndim; d++)
        src += first[d] * pitch[d];
    int64_t inner = extents[ndim - 1], step = strides[ndim - 1];
    int64_t index[64] = {0};
    int64_t at = 0, from = 0, d;
    do {
        if (step == width) {
            memcpy(dst + at, src + from, (size_t)(inner * width));
        } else {
            for (int64_t j = 0; j < inner; j++)
                memcpy(dst + at + j * step, src + from + j * width,
                       (size_t)width);
        }
        for (d = ndim - 2; d >= 0; d--) {
            at += strides[d];
            from += pitch[d];
            if (++index[d] < extents[d])
                break;
            at -= strides[d] * extents[d];
            from -= pitch[d] * extents[d];
            index[d] = 0;
        }
    } while (d >= 0);
}

/* One chunk of a batch, as the descriptor table holds it: FOLD_FIELDS
 * int64 fields, every buffer named by its slot in the batch's buffer
 * table (address and byte length); a slot of -1 is "none". */
enum {
    D_WIDTH, D_XOR, D_TRUTH, D_COUNT,
    D_CELLS,        /* the contiguous cells the chain folds into, or -1
                     * for a chain of no levels, copied straight into
                     * the window; may be the base's own cells */
    D_BASE,         /* the base: a root payload, or cells */
    D_HEADER,       /* the array header a root payload starts with, or
                     * -1: the base is cells alone */
    D_FRAME,        /* the delta frame every whole level starts with,
                     * or -1: the chunk's cell type has none, and every
                     * whole level is declined */
    D_ROW, D_LEVELS,    /* the chunk's first level and its level count */
    D_WINDOW, D_NDIM,   /* the destination window or -1 (the cells are
                         * it), and the chunk's number of dimensions */
    D_GEOMETRY,     /* the window's geometry (repro_to_window) from
                     * this entry of the geometry table; the window's
                     * buffer is the span its strides reach, from its
                     * lowest byte */
    FOLD_FIELDS
};

/* Rebuild one chunk of `count` cells of `width` bytes: check the root
 * header and every level's frame and seal byte, copy the base into the
 * cells, fold every level onto them and copy them into the window.  A
 * level is a buffer slot and a layout: a whole stored payload — frame,
 * a seal byte with FOLD_SEALED, then its section — or with FOLD_BARE
 * the section alone.  The window receives the box of the cells its
 * geometry names (the whole chunk, or the part a read's box cuts).
 * `truth` (bool cells) turns every folded byte into 0 or 1.  Returns 0
 * when the chunk is in place; FOLD_DECLINED when the root header, a
 * frame or a seal byte is not the expected one (or the base is not
 * exactly header plus cells) — checked before anything is written;
 * -(8 * level + reason) for the first level that is not a well-formed
 * section over `count` cells (the cells are then partly folded, and
 * the window untouched unless it is the cells); or -FOLD_ARGUMENT for
 * a descriptor that does not fit the tables. */
static int64_t repro_fold_one(const int64_t *d, const int64_t *slots,
                              const int64_t *layouts, int64_t nrows,
                              const int64_t *geometry,
                              int64_t ngeometry,
                              unsigned char *const *buffers,
                              const int64_t *lengths, int64_t nbuffers)
{
    static int (*const kernels[2][4])(
        unsigned char *, int64_t, const unsigned char *, int64_t,
        int) = {
        {repro_fold_add1, repro_fold_add2, repro_fold_add4,
         repro_fold_add8},
        {repro_fold_xor1, repro_fold_xor2, repro_fold_xor4,
         repro_fold_xor8},
    };
    int64_t width = d[D_WIDTH], count = d[D_COUNT];
    int64_t levels = d[D_LEVELS], ndim = d[D_NDIM];
    int slot = width == 1 ? 0 : width == 2 ? 1 : width == 4 ? 2
        : width == 8 ? 3 : -1;
    /* 2^56 cells keep every count * bits below 2^63. */
    if (slot < 0 || count < 1 || count > (1LL << 56) || levels < 0
            || d[D_ROW] < 0 || d[D_ROW] > nrows - levels
            || ndim < 0 || ndim > 64)
        return -FOLD_ARGUMENT;
    for (int f = D_CELLS; f <= D_FRAME; f++)
        if (d[f] < -1 || d[f] >= nbuffers)
            return -FOLD_ARGUMENT;
    if (d[D_WINDOW] < -1 || d[D_WINDOW] >= nbuffers || d[D_BASE] < 0
            || (levels > 0 && d[D_CELLS] < 0)
            || (d[D_CELLS] < 0 && d[D_WINDOW] < 0))
        return -FOLD_ARGUMENT;
    int64_t nbytes = count * width;
    unsigned char *cells = d[D_CELLS] < 0 ? NULL : buffers[d[D_CELLS]];
    if (cells && lengths[d[D_CELLS]] != nbytes)
        return -FOLD_ARGUMENT;
    unsigned char *window = NULL;
    const int64_t *shape = NULL;
    if (d[D_WINDOW] >= 0) {
        if (d[D_GEOMETRY] < 0 || d[D_GEOMETRY] > ngeometry - 4 * ndim)
            return -FOLD_ARGUMENT;
        window = buffers[d[D_WINDOW]];
        shape = geometry + d[D_GEOMETRY];
        const int64_t *first = shape + ndim, *extents = shape + 2 * ndim;
        int64_t cells_in = 1;
        for (int64_t i = 0; i < ndim; i++) {
            if (shape[i] < 1 || shape[i] > count / cells_in
                    || first[i] < 0 || extents[i] < 1
                    || first[i] > shape[i] - extents[i])
                return -FOLD_ARGUMENT;
            cells_in *= shape[i];
        }
        if (cells_in != count)
            return -FOLD_ARGUMENT;
        /* The window's buffer is the span its strides reach over the
         * box, from its lowest byte: the first cell sits `below` bytes
         * into it, and every cell must lie inside it. */
        const int64_t *strides = shape + 3 * ndim;
        int64_t room = lengths[d[D_WINDOW]], span = width, below = 0;
        if (span > room)
            return -FOLD_ARGUMENT;
        for (int64_t i = 0; i < ndim; i++) {
            int64_t s = strides[i], e = extents[i] - 1;
            if (!e || !s)
                continue;
            if (s < -room || s > room)
                return -FOLD_ARGUMENT;
            int64_t step = s < 0 ? -s : s;
            if (e > (room - span) / step)
                return -FOLD_ARGUMENT;
            span += e * step;
            if (s < 0)
                below += e * step;
        }
        window += below;
    }
    slots += d[D_ROW];
    layouts += d[D_ROW];
    for (int64_t level = 0; level < levels; level++)
        if (slots[level] < 0 || slots[level] >= nbuffers)
            return -FOLD_ARGUMENT;

    const unsigned char *base = buffers[d[D_BASE]];
    int64_t base_len = lengths[d[D_BASE]];
    const unsigned char *header = NULL, *frame = NULL;
    int64_t header_len = 0, frame_len = 0;
    if (d[D_HEADER] >= 0) {
        header = buffers[d[D_HEADER]];
        header_len = lengths[d[D_HEADER]];
    }
    if (d[D_FRAME] >= 0) {
        frame = buffers[d[D_FRAME]];
        frame_len = lengths[d[D_FRAME]];
    }
    /* memcmp is never handed an empty (possibly NULL) prefix. */
    if (base_len != header_len + nbytes
            || (header_len && memcmp(base, header, (size_t)header_len)))
        return FOLD_DECLINED;
    for (int64_t level = 0; level < levels; level++) {
        int64_t layout = layouts[level];
        if (layout & FOLD_BARE)
            continue;
        const unsigned char *p = buffers[slots[level]];
        int64_t len = lengths[slots[level]];
        int sealed = (layout & FOLD_SEALED) != 0;
        if (!frame || len < frame_len + sealed
                || (frame_len && memcmp(p, frame, (size_t)frame_len))
                || (sealed && p[frame_len] != 0))
            return FOLD_DECLINED;
    }
    const unsigned char *from = base + header_len;
    if (cells && cells != from)
        memcpy(cells, from, (size_t)nbytes);
    for (int64_t level = 0; level < levels; level++) {
        int64_t layout = layouts[level];
        int64_t skip = layout & FOLD_BARE ? 0
            : frame_len + ((layout & FOLD_SEALED) != 0);
        int64_t reason = kernels[d[D_XOR] != 0][slot](
            cells, count, buffers[slots[level]] + skip,
            lengths[slots[level]] - skip,
            (int)(layout & (FOLD_SMALL | FOLD_TABLE)));
        if (reason)
            return -(8 * level + reason);
    }
    if (d[D_TRUTH] && levels > 0)
        for (int64_t i = 0; i < nbytes; i++)
            cells[i] = cells[i] != 0;
    if (window)
        repro_to_window(window, ndim, shape, cells ? cells : from, width);
    return 0;
}

/* The one read-side entry: rebuild a batch of `chunks` chunks, in
 * descriptor order, so a chunk may fold onto cells an earlier one of
 * the batch rebuilt (a warm fill's versions, a stack's layers).
 *
 *   desc                FOLD_FIELDS per chunk (see above);
 *   slots, layouts,     the buffer slot and the layout of every level,
 *   nrows               each chunk's levels adjacent;
 *   geometry, ngeometry every window's geometry (repro_to_window);
 *   buffers, lengths,   the address and byte length of every buffer
 *   nbuffers            the tables name: cells, windows, bases,
 *                       headers, frames and level payloads.
 *
 * Stops at the first chunk that does not come back 0 and returns its
 * index, its status (repro_fold_one) in `*status`: nothing past it is
 * written.  Returns `chunks`, status 0, once every chunk is in place.
 * ctypes releases the GIL for the whole call. */
int64_t repro_fold_chain(int64_t chunks, const int64_t *desc,
                         const int64_t *slots, const int64_t *layouts,
                         int64_t nrows,
                         const int64_t *geometry, int64_t ngeometry,
                         unsigned char *const *buffers,
                         const int64_t *lengths, int64_t nbuffers,
                         int64_t *status)
{
    for (int64_t chunk = 0; chunk < chunks; chunk++) {
        int64_t got = repro_fold_one(desc + FOLD_FIELDS * chunk, slots,
                                     layouts, nrows, geometry, ngeometry,
                                     buffers, lengths, nbuffers);
        if (got) {
            *status = got;
            return chunk;
        }
    }
    *status = 0;
    return chunks;
}
"""

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
        # Buffers go in as plain addresses (``array.ctypes.data``): the
        # encode call runs once per chunk on the insert path, where a
        # typed ``data_as`` cast per argument is measurable.
        lib.repro_fold_chain.argtypes = [
            ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
            ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_int64, ctypes.c_void_p]
        lib.repro_fold_chain.restype = ctypes.c_int64
        lib.repro_encode_chunk.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int, ctypes.c_int,
            ctypes.c_int, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_char_p, ctypes.c_int64,
            ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_void_p]
        lib.repro_encode_chunk.restype = ctypes.c_int64
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


def _as_rows(array: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """``(array, rows, cols, row_stride_bytes)``: ``array`` as equally
    spaced runs of adjacent cells — a contiguous array (one run), or a
    chunk view of a row-major canvas.  A window the kernel cannot read
    that way (a 3-d chunk view, whose runs are more than one stride
    apart, or one whose last axis is strided) comes back as a
    contiguous copy: one extra pass."""
    if array.flags.c_contiguous:
        return array, 1, array.size, 0
    if array.shape[-1] == 1 or array.strides[-1] == array.itemsize:
        # Drop unit extents, then merge axes adjacent in memory.
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


def _paired_rows(target: np.ndarray, base: np.ndarray
                 ) -> tuple[tuple, int, int, tuple[int, int]]:
    """``((target read, base read), rows, cols, (target stride, base
    stride))``: a chunk pair as the analysis kernel reads it — each side
    as :func:`_as_rows` gives it, both as ``rows`` runs of ``cols``
    cells.  A contiguous side reads as rows of any length, so it adopts
    the other side's (a chunk view of a canvas against a decoded root);
    when the two sides' rows differ, both are read as contiguous
    copies."""
    sides = (_as_rows(target), _as_rows(base))
    rows, cols = next((side[1:3] for side in sides if side[1] > 1),
                      (1, target.size))
    strides = tuple(side[3] if side[1:3] == (rows, cols)
                    else cols * target.itemsize if side[1] == 1 else None
                    for side in sides)
    if None in strides:
        return ((np.ascontiguousarray(target), np.ascontiguousarray(base)),
                1, target.size, (0, 0))
    return (sides[0][0], sides[1][0]), rows, cols, strides


def _unfit(dtype: np.dtype, shape: tuple[int, ...]) -> str | None:
    """Why neither C entry takes chunks of ``(dtype, shape)`` on this
    host, or None: each face then runs its numpy form."""
    return ("big-endian host" if sys.byteorder != "little"
            else f"unsupported dtype {dtype}"
            if dtype.itemsize not in (1, 2, 4, 8) or dtype.kind not in "iubf"
            else f"byte-swapped dtype {dtype}" if not dtype.isnative
            else "empty" if not math.prod(shape) else None)


def scratch_cells(n: int) -> int:
    """uint64 cells the analysis pass needs to keep the run list of a
    chunk of ``n`` cells: room for ``n`` codes (those of the changed
    cells, back to back), then for at most ``n // 2 + 1`` spans (every
    other cell changed), each an int64 ``(first cell, cell count)``
    pair.  A :class:`ChunkEncode` call keeps it in the last this many
    of the :attr:`~ChunkEncode.words` of its ``space``."""
    return n + 2 * (n // 2 + 1)


#: ``layouts`` bits of :class:`FoldBatch` (the C side's enum): the parts
#: one code-array payload section has, ``FOLD_SMALL`` / ``FOLD_TABLE``;
#: ``FOLD_SEALED``, a seal byte between the frame and the section that
#: must say "no LZ"; and ``FOLD_BARE``, a level that is its section
#: alone, unframed and unsealed by the caller.
FOLD_SMALL = 1
FOLD_TABLE = 2
FOLD_SEALED = 4
FOLD_BARE = 8

#: :class:`FoldBatch`'s status for a root header, frame or seal byte
#: that is not the expected spelling, refused before anything was
#: written.
FOLD_DECLINED = 1

#: What the fold found wrong with a level, by the C enum's reason code.
FOLD_REASONS = {
    1: "a packed section overruns the payload",
    2: "bit width outside [0, 64]",
    3: "outlier table claims more entries than the chunk has cells",
    4: "outlier position out of range",
    5: "undecoded trailing bytes",
    6: "a descriptor does not fit the call's tables",
}

_frombuffer = np.frombuffer
_BYTE = np.uint8


class ChunkFold:
    """The layout of chunks of one ``(dtype, shape)`` as the read path's
    one decode reads them (built once per layout by
    :func:`repro.delta.base.chunk_fold`): the cells, the array
    ``header`` a root payload of the ``none`` compressor starts with and
    the delta ``frame`` every whole level starts with.

    A chunk's decode (queued with :meth:`FoldBatch.add`) copies the
    base into contiguous cells, checks and folds every level of a delta
    chain onto them and copies them into the destination window.  The
    base is the chain's root payload — ``header``, then the cells — or
    an ndarray of cells (a held layer, a root decompressed in Python).
    A level is a whole stored delta payload — ``frame``, a seal byte
    when its layout has :data:`FOLD_SEALED`, then its section — or,
    with :data:`FOLD_BARE`, its section alone.  The header, each frame
    and each seal byte are compared with the expected bytes before
    anything is written.

    Where no kernel runs — kernels off, a cell type or host the C entry
    does not take — the same contract runs in numpy, the section fold
    being :func:`repro.delta.codes._fold_numpy`.  ``frame`` is None for
    a cell type no delta is defined for: every whole level is then
    declined."""

    __slots__ = ("dtype", "shape", "count", "header", "frame", "whole",
                 "origin", "corner", "_cell", "_unfit")

    def __init__(self, dtype: np.dtype, shape: tuple[int, ...],
                 header: bytes, frame: bytes | None, use_xor: bool):
        self.dtype = dtype = np.dtype(dtype)
        self.shape = shape = tuple(shape)
        self.count = math.prod(shape)
        self.header = header
        self.frame = frame
        # The box of all of a chunk, its first index, and the slices of
        # a window's first cell.
        self.whole = (slice(None),) * len(shape)
        self.origin = (0,) * len(shape)
        self.corner = (slice(0, 1),) * len(shape)
        self._cell = (dtype.itemsize, int(use_xor), int(dtype.kind == "b"),
                      self.count)
        # Why the C entry cannot fold this layout, or None.
        self._unfit = _unfit(dtype, shape)

    def _fold_numpy(self, base, payloads, layouts, cells, window,
                    box) -> int:
        """One chunk of the C entry's contract in numpy: the same checks
        before anything is written, the same statuses."""
        # The section fold lives with the section readers, which import
        # this module.
        from repro.delta import codes
        if type(base) is not np.ndarray:
            raw = _frombuffer(base, _BYTE)
            start = len(self.header)
            if raw.size != start + self.count * self.dtype.itemsize \
                    or raw[:start].tobytes() != self.header:
                return FOLD_DECLINED
            base = raw[start:].view(self.dtype).reshape(self.shape)
        sections, frame = [], self.frame
        for payload, layout in zip(payloads, layouts):
            raw = _frombuffer(payload, _BYTE)
            if not layout & FOLD_BARE:
                if frame is None:
                    return FOLD_DECLINED
                skip = len(frame) + bool(layout & FOLD_SEALED)
                if raw.size < skip or raw[:len(frame)].tobytes() != frame \
                        or (skip > len(frame) and raw[len(frame)]):
                    return FOLD_DECLINED
                raw = raw[skip:]
            sections.append(raw)
        if cells is None:
            np.copyto(window, base[box])
            return 0
        if cells is not base:
            np.copyto(cells, base)
        codes._fold_numpy(sections, layouts, cells, bool(self._cell[1]))
        if self._cell[2] and payloads:
            # Valid chains only ever produce 0 and 1; bytes from a
            # corrupt one must still leave booleans.
            truth = cells.view(_BYTE)
            np.not_equal(truth, 0, out=truth)
        if window is not None:
            np.copyto(window, cells[box])
        return 0

    def _check(self, base, cells: np.ndarray | None,
               window: np.ndarray | None, box: tuple, payloads: list
               ) -> None:
        """Refuse arrays that are not this layout's cells as the C entry
        needs them (a caller error: nothing is written)."""
        def cells_of_the_chunk(array: np.ndarray) -> bool:
            return array.dtype == self.dtype and array.shape == self.shape
        if type(base) is np.ndarray and not (
                cells_of_the_chunk(base) and base.flags.c_contiguous):
            raise ValueError(
                "base is not contiguous cells of the chunk's layout")
        if cells is None:
            if payloads or window is None:
                raise ValueError("levels need cells to fold in, and no"
                                 " cells need a window")
        elif not (cells_of_the_chunk(cells) and cells.flags.c_contiguous
                  and cells.flags.writeable):
            raise ValueError(
                "cells are not writable C-contiguous cells of the chunk")
        if window is None:
            return
        shape = self.shape
        if box is not self.whole:
            shape = tuple([len(range(*part.indices(extent)))
                           if part.step in (None, 1) else -1
                           for part, extent in zip(box, self.shape)])
        if not (window.dtype == self.dtype and window.shape == shape
                and window.flags.writeable):
            raise ValueError("window is not a writable view of the box's"
                             " layout in the chunk")


#: int64 fields per chunk of the C entry's descriptor table (its
#: FOLD_FIELDS): cell width, xor, truth, count; the cells, base,
#: header and frame slots; first level and level count; window
#: slot, its dimensions and its first geometry entry.
_FOLD_FIELDS = 13

_char_p = ctypes.c_char_p
_BYTES = {bytes}
_cell_at = ctypes.c_char.from_buffer
_addressof = ctypes.addressof


class FoldBatch:
    """Chunks to rebuild in one call of the C entry
    ``repro_fold_chain``: the read path's one decode face.

    :meth:`add` queues one chunk — its layout (:class:`ChunkFold`),
    base, levels, cells and window, as :class:`ChunkFold` describes
    them — and :meth:`run` rebuilds the queued chunks in order, all in
    C with the GIL released.  A chunk may take as its base the cells of
    one queued before it (a warm fill's versions, a stack's layers):
    they are rebuilt by the time it is.  The call gets one descriptor
    per chunk and one ``(buffer, layout)`` row per level, each buffer
    a slot of one address table: a ``bytes`` payload goes in as itself
    (no numpy object per payload), cells and windows by address.
    Chunks whose layout the C entry does not take, or every chunk with
    the kernels off, run :meth:`ChunkFold._fold_numpy` in turn under
    the same contract.
    """

    __slots__ = ("_chunks", "_tables")

    def __init__(self):
        self._chunks: list[tuple] = []
        self._tables: tuple | None = None

    def add(self, fold: ChunkFold, base, payloads: list,
            layouts: list[int], cells: np.ndarray | None,
            window: np.ndarray | None = None, box: tuple | None = None
            ) -> None:
        """Queue one chunk of ``fold``'s layout.  ``payloads`` are its
        levels (any order: they commute), ``layouts`` their ``FOLD_*``
        bits.  ``cells`` are writable contiguous cells of the layout to
        fold in — the base's own cells fold in place — or None for no
        levels, the base then copied straight into ``window``.
        ``window`` is a writable view (any strides) that receives the
        ``box`` of the cells — step-1 slices of the chunk, None for all
        of it — and so has the box's shape; None when ``cells`` are the
        destination.  Arrays of any other layout raise ``ValueError``
        here, and nothing is queued."""
        if box is None:
            box = fold.whole
        fold._check(base, cells, window, box, payloads)
        self._chunks.append(
            (fold, base, payloads, layouts, cells, window, box))
        self._tables = None

    def run(self, start: int = 0) -> tuple[int, int]:
        """Rebuild the queued chunks from ``start`` on, in order, up to
        the first that does not come back in place.

        Returns ``(index, status)``: the number of chunks queued and 0
        once every chunk is in place, or the index of a chunk whose root
        header, frame or seal byte is not the expected one and
        :data:`FOLD_DECLINED` — nothing of it or past it was written:
        hand it in again as cells and bare sections, then run on from
        ``index + 1``.  A malformed level raises
        :class:`~repro.core.errors.DeltaLevelError` carrying the level's
        and the chunk's index; that chunk's cells are then partly
        folded, the chunks before it are in place and nothing past it
        was written."""
        lib = _active()
        chunks = self._chunks
        at = start
        while at < len(chunks):
            fold = chunks[at][0]
            unfit = "kernels disabled or unavailable" if lib is None \
                else fold._unfit
            if not unfit:
                stop = at + 1
                while stop < len(chunks) and chunks[stop][0]._unfit is None:
                    stop += 1
                at, status = self._native(lib, at, stop)
            else:
                decline("fold_chain", unfit)
                try:
                    status = fold._fold_numpy(*chunks[at][1:])
                except DeltaLevelError as exc:
                    exc.chunk = at
                    raise
                at += not status
            if status:
                decline("fold_chain", "a root header, frame or seal byte"
                                      " is not the expected one")
                return at, status
        return at, 0

    def _native(self, lib, start: int, stop: int) -> tuple[int, int]:
        """Chunks ``start`` up to ``stop`` through one call of the C
        entry: the index it stopped at and its status."""
        if self._tables is None:
            self._tables = self._build()
        desc, slots, layouts, geometry, handles, lengths = self._tables
        status = array.array("q", (0,))
        done = start + lib.repro_fold_chain(
            stop - start, desc.buffer_info()[0] + 8 * _FOLD_FIELDS * start,
            slots.buffer_info()[0], layouts.buffer_info()[0], len(slots),
            geometry.buffer_info()[0], len(geometry), handles,
            lengths.buffer_info()[0], len(lengths),
            status.buffer_info()[0])
        code = status[0]
        if code < 0:
            level, reason = divmod(-code, 8)
            raise DeltaLevelError(
                level, FOLD_REASONS.get(reason, f"fold reason {reason}"),
                chunk=done)
        return done, code

    def _build(self) -> tuple:
        """The C entry's tables for every queued chunk: descriptors,
        every level's buffer slot and layout, window geometry, and the
        address and length of every buffer they name."""
        handles: list = []
        lengths: list[int] = []
        desc: list[int] = []
        slots: list[int] = []
        layouts: list[int] = []
        geometry: list[int] = []
        prefixes: dict[int, tuple[int, int]] = {}
        for fold, base, payloads, levels, cells, window, box \
                in self._chunks:
            prefix = prefixes.get(id(fold))
            if prefix is None:
                header, frame = fold.header, fold.frame
                prefix = prefixes[id(fold)] = (
                    len(handles), -1 if frame is None else len(handles) + 1)
                handles += (header, frame)
                lengths += (len(header), 0 if frame is None else len(frame))
            header_slot, frame_slot = prefix
            base_slot = len(handles)
            if type(base) is np.ndarray:
                header_slot = -1
                handles.append(_addressof(_cell_at(base))
                               if base.flags.writeable else base.ctypes.data)
                lengths.append(base.nbytes)
            elif type(base) is bytes:
                handles.append(base)
                lengths.append(len(base))
            else:
                raw = _frombuffer(base, _BYTE)
                handles.append(raw.ctypes.data)
                lengths.append(raw.size)
            cells_slot = -1
            if cells is base:
                cells_slot = base_slot
            elif cells is not None:
                cells_slot = len(handles)
                handles.append(_addressof(_cell_at(cells)))
                lengths.append(cells.nbytes)
            window_slot = first = -1
            if window is not None:
                window_slot, first = len(handles), len(geometry)
                # Its buffer is the span its strides reach, from its
                # lowest byte, which the C side checks the geometry
                # against.  Its first cell is a contiguous view: its
                # address is the window's, without a numpy object per
                # window.
                reach = [(extent - 1) * stride for extent, stride
                         in zip(window.shape, window.strides)]
                handles.append(_addressof(_cell_at(
                    window[fold.corner] if fold.corner else window))
                    + sum([step for step in reach if step < 0]))
                lengths.append(sum(map(abs, reach)) + window.itemsize)
                geometry += fold.shape
                geometry += [part.indices(extent)[0]
                             for part, extent in zip(box, fold.shape)] \
                    if box is not fold.whole else fold.origin
                geometry += window.shape
                geometry += window.strides
            desc += (*fold._cell, cells_slot, base_slot, header_slot,
                     frame_slot, len(slots), len(payloads), window_slot,
                     len(fold.shape), first)
            slots += range(len(handles), len(handles) + len(payloads))
            layouts += levels
            if set(map(type, payloads)) <= _BYTES:
                handles += payloads
                lengths += map(len, payloads)
                continue
            for payload in payloads:
                raw = _frombuffer(payload, _BYTE)
                handles.append(raw.ctypes.data)
                lengths.append(raw.size)
        # Every ``bytes`` in by address (the queued chunks hold them).
        addresses = (_char_p * len(handles))()
        addresses[:] = handles
        # No table is empty: the C side is never handed a null array.
        return (array.array("q", desc), array.array("q", slots or (0,)),
                array.array("q", layouts or (0,)),
                array.array("q", geometry or (0,)), addresses,
                array.array("q", lengths))


#: :class:`ChunkEncode`'s ``pack`` modes past a candidate's index (the
#: C side's): pack the cheapest representation, or pack nothing.
ENCODE_RACE = -1
ENCODE_SIZE = -2
#: The C entry's statuses besides a payload's length, by code: what
#: went wrong.  A declined call read and wrote nothing; a short buffer
#: is refused before the payload is written.
_ENCODE_FAULTS = {
    -1: "arguments the encode call refuses",
    -2: "the compiled encode's pack disagreed with its own sizes",
    -3: "payload buffer too small",
}
#: Candidates one call sizes at most (the C side's ENCODE_CANDIDATES).
_ENCODE_CANDIDATES = 8


class Encoded(NamedTuple):
    """What one :class:`ChunkEncode` call made: the race's ``winner``
    (the index of the cheapest candidate, -1 for the materialized
    form), the ``payload`` it packed (empty when it packed nothing),
    and every candidate's size, in order."""

    winner: int
    payload: bytes
    sizes: tuple[int, ...]


class ChunkEncode:
    """The write path's one encode face: one chunk's whole encode, for
    chunks of one ``(dtype, shape)`` and one candidate list (build it
    once, with :func:`chunk_encode`), one call of the C entry
    ``repro_encode_chunk`` per chunk.

    A call runs the analysis pass over a ``(target, base)`` chunk pair
    — read in place, or through contiguous copies where the kernel
    cannot read a side that way — sizes the materialized form and every
    candidate from the width histogram, and packs one behind its prefix
    (the array header, or the delta frame and, for a layout with
    :data:`FOLD_SEALED`, a seal byte saying "no LZ"; a
    :data:`FOLD_BARE` candidate packs without either), all in C with
    the GIL released.  Which one is ``pack``'s: the cheapest
    (:data:`ENCODE_RACE`, ties to the earlier, the materialized form
    first), candidate ``pack`` whatever its size, or none
    (:data:`ENCODE_SIZE`).

    Where the C entry does not take a call — kernels off or
    unloadable, a big-endian host, a byte-swapped cell type, an empty
    chunk, more candidates than it sizes — the same contract runs in
    numpy (:func:`repro.delta.codes._encode_numpy`), to the same bytes,
    and says why once at debug, as :class:`FoldBatch` does."""

    __slots__ = ("dtype", "shape", "words", "frame", "candidates",
                 "materialized", "bare", "_header", "_cell", "_layouts",
                 "_payload_bytes", "_unfit")

    def __init__(self, dtype: np.dtype, shape: tuple[int, ...],
                 header: bytes, frame: bytes, candidates: tuple,
                 layouts: tuple[int, ...]):
        kind, use_xor = _CELL_KINDS[dtype.kind + str(dtype.itemsize)]
        count = math.prod(shape)
        self.dtype = dtype
        self.shape = shape
        #: The delta frame a candidate's payload starts with.
        self.frame = frame
        #: The caller's labels of the candidates, in order.
        self.candidates = candidates
        #: The ``none`` compressor's materialized size.
        self.materialized = len(header) + count * dtype.itemsize
        #: Which candidates pack as their sections alone.
        self.bare = tuple(bool(layout & FOLD_BARE) for layout in layouts)
        self._header = header
        self._cell = (kind, use_xor)
        self._layouts = array.array("q", layouts)
        # The payload — at most the materialized form, or a candidate
        # at its widest (frame, seal byte, eleven bytes of widths and
        # entries, every code 64 bits wide and its position) — then the
        # run list, in one buffer of words.
        widest = len(frame) + 12 + 8 * count \
            + -(-count * (count - 1).bit_length() // 8)
        self._payload_bytes = -(-max(self.materialized, widest) // 8) * 8
        #: uint64 words of the ``space`` a call writes into.
        self.words = self._payload_bytes // 8 + scratch_cells(count)
        # Why the C entry cannot take this face's calls, or None.
        self._unfit = _unfit(dtype, shape) or (
            None if 0 < len(layouts) <= _ENCODE_CANDIDATES
            else f"not 1 to {_ENCODE_CANDIDATES} candidates")

    def __call__(self, target: np.ndarray, base: np.ndarray, adopt: bool,
                 space: np.ndarray | None = None, *,
                 pack: int = ENCODE_RACE, materialized: int = -1
                 ) -> Encoded:
        """Encode one chunk (see :class:`Encoded`).

        ``materialized`` is the size of a materialized form the caller
        made (another compressor's): it races at that size, and packs
        as nothing.  ``space`` is flat writable uint64 of at least
        :attr:`words` (None: a fresh one), the caller's to reuse once
        this returns.  With ``adopt`` the writable ``base`` ends holding
        ``target``'s cells.  Arrays that are not this layout's cells,
        and arguments the C entry refuses, raise ``ValueError`` before
        anything is written."""
        for cells in (target, base):
            if not isinstance(cells, np.ndarray) or cells.dtype != self.dtype \
                    or cells.shape != self.shape:
                raise ValueError("arrays are not cells of the chunk's layout")
        if adopt and not base.flags.writeable:
            raise ValueError("adopting a delta base needs it writable")
        if space is not None and not (
                isinstance(space, np.ndarray) and space.dtype == np.uint64
                and space.flags.c_contiguous and space.flags.writeable
                and space.size >= self.words):
            raise ValueError("space is not writable uint64 words enough")
        lib = _active()
        unfit = "kernels disabled or unavailable" if lib is None \
            else self._unfit
        if unfit:
            decline("encode_chunk", unfit)
            return self._encode_numpy(target, base, adopt, pack,
                                      materialized)
        if space is None:
            space = np.empty(self.words, dtype=np.uint64)
        reads, rows, cols, strides = _paired_rows(target, base)
        # A base read through a copy is adopted afterwards.
        in_place = adopt and reads[1] is base
        result = array.array("q", (0,)) * (1 + len(self._layouts))
        at = space.ctypes.data
        size = lib.repro_encode_chunk(
            reads[0].ctypes.data, reads[1].ctypes.data, *self._cell,
            in_place, rows, cols, *strides, self._header,
            len(self._header), self.frame, len(self.frame),
            len(self._layouts), self._layouts.buffer_info()[0], pack,
            materialized, at + self._payload_bytes, at,
            self._payload_bytes, result.buffer_info()[0])
        if size < 0:
            if size == -1:
                raise ValueError(_ENCODE_FAULTS[size])
            # The base may hold the target already: the chunk cannot be
            # encoded again from it.
            raise RuntimeError(_ENCODE_FAULTS[size])
        if adopt and not in_place:
            np.copyto(base, target)
        return Encoded(result[0], ctypes.string_at(at, size),
                       tuple(result[1:]))

    def _encode_numpy(self, target, base, adopt: bool, pack: int,
                      materialized: int) -> Encoded:
        """One call of the C entry's contract in numpy: the same
        refusals before anything is written, the same bytes."""
        # The numpy form lives with the section packers, which import
        # this module.
        from repro.delta import codes
        if not ENCODE_SIZE <= pack < len(self._layouts) \
                or materialized < -1 or any(
                    layout & ~(FOLD_SMALL | FOLD_TABLE | FOLD_SEALED
                               | FOLD_BARE)
                    or not layout & (FOLD_SMALL | FOLD_TABLE)
                    or layout & FOLD_BARE and layout & FOLD_SEALED
                    for layout in self._layouts):
            raise ValueError(_ENCODE_FAULTS[-1])
        return Encoded(*codes._encode_numpy(
            target, base, adopt, self._header, self.frame, self._layouts,
            pack, materialized))


def chunk_encode(dtype: np.dtype, shape: tuple[int, ...], header: bytes,
                 frame: bytes, candidates: tuple,
                 layouts: tuple[int, ...]) -> ChunkEncode:
    """The :class:`ChunkEncode` of chunks of ``(dtype, shape)`` against
    ``candidates`` (the caller's labels) of :data:`FOLD_SMALL` /
    :data:`FOLD_TABLE` / :data:`FOLD_SEALED` / :data:`FOLD_BARE`
    ``layouts``, in the race's order, for every cell kind
    :func:`repro.core.numeric.delta_mode_for` accepts, in any byte
    order, kernels on or off.  ``header`` and ``frame`` are the
    materialized form's array header and the delta frame such a chunk's
    payloads start with.  Any other kind raises
    :class:`~repro.core.errors.CodecError`, as encoding it would (a
    byte-swapped float, which no delta is defined for, when called)."""
    dtype = np.dtype(dtype)
    if dtype.kind + str(dtype.itemsize) not in _CELL_KINDS:
        raise CodecError(f"unsupported cell dtype {dtype}")
    return ChunkEncode(dtype, tuple(shape), header, frame, candidates,
                       tuple(layouts))
