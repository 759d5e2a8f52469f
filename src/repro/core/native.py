"""Optional compiled kernels for the hottest encode *and* decode loops.

The numpy kernels in :mod:`repro.core.bitpack` and the planner's
shared-stats pass are bound by one structural cost: every logical step
is a whole-array numpy operation, so a chunk is streamed through the
cache once per step — the numpy encode path makes a dozen whole-array
passes and ~20 MiB of temporaries per 1 MiB chunk.  A scalar C loop
does the same work in one stream per kernel.

The write side is two passes per chunk.  :func:`delta_zigzag_stats`
is the *analysis* pass — cell pair in, delta code + width-histogram
bucket out — one kernel family over every cell type
(signed / unsigned / bool of 1, 2, 4, 8 bytes as wrapping int64
differences, float16/32/64 as xor of bit images), reading the chunk in
place from its canvas by ``(rows, cols, row_stride)``.
:func:`split_pack` is the *split-and-pack* pass: the codes, split at
the width the cost curve chose, leave as the packed dense section and
the packed outlier table (at width 0: the sparse codec's table).
:func:`pack_bits` is the carry-register pack behind every other
``pack_unsigned`` call.  The read side is one call per chunk:
:func:`fold_chain` parses every level of a delta chain out of its
stored payload, zigzag-decodes in register and applies it straight to
the cells of the version being read, in the cell's own width and in
place in the output canvas.  The zigzag decode and the carry-register
unpack serve the level-by-level decoders.

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
reason.

The shared object is cached under ``.cache/native/`` next to the
package (keyed by a hash of the C source and the compiler flags —
``CFLAGS`` is honoured next to ``CC`` — so edits rebuild) and falls
back to a per-process temporary directory when the tree is not
writable.  Compilation happens at most once per process, lazily, on
the first kernel request; ctypes releases the GIL around every call.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
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
 * loads so zero-copy payload views need no alignment.  Each cell pair
 * becomes its unsigned delta code — zigzag of the wrapping int64
 * difference (ARITHMETIC) or the xor of the bit images (XOR) — and is
 * counted into the 65-bucket exact-bit-length histogram in the same
 * stream.  64-byte runs of equal cells are skipped: they are code 0,
 * bucket 0.  Matches numpy's compute_delta -> zigzag_encode -> width
 * bincount bit for bit. */
static inline int repro_same64(const unsigned char *a,
                               const unsigned char *b)
{
    uint64_t x[8], y[8], diff = 0;
    memcpy(x, a, 64);
    memcpy(y, b, 64);
    for (int k = 0; k < 8; k++)
        diff |= x[k] ^ y[k];
    return diff == 0;
}

/* WIDEN: cell -> its int64 value's (or bit image's) uint64 image. */
#define DELTA_KERNEL(NAME, T, WIDEN)                                   \
static void NAME(const unsigned char *t, const unsigned char *b,       \
                 int use_xor, int64_t rows, int64_t cols,              \
                 int64_t t_stride, int64_t b_stride,                   \
                 uint64_t *codes, int64_t *hist)                       \
{                                                                      \
    enum { S = sizeof(T), RUN = 64 / sizeof(T) };                      \
    int64_t zeros = 0;                                                 \
    for (int64_t r = 0; r < rows; r++) {                               \
        const unsigned char *tr = t + r * t_stride;                    \
        const unsigned char *br = b + r * b_stride;                    \
        uint64_t *cr = codes + r * cols;                               \
        /* A chunk row ends mid-page, where the hardware streamer      \
         * stops: ask for the head of the next row ourselves. */       \
        if (r + 1 < rows)                                              \
            for (int k = 0; k < 4; k++) {                              \
                __builtin_prefetch(tr + t_stride + 64 * k);            \
                __builtin_prefetch(br + b_stride + 64 * k);            \
            }                                                          \
        int64_t i = 0;                                                 \
        while (i < cols) {                                             \
            int64_t stop = i + RUN;                                    \
            if (stop > cols) {                                         \
                stop = cols;                                           \
            } else if (repro_same64(tr + i * S, br + i * S)) {         \
                memset(cr + i, 0, RUN * sizeof(uint64_t));             \
                zeros += RUN;                                          \
                i = stop;                                              \
                continue;                                              \
            }                                                          \
            for (; i < stop; i++) {                                    \
                T tv, bv;                                              \
                memcpy(&tv, tr + i * S, S);                            \
                memcpy(&bv, br + i * S, S);                            \
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
                cr[i] = code;                                          \
                if (code)                                              \
                    hist[64 - __builtin_clzll(code)]++;                \
                else                                                   \
                    zeros++;                                           \
            }                                                          \
        }                                                              \
    }                                                                  \
    hist[0] += zeros;                                                  \
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
 * the same-width unsigned kind with use_xor set).  Returns 0, or -1
 * for a kind this build does not know. */
int repro_delta_codes(const unsigned char *t, const unsigned char *b,
                      int kind, int use_xor, int64_t rows, int64_t cols,
                      int64_t t_stride, int64_t b_stride,
                      uint64_t *codes, int64_t *hist)
{
    static void (*const kernels[])(
        const unsigned char *, const unsigned char *, int, int64_t,
        int64_t, int64_t, int64_t, uint64_t *, int64_t *) = {
        repro_delta_i8, repro_delta_i16, repro_delta_i32,
        repro_delta_i64, repro_delta_u8, repro_delta_u16,
        repro_delta_u32, repro_delta_u64, repro_delta_bool,
    };
    if (kind < 0 || kind >= (int)(sizeof kernels / sizeof kernels[0]))
        return -1;
    memset(hist, 0, 65 * sizeof(int64_t));
    kernels[kind](t, b, use_xor, rows, cols, t_stride, b_stride, codes,
                  hist);
    return 0;
}

/* ---- Write side, pass 2: split and pack -------------------------- */
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

/* The hybrid codec's three sections in one pass over the codes: the
 * dense stream of every code below 2**small_bits (zero at outlier
 * positions), and the outliers' positions and values, each packed
 * LSB-first at its own width.  small_bits = 0 stores no dense stream
 * and makes every nonzero code an outlier — the sparse codec's
 * layout.  The caller sizes the three word buffers from the width
 * histogram (`outliers` codes need more than small_bits); the return
 * value is the outlier count found, or -1 the moment the codes would
 * overrun that count, so a stale histogram can never write out of
 * bounds.  Runs of eight zero codes skip the per-code loop. */
int64_t repro_split_pack(const uint64_t *codes, int64_t n,
                         int64_t small_bits, int64_t position_bits,
                         int64_t value_bits, int64_t outliers,
                         uint64_t *small_words, uint64_t *position_words,
                         uint64_t *value_words)
{
    repro_stream small = {small_words, 0, 0, small_bits};
    repro_stream positions = {position_words, 0, 0, position_bits};
    repro_stream values = {value_words, 0, 0, value_bits};
    int64_t found = 0;
    int64_t i = 0;
    while (i < n) {
        int64_t stop = i + 8;
        if (stop > n) {
            stop = n;
        } else if (!(codes[i] | codes[i + 1] | codes[i + 2] | codes[i + 3]
                     | codes[i + 4] | codes[i + 5] | codes[i + 6]
                     | codes[i + 7])) {
            repro_push_zeros(&small, 8);
            i = stop;
            continue;
        }
        for (; i < stop; i++) {
            uint64_t x = codes[i];
            if (small_bits < 64 && (x >> small_bits)) {
                if (found == outliers)
                    return -1;
                found++;
                repro_push(&positions, (uint64_t)i);
                repro_push(&values, x);
                x = 0;
            }
            repro_push(&small, x);
        }
    }
    if (small.fill)
        *small.w = small.acc;
    if (positions.fill)
        *positions.w = positions.acc;
    if (values.fill)
        *values.w = values.acc;
    return found;
}

/* LSB-first bit stream pack for any width 1..64: value i occupies
 * stream bits [i*bits, (i+1)*bits).  A single carry register crosses
 * word boundaries, so each input is loaded once and each output word
 * stored once.  The trailing partial word is zero-padded. */
void repro_pack_bits(const uint64_t *v, int64_t n, int64_t bits,
                     uint64_t *w)
{
    if (bits == 64) {
        memcpy(w, v, (size_t)n * sizeof(uint64_t));
        return;
    }
    uint64_t acc = 0;
    int64_t fill = 0;
    int64_t wi = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t x = v[i];
        acc |= x << fill;
        fill += bits;
        if (fill >= 64) {
            w[wi++] = acc;
            fill -= 64;
            acc = fill ? x >> (bits - fill) : 0;
        }
    }
    if (fill)
        w[wi] = acc;
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
 * inverse of repro_pack_bits (width 64 is a plain dtype reinterpret
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

/* ---- Read side: the chain fold ------------------------------------
 *
 * A delta chain is folded level by level straight into the cells of
 * the version being read: the destination already holds the decoded
 * root (or is `accumulate`'s zeroed 64-bit accumulator), laid out as
 * `count` cells in runs of `cols`, `row_stride` bytes apart (a chunk
 * of the output canvas; cols = count for a contiguous buffer).  Each
 * level is one code-array payload section — `layout` says which parts
 * it has:
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
 * trusted: every width, the entry count and every section length are
 * checked against `len` and `count` before the section is read, and
 * every position before the cell is touched. */
enum {
    FOLD_SMALL = 1, FOLD_TABLE = 2,
    FOLD_TRUNCATED = 1, FOLD_WIDTH, FOLD_ENTRIES, FOLD_POSITION,
    FOLD_TRAILING, FOLD_ARGUMENT
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
static int NAME(unsigned char *dest, int64_t count, int64_t cols,      \
                int64_t row_stride, const unsigned char *p,            \
                int64_t len, int layout)                               \
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
            for (int64_t lo = 0; lo < count; lo += cols) {             \
                unsigned char *q = dest + (lo / cols) * row_stride;    \
                for (int64_t i = 0; i < cols; i++, q += S) {           \
                    uint64_t c = repro_pull(&codes);                   \
                    T cell;                                            \
                    memcpy(&cell, q, S);                               \
                    cell = (T)OP((uint64_t)cell, c);                   \
                    memcpy(q, &cell, S);                               \
                }                                                      \
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
        /* Positions ascend within a level, so the row of the last    \
         * one is almost always the row of the next: divide only on   \
         * leaving it (a step back wraps the unsigned difference and  \
         * leaves it too). */                                          \
        uint64_t row_lo = 0, width = (uint64_t)cols;                   \
        unsigned char *row = dest;                                     \
        for (int64_t i = 0; i < entries; i++) {                        \
            uint64_t where = repro_pull(&positions);                   \
            uint64_t c = repro_pull(&values);                          \
            if (where >= (uint64_t)count)                              \
                return FOLD_POSITION;                                  \
            if (where - row_lo >= width) {                             \
                row_lo = where - where % width;                        \
                row = dest + (int64_t)(where / width) * row_stride;    \
            }                                                          \
            unsigned char *q = row + (where - row_lo) * S;             \
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

/* Fold `levels` sections — pointer, length and layout each — into one
 * destination of `rows` x `cols` cells of `width` bytes.  Returns 0,
 * or -(8 * level + reason) for the first level that is not a
 * well-formed section over `rows * cols` cells; the destination is
 * then partly folded and must be discarded. */
int64_t repro_fold_chain(unsigned char *dest, int width, int use_xor,
                         int64_t rows, int64_t cols, int64_t row_stride,
                         int64_t levels,
                         const unsigned char *const *sections,
                         const int64_t *lengths, const int *layouts)
{
    static int (*const kernels[2][4])(
        unsigned char *, int64_t, int64_t, int64_t,
        const unsigned char *, int64_t, int) = {
        {repro_fold_add1, repro_fold_add2, repro_fold_add4,
         repro_fold_add8},
        {repro_fold_xor1, repro_fold_xor2, repro_fold_xor4,
         repro_fold_xor8},
    };
    int slot = width == 1 ? 0 : width == 2 ? 1 : width == 4 ? 2
        : width == 8 ? 3 : -1;
    /* 2^56 cells keep every count * bits below 2^63. */
    if (slot < 0 || rows < 1 || cols < 1
            || rows > (1LL << 56) / cols)
        return -FOLD_ARGUMENT;
    for (int64_t level = 0; level < levels; level++) {
        int reason = kernels[use_xor != 0][slot](
            dest, rows * cols, cols, row_stride, sections[level],
            lengths[level], layouts[level]);
        if (reason)
            return -(8 * level + reason);
    }
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
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
        lib.repro_delta_codes.restype = ctypes.c_int
        lib.repro_split_pack.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        lib.repro_split_pack.restype = ctypes.c_int64
        lib.repro_pack_bits.argtypes = [
            _U64_P, ctypes.c_int64, ctypes.c_int64, _U64_P]
        lib.repro_pack_bits.restype = None
        lib.repro_zigzag_decode.argtypes = [_U64_P, _U64_P,
                                            ctypes.c_int64]
        lib.repro_zigzag_decode.restype = None
        lib.repro_unpack_bits.argtypes = [
            _U8_P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _U64_P]
        lib.repro_unpack_bits.restype = None
        lib.repro_fold_chain.argtypes = [
            ctypes.c_void_p, ctypes.c_int, ctypes.c_int, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
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


def delta_zigzag_stats(target: np.ndarray, base: np.ndarray, *,
                       out: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray] | None:
    """Fused delta + code + width histogram of one chunk, or None.

    The write path's analysis pass for every cell type
    :func:`repro.core.numeric.delta_mode_for` accepts, read in place:
    ``target`` and ``base`` may be row-strided views of their canvases
    (see :func:`_as_rows`).  Returns ``(codes, width_counts)``: the flat
    uint64 code array and the count of codes per exact bit length,
    both bit-identical to the numpy pipeline's.  ``out`` (flat uint64,
    at least ``target.size`` long) receives the codes instead of a
    fresh array; the caller must be done with the previous contents.
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
    if out is None or out.size < n or out.dtype != np.uint64 \
            or not out.flags.c_contiguous or not out.flags.writeable:
        out = np.empty(n, dtype=np.uint64)
    codes = out[:n]
    hist = np.empty(65, dtype=np.int64)
    status = lib.repro_delta_codes(
        sides[0][0].ctypes.data, sides[1][0].ctypes.data,
        kind, use_xor, rows, cols, *strides,
        codes.ctypes.data, hist.ctypes.data)
    if status:
        return decline(kernel, "cell kind unknown to this build")
    return codes, hist


def split_pack(codes: np.ndarray, small_bits: int, outliers: int,
               value_bits: int) -> tuple[bytes, bytes, bytes] | None:
    """The hybrid split's three packed sections in one pass, or None.

    ``codes`` is the flat uint64 code array, ``outliers`` how many of
    them need more than ``small_bits`` bits and ``value_bits`` the
    width of the largest — both read off the width histogram the
    analysis pass already produced, never re-derived.  Returns the
    packed ``(small, positions, values)`` byte strings exactly as
    :func:`repro.core.bitpack.pack_unsigned` would emit them for the
    masked small array, the outlier positions and the outlier values;
    ``small_bits = 0`` is the sparse codec's layout (empty dense
    section, every nonzero code in the table).
    """
    lib = _active()
    if lib is None:
        return None
    kernel = "split_pack"
    if not isinstance(codes, np.ndarray) or codes.dtype != np.uint64 \
            or codes.ndim != 1 or not codes.flags.c_contiguous:
        return decline(kernel, "codes are not a flat uint64 array")
    n = codes.size
    if n == 0:
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
    words = [np.empty((nbytes + 7) // 8, dtype=np.uint64)
             for nbytes in sections]
    found = lib.repro_split_pack(
        codes.ctypes.data, n, small_bits, position_bits, value_bits,
        outliers, *(section.ctypes.data for section in words))
    if found != outliers:
        return decline(kernel, "outlier count disagrees with the codes")
    return tuple(w.view(np.uint8)[:nbytes].tobytes()
                 for w, nbytes in zip(words, sections))


def pack_bits(values: np.ndarray, bits: int) -> np.ndarray | None:
    """LSB-first packed word array of ``values`` at ``bits``, or None.

    ``values`` must be flat, C-contiguous uint64 already validated to
    fit ``bits`` (the caller, :func:`repro.core.bitpack.pack_unsigned`,
    checks).  Byte-identical to the numpy block kernel.
    """
    lib = _active()
    if (lib is None or not isinstance(values, np.ndarray)
            or not values.flags.c_contiguous or values.size == 0):
        return None
    n = values.size
    words = np.empty((n * bits + 63) // 64, dtype=np.uint64)
    lib.repro_pack_bits(
        values.ctypes.data_as(_U64_P), ctypes.c_int64(n),
        ctypes.c_int64(bits), words.ctypes.data_as(_U64_P))
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


#: ``layouts`` bits of :func:`fold_chain`: the parts one code-array
#: payload section has (the C side's ``FOLD_SMALL`` / ``FOLD_TABLE``).
FOLD_SMALL = 1
FOLD_TABLE = 2


def fold_chain(dest: np.ndarray, sections: list, layouts: list[int],
               use_xor: bool) -> int | None:
    """Fold a chain's code-array sections into ``dest`` in place.

    The read path's one kernel: ``dest`` holds the decoded root in the
    cell's own dtype — in place in its canvas, as rows of adjacent
    cells (see :func:`_as_rows`; a window no two strides describe is
    folded in a contiguous copy and copied back) — or a zeroed 64-bit
    accumulator, and every level (``sections[i]`` any bytes-like
    object, ``layouts[i]`` its ``FOLD_*`` parts) is parsed,
    zigzag-decoded unless ``use_xor`` and applied as wrapping add / xor
    at the cell width.  Returns 0 when every level folded,
    ``-(8 * level + reason)`` for the first malformed one (reason 1: a
    section overruns its payload, 2: a bit width above 64, 3: more
    table entries than cells, 4: a position outside the chunk, 5:
    trailing bytes; ``dest`` is then partly folded — discard it), or
    None when the gate declined and the caller must run the numpy
    fold.
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
    rows = _as_rows(dest)
    if rows is None:
        return decline(kernel, "non-unit inner stride")
    work, row_count, cols, row_stride = rows
    levels = len(sections)
    # The uint8 views keep every section's buffer alive (and give its
    # address, read-only or not) for the duration of the call.
    raw = [np.frombuffer(section, dtype=np.uint8) for section in sections]
    pointers = (ctypes.c_void_p * levels)(
        *[view.ctypes.data for view in raw])
    lengths = (ctypes.c_int64 * levels)(*[view.size for view in raw])
    status = lib.repro_fold_chain(
        work.ctypes.data, dest.itemsize, use_xor, row_count, cols,
        row_stride, levels, pointers, lengths,
        (ctypes.c_int * levels)(*layouts))
    if status == 0 and work is not dest:
        np.copyto(dest, work.reshape(dest.shape))
    return status
