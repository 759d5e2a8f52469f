"""Optional compiled kernels for the hottest encode *and* decode loops.

The numpy kernels in :mod:`repro.core.bitpack` and the planner's
shared-stats pass are bound by one structural cost: every logical step
is a whole-array numpy operation, so a chunk is streamed through the
cache once per step — the 32K-cell encode path reads and writes its
256 KB intermediates a dozen times.  A scalar C loop does the same
work in one stream per kernel.  The write side has the fused delta
kernel (cell pair in, zigzag code + width-histogram bucket out) and
the carry-register pack; the read side mirrors them with the zigzag
decode, the carry-register unpack, the sparse scatter-accumulate, and
the single-pass chain apply; the rebase kernel fuses the write side's
delta-of-delta (target − root − prior) into the same code+histogram
pass.

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
its gate rejects the input, and callers fall through to numpy.

The shared object is cached under ``.cache/native/`` next to the
package (keyed by a hash of the C source, so edits rebuild) and falls
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

/* Fused arithmetic delta over int64 cells: one streaming pass emits
 * the wrap-around difference's zigzag code and counts its exact bit
 * length into a 65-bucket histogram.  Matches numpy's
 * compute_delta -> zigzag_encode -> width bincount bit for bit. */
void repro_delta_zigzag_hist(const int64_t *t, const int64_t *b,
                             uint64_t *codes, int64_t *hist,
                             int64_t n)
{
    memset(hist, 0, 65 * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) {
        uint64_t d = (uint64_t)t[i] - (uint64_t)b[i];
        /* zigzag: (d << 1) ^ (d >> 63) with an arithmetic shift,
         * written with an explicit sign mask so the behaviour does
         * not depend on the compiler's signed-shift choice. */
        uint64_t sign = -(uint64_t)((int64_t)d < 0);
        uint64_t code = (d << 1) ^ sign;
        codes[i] = code;
        hist[code ? 64 - __builtin_clzll(code) : 0]++;
    }
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

/* Sparse scatter-accumulate over the uint64 bit image:
 * acc[pos[i]] op= delta[i].  The sequential loop is exact under
 * duplicate positions — unlike numpy fancy indexing — which is what
 * lets the fused read path batch every scatter level of a chain into
 * one call.  Bounds are checked by the caller. */
void repro_scatter_add(uint64_t *acc, const int64_t *pos,
                       const uint64_t *delta, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        acc[pos[i]] += delta[i];
}

void repro_scatter_xor(uint64_t *acc, const int64_t *pos,
                       const uint64_t *delta, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        acc[pos[i]] ^= delta[i];
}

/* Fused chain apply for 64-bit cells: acc[i] += base[i] over the
 * uint64 bit image — the same mod-2^64 group numpy's int64 out= add
 * wraps in, so the result is bit-identical. */
void repro_apply_add64(const uint64_t *base, uint64_t *acc, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        acc[i] += base[i];
}

/* Rebase counterpart of repro_delta_zigzag_hist: the codes of
 * (target - parent) where parent = root + prior (all wrapping int64),
 * without ever materializing the parent cells. */
void repro_rebase_zigzag_hist(const int64_t *t, const int64_t *r,
                              const int64_t *p, uint64_t *codes,
                              int64_t *hist, int64_t n)
{
    memset(hist, 0, 65 * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) {
        uint64_t d = (uint64_t)t[i] - (uint64_t)r[i] - (uint64_t)p[i];
        uint64_t sign = -(uint64_t)((int64_t)d < 0);
        uint64_t code = (d << 1) ^ sign;
        codes[i] = code;
        hist[code ? 64 - __builtin_clzll(code) : 0]++;
    }
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
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
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
                    [compiler, "-O2", "-shared", "-fPIC",
                     "-o", str(staging), str(src)],
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
        lib.repro_delta_zigzag_hist.argtypes = [
            _I64_P, _I64_P, _U64_P, _I64_P, ctypes.c_int64]
        lib.repro_delta_zigzag_hist.restype = None
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
        lib.repro_scatter_add.argtypes = [_U64_P, _I64_P, _U64_P,
                                          ctypes.c_int64]
        lib.repro_scatter_add.restype = None
        lib.repro_scatter_xor.argtypes = [_U64_P, _I64_P, _U64_P,
                                          ctypes.c_int64]
        lib.repro_scatter_xor.restype = None
        lib.repro_apply_add64.argtypes = [_U64_P, _U64_P,
                                          ctypes.c_int64]
        lib.repro_apply_add64.restype = None
        lib.repro_rebase_zigzag_hist.argtypes = [
            _I64_P, _I64_P, _I64_P, _U64_P, _I64_P, ctypes.c_int64]
        lib.repro_rebase_zigzag_hist.restype = None
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


def delta_zigzag_stats(target: np.ndarray, base: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray] | None:
    """Fused ``compute_delta`` + zigzag + width histogram, or None.

    Applies only to the arithmetic int64 cell path over C-contiguous
    arrays — exactly the layout the chunk pipeline produces.  Returns
    ``(codes, width_counts)`` where ``codes`` is the flat uint64 zigzag
    code array and ``width_counts[d]`` counts codes of exact bit length
    ``d`` — both bit-identical to the numpy pipeline's.
    """
    lib = _active()
    # The isinstance gate matters: numpy *scalars* (0-d arithmetic
    # results) satisfy the dtype/flags/size checks but carry no
    # ``.ctypes`` buffer interface.
    if (lib is None
            or not isinstance(target, np.ndarray)
            or not isinstance(base, np.ndarray)
            or target.dtype != np.int64 or base.dtype != np.int64
            or not target.flags.c_contiguous
            or not base.flags.c_contiguous
            or target.size == 0):
        return None
    n = target.size
    codes = np.empty(n, dtype=np.uint64)
    hist = np.empty(65, dtype=np.int64)
    lib.repro_delta_zigzag_hist(
        target.ctypes.data_as(_I64_P), base.ctypes.data_as(_I64_P),
        codes.ctypes.data_as(_U64_P), hist.ctypes.data_as(_I64_P),
        ctypes.c_int64(n))
    return codes, hist


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


def _scatter_ready(accumulator: np.ndarray, index: np.ndarray,
                   delta: np.ndarray) -> bool:
    """Layout gate shared by both scatter kernels: 64-bit cells,
    C-contiguous, int64 positions, matching pair length."""
    return (isinstance(accumulator, np.ndarray)
            and isinstance(index, np.ndarray)
            and isinstance(delta, np.ndarray)
            and accumulator.dtype.itemsize == 8
            and delta.dtype.itemsize == 8
            and index.dtype == np.int64
            and accumulator.flags.c_contiguous
            and accumulator.flags.writeable
            and index.flags.c_contiguous
            and delta.flags.c_contiguous
            and index.size == delta.size
            and index.size > 0)


def scatter_add(accumulator: np.ndarray, index: np.ndarray,
                delta: np.ndarray) -> bool:
    """``accumulator[index] += delta`` over the uint64 bit image.

    Returns True when the kernel ran.  Positions must already be
    bounds-checked; unlike numpy fancy indexing the sequential loop is
    exact under duplicate positions, so batched multi-level scatters
    are safe here and only here.
    """
    lib = _active()
    if lib is None or not _scatter_ready(accumulator, index, delta):
        return False
    lib.repro_scatter_add(
        accumulator.ctypes.data_as(_U64_P),
        index.ctypes.data_as(_I64_P), delta.ctypes.data_as(_U64_P),
        ctypes.c_int64(index.size))
    return True


def scatter_xor(accumulator: np.ndarray, index: np.ndarray,
                delta: np.ndarray) -> bool:
    """``accumulator[index] ^= delta``; see :func:`scatter_add`."""
    lib = _active()
    if lib is None or not _scatter_ready(accumulator, index, delta):
        return False
    lib.repro_scatter_xor(
        accumulator.ctypes.data_as(_U64_P),
        index.ctypes.data_as(_I64_P), delta.ctypes.data_as(_U64_P),
        ctypes.c_int64(index.size))
    return True


def apply_add64(base: np.ndarray, accumulator: np.ndarray) -> bool:
    """``accumulator += base`` over the uint64 bit image, in place.

    The fused chain's single apply for 64-bit integer cells: one
    wrapping-add pass folds the materialized root into the composed
    accumulator, which then *is* the reconstructed version.  Returns
    True when the kernel ran.
    """
    lib = _active()
    if (lib is None or not isinstance(base, np.ndarray)
            or not isinstance(accumulator, np.ndarray)
            or base.dtype.itemsize != 8
            or base.dtype.kind not in ("i", "u")
            or accumulator.dtype.itemsize != 8
            or accumulator.dtype.kind not in ("i", "u")
            or not base.flags.c_contiguous
            or not accumulator.flags.c_contiguous
            or not accumulator.flags.writeable
            or base.size != accumulator.size or base.size == 0):
        return False
    lib.repro_apply_add64(
        base.ctypes.data_as(_U64_P),
        accumulator.ctypes.data_as(_U64_P),
        ctypes.c_int64(base.size))
    return True


def rebase_zigzag_stats(target: np.ndarray, root: np.ndarray,
                        prior: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray] | None:
    """Fused delta-of-delta: codes of ``target - (root + prior)``.

    The re-base counterpart of :func:`delta_zigzag_stats` — same
    ``(codes, width_counts)`` contract, but the parent is given as the
    materialized root plus the composed prior-chain delta and is never
    materialized itself.  int64 cells only; everything else returns
    None and the caller re-bases in numpy.
    """
    lib = _active()
    if (lib is None
            or not isinstance(target, np.ndarray)
            or not isinstance(root, np.ndarray)
            or not isinstance(prior, np.ndarray)
            or target.dtype != np.int64 or root.dtype != np.int64
            or prior.dtype != np.int64
            or not target.flags.c_contiguous
            or not root.flags.c_contiguous
            or not prior.flags.c_contiguous
            or target.size != root.size
            or target.size != prior.size
            or target.size == 0):
        return None
    n = target.size
    codes = np.empty(n, dtype=np.uint64)
    hist = np.empty(65, dtype=np.int64)
    lib.repro_rebase_zigzag_hist(
        target.ctypes.data_as(_I64_P), root.ctypes.data_as(_I64_P),
        prior.ctypes.data_as(_I64_P), codes.ctypes.data_as(_U64_P),
        hist.ctypes.data_as(_I64_P), ctypes.c_int64(n))
    return codes, hist
