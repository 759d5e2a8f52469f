"""The "MPEG-2-like matcher" of Table I: block motion compensation.

"The MPEG-2-like matcher is built on top of hybrid compression, but the
target array is broken up into 16x16 chunks and each chunk is compared to
every possible region in a 16-cell radius around its origin, in case the
image has shifted in one direction."

Per 16x16 block the codec searches a (2r+1)^2 offset window for the
translation of the base that minimizes the residual magnitude, stores one
motion vector per block, and hybrid-encodes the residual.  As in the
paper, the search cost is proportional to the window area — the Table I
experiment reproduces the matcher being orders of magnitude slower than
the plain hybrid delta.

Arrays of dimensionality other than 2 are folded to 2-D (first dimension
by the rest) before matching; this preserves correctness for any shape.
"""

from __future__ import annotations

import numpy as np

from repro.core import bitpack, numeric
from repro.core.errors import CodecError
from repro.core.serial import (
    pack_i64,
    unpack_i64,
)
from repro.delta import codes as code_store
from repro.delta.base import pack_frame, unpack_frame

#: The residual's sections: the hybrid split of its codes.
_HYBRID = code_store.SMALL | code_store.TABLE


class MPEGLikeDeltaCodec:
    """Block-matching motion-compensated delta (directional).

    A Table I comparison row, not a store codec: ``encode`` /
    ``decode_forward`` over the store's delta frame
    (:func:`repro.delta.base.pack_frame`).
    """

    name = "mpeg-like"

    def __init__(self, block: int = 16, radius: int = 16):
        if block < 1:
            raise CodecError("block size must be >= 1")
        if radius < 0:
            raise CodecError("search radius must be >= 0")
        self.block = block
        self.radius = radius

    # ------------------------------------------------------------------
    def encode(self, target: np.ndarray, base: np.ndarray) -> bytes:
        numeric.check_same_layout(np.asarray(target), np.asarray(base))
        mode = numeric.delta_mode_for(target.dtype)
        target2d = _fold_2d(np.ascontiguousarray(target))
        base2d = _fold_2d(np.ascontiguousarray(base))

        rows, cols = target2d.shape
        row_starts = np.arange(0, rows, self.block)
        col_starts = np.arange(0, cols, self.block)
        grid_shape = (len(row_starts), len(col_starts))

        best_cost = np.full(grid_shape, np.inf)
        best_dy = np.zeros(grid_shape, dtype=np.int64)
        best_dx = np.zeros(grid_shape, dtype=np.int64)

        for dy in range(-self.radius, self.radius + 1):
            for dx in range(-self.radius, self.radius + 1):
                shifted = np.roll(base2d, shift=(dy, dx), axis=(0, 1))
                delta, _ = numeric.compute_delta(target2d, shifted)
                codes = code_store.delta_to_codes(delta, mode) \
                    .reshape(rows, cols)
                # Residual cost ~ total bits: log2(code + 1) per cell.
                cell_cost = np.log2(codes.astype(np.float64) + 1.0)
                block_cost = np.add.reduceat(
                    np.add.reduceat(cell_cost, row_starts, axis=0),
                    col_starts, axis=1)
                better = block_cost < best_cost
                best_cost = np.where(better, block_cost, best_cost)
                best_dy = np.where(better, dy, best_dy)
                best_dx = np.where(better, dx, best_dx)

        predicted = _predict(base2d, best_dy, best_dx, self.block)
        residual, _ = numeric.compute_delta(target2d, predicted)
        residual_codes = code_store.delta_to_codes(residual, mode)
        stats = code_store.CodeStats.from_codes(residual_codes)

        mv_bits = bitpack.required_bits(2 * self.radius)
        dy_codes = (best_dy + self.radius).astype(np.uint64).ravel()
        dx_codes = (best_dx + self.radius).astype(np.uint64).ravel()
        return b"".join([
            pack_frame(np.asarray(target), mode),
            pack_i64(self.block),
            pack_i64(self.radius),
            bitpack.pack_unsigned(dy_codes, mv_bits),
            bitpack.pack_unsigned(dx_codes, mv_bits),
            code_store.pack_sections(residual_codes, stats, _HYBRID,
                                     code_store.section_size(
                                         stats, _HYBRID)[1]),
        ])

    def decode_forward(self, data: bytes, base: np.ndarray) -> np.ndarray:
        dtype, shape, mode, offset = unpack_frame(data, base)
        block, offset = unpack_i64(data, offset)
        radius, offset = unpack_i64(data, offset)
        if block < 1 or radius < 0:
            raise CodecError(
                f"mpeg-like payload has block {block}, radius {radius}")
        base2d = _fold_2d(np.ascontiguousarray(base))
        rows, cols = base2d.shape
        grid_shape = (len(range(0, rows, block)), len(range(0, cols, block)))
        grid_cells = grid_shape[0] * grid_shape[1]

        mv_bits = bitpack.required_bits(2 * radius)
        mv_len = bitpack.packed_size(grid_cells, mv_bits)
        dy = bitpack.unpack_unsigned(
            data[offset:offset + mv_len], mv_bits, grid_cells) \
            .astype(np.int64).reshape(grid_shape) - radius
        offset += mv_len
        dx = bitpack.unpack_unsigned(
            data[offset:offset + mv_len], mv_bits, grid_cells) \
            .astype(np.int64).reshape(grid_shape) - radius
        offset += mv_len

        predicted = _predict(base2d, dy, dx, block)
        # The residual is the payload's last section.
        residual_codes = np.zeros(base.size, dtype=np.uint64)
        for where, codes in code_store.read_sections(
                memoryview(data)[offset:], _HYBRID, base.size):
            residual_codes[where] = codes
        residual = code_store.codes_to_delta(residual_codes, mode) \
            .reshape(predicted.shape)
        target2d = numeric.apply_delta_forward(predicted, residual, mode,
                                               dtype)
        return target2d.reshape(shape)


def _fold_2d(array: np.ndarray) -> np.ndarray:
    """View an array as 2-D: (first extent, everything else)."""
    if array.ndim == 2:
        return array
    if array.ndim == 1:
        return array.reshape(1, -1)
    return array.reshape(array.shape[0], -1)


def _predict(base2d: np.ndarray, dy: np.ndarray, dx: np.ndarray,
             block: int) -> np.ndarray:
    """Assemble the motion-compensated prediction block by block.

    Rolls of the base are cached per distinct offset so the cost is
    proportional to the number of *distinct* motion vectors, not blocks.
    """
    rows, cols = base2d.shape
    predicted = np.empty_like(base2d)
    rolls: dict[tuple[int, int], np.ndarray] = {}
    grid_rows, grid_cols = dy.shape
    for bi in range(grid_rows):
        for bj in range(grid_cols):
            offset = (int(dy[bi, bj]), int(dx[bi, bj]))
            if offset not in rolls:
                rolls[offset] = np.roll(base2d, shift=offset, axis=(0, 1))
            r0, r1 = bi * block, min((bi + 1) * block, rows)
            c0, c1 = bj * block, min((bj + 1) * block, cols)
            predicted[r0:r1, c0:c1] = rolls[offset][r0:r1, c0:c1]
    return predicted
