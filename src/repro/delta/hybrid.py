"""The "hybrid" delta method of Table I — the paper's best performer.

"The 'hybrid' method calculates an optimal threshold value and splits the
delta array into two arrays, one (sparse or dense) array of large values
and one (dense) array of small values" (Section III-B.3 / V-A).

The threshold (a small-code bit width D) is chosen by exact cost search
over all candidate widths — see
:meth:`repro.delta.codes.CodeStats.split_curve`.  An optional Lempel-Ziv
stage over the packed payload implements the "Hybrid + LZ" configuration
used throughout Section V.
"""

from __future__ import annotations

from repro.compression.lz import lz_bytes, unlz_bytes
from repro.core import native
from repro.core.serial import pack_u8, unpack_u8
from repro.delta import codes as code_store
from repro.delta.base import DeltaCodec


class HybridDeltaCodec(DeltaCodec):
    """Optimal small/large split delta, optionally LZ-compressed."""

    name = "hybrid"
    layout = code_store.SMALL | code_store.TABLE

    def __init__(self, lz: bool = False):
        self.lz = lz
        if lz:
            self.name = "hybrid+lz"

    def _seal(self, parts: list[bytes]) -> list[bytes]:
        if self.lz:
            # The LZ stage consumes one contiguous buffer, so it joins
            # here; the un-compressed path hands its sections through.
            parts = [lz_bytes(b"".join(parts))]
        return [pack_u8(int(self.lz)), *parts]

    @property
    def fold_layout(self) -> int | None:
        # An LZ stage must be undone in Python; the flag byte of a
        # plain level is checked by the kernel.
        return None if self.lz else self.layout | native.FOLD_SEALED

    def _unseal(self, payload: memoryview):
        lz_flag, offset = unpack_u8(payload, 0)
        payload = payload[offset:]
        return unlz_bytes(payload) if lz_flag else payload
