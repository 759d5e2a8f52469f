"""The "dense" delta method of Table I.

"The 'dense' method reduces the number of bytes used to store the array
as much as possible without losing data, under the assumption that each
difference value will tend to be small": every cell's delta code is
stored at the single minimal bit width D.
"""

from __future__ import annotations

from repro.delta import codes as code_store
from repro.delta.base import CodeArrayDeltaCodec


class DenseDeltaCodec(CodeArrayDeltaCodec):
    """Uniform minimal-width bit-packed cellwise delta."""

    name = "dense"
    _size = staticmethod(code_store.dense_size)
    _encode = staticmethod(code_store.encode_dense_parts)
    _decode = staticmethod(code_store.decode_dense)
    layout = code_store.SMALL
