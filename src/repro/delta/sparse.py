"""The "sparse" delta method of Table I.

"The 'sparse' method ... converts the difference array into a sparse
array, under the assumption that relatively few differences will have
nonzero values": only the positions and codes of cells that changed are
stored.
"""

from __future__ import annotations

from repro.delta import codes as code_store
from repro.delta.base import DeltaCodec


class SparseDeltaCodec(DeltaCodec):
    """Position/value pairs for the nonzero delta codes only."""

    name = "sparse"
    scatters = True
    _size = staticmethod(code_store.sparse_size)
    _encode = staticmethod(code_store.encode_sparse_parts)
    _decode = staticmethod(code_store.decode_sparse)
    layout = code_store.TABLE
