"""The store's delta codecs, keyed by the name a chunk row records.

The table is fixed: the dense / sparse / hybrid family, hybrid also
with its LZ stage.  Codecs hold no state, so one instance of each
serves every lookup.  Table I's other rows (the MPEG-2-like matcher,
BSDiff) are comparison baselines in ``benchmarks/paper/baselines/``; a
chunk row naming one, or any other name, raises :class:`CodecError`.
"""

from __future__ import annotations

from repro.core.errors import CodecError
from repro.delta.base import DeltaCodec
from repro.delta.dense import DenseDeltaCodec
from repro.delta.hybrid import HybridDeltaCodec
from repro.delta.sparse import SparseDeltaCodec

_CODECS: dict[str, DeltaCodec] = {
    codec.name: codec
    for codec in (DenseDeltaCodec(), SparseDeltaCodec(),
                  HybridDeltaCodec(), HybridDeltaCodec(lz=True))
}


def delta_codec_names() -> tuple[str, ...]:
    """Every store delta codec name, sorted."""
    return tuple(sorted(_CODECS))


def get_delta_codec(name: str) -> DeltaCodec:
    """The store delta codec recorded as ``name``."""
    try:
        return _CODECS[name]
    except KeyError:
        raise CodecError(
            f"unknown delta codec {name!r}; "
            f"registered: {delta_codec_names()}") from None
