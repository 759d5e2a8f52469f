"""The store's compressors, keyed by the name an array records.

The version metadata records, per chunk, the name of the compression
codec that produced it (Section II-A step three); the select path looks
the decoder up here.  The table is fixed: no compression, and
Lempel-Ziv, Table II's winner.  Table II's other rows are comparison
baselines in :mod:`repro.baselines`; a name not in the table raises
:class:`CodecError`.
"""

from __future__ import annotations

from repro.compression.base import Codec, IdentityCodec
from repro.compression.lz import LempelZivCodec
from repro.core.errors import CodecError

_CODECS: dict[str, Codec] = {
    codec.name: codec for codec in (IdentityCodec(), LempelZivCodec())
}


def codec_names() -> tuple[str, ...]:
    """Every store compressor name, sorted."""
    return tuple(sorted(_CODECS))


def get_codec(name: str) -> Codec:
    """The store compressor recorded as ``name``."""
    try:
        return _CODECS[name]
    except KeyError:
        raise CodecError(
            f"unknown compression codec {name!r}; "
            f"registered: {codec_names()}") from None
