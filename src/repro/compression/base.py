"""Compression codec interface.

Section III-B.2: "Our system is able to compress individual versions using
popular compression schemes ... Run-Length encoding, Null Suppression, and
Lempel-Ziv compression.  Additionally, we added compression methods based
on the JPEG2000 and PNG compressors."

Every codec maps a numpy array to a self-describing byte string and back.
Codecs must be *lossless* for every supported dtype: ``decode(encode(a))``
returns an array equal to ``a`` bit-for-bit (NaN payloads included).  The
chunk store treats codec output as opaque bytes; the codec name is
recorded in the version metadata so the select path knows how to decode.
The store writes two codecs (:mod:`repro.compression.registry`); the
comparison codecs of Table II implement the same interface in
``benchmarks/paper/baselines/``, outside the package.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.core.errors import CodecError


class Codec(ABC):
    """A lossless array compressor."""

    #: Registry key and the name recorded in version metadata.
    name: str = "abstract"

    @abstractmethod
    def encode(self, array: np.ndarray) -> bytes:
        """Compress an array into a self-describing byte string."""

    @abstractmethod
    def decode(self, data: bytes) -> np.ndarray:
        """Recover the exact original array from :meth:`encode` output."""

    def decode_view(self, data: bytes) -> np.ndarray:
        """Like :meth:`decode`, but the result may be a *read-only*
        view over ``data`` when the codec can decode without copying.

        Callers must treat the result as immutable and must not assume
        it owns its buffer; anything else should call :meth:`decode`.
        The default simply decodes.
        """
        return self.decode(data)

    def ratio(self, array: np.ndarray) -> float:
        """Convenience: compressed bytes / raw bytes for an array."""
        raw = max(1, np.asarray(array).nbytes)
        return len(self.encode(array)) / raw

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class IdentityCodec(Codec):
    """Stores the raw array bytes with only the header added.

    This is the "no compression" baseline used throughout the paper's
    evaluation tables (the ``None`` rows of Table V).
    """

    name = "none"

    def encode(self, array: np.ndarray) -> bytes:
        from repro.core.serial import pack_array_header

        array = np.ascontiguousarray(array)
        return pack_array_header(array.dtype, array.shape) + array.tobytes()

    def decode(self, data: bytes) -> np.ndarray:
        return self.decode_view(data).copy()

    def decode_view(self, data: bytes) -> np.ndarray:
        # The raw-bytes codec can decode without any copy: the result
        # is a read-only reshape of the payload buffer itself.
        from repro.core.serial import unpack_array_header

        dtype, shape, offset = unpack_array_header(data)
        count = math.prod(shape)
        try:
            flat = np.frombuffer(data, dtype=dtype, count=count,
                                 offset=offset)
            cells = flat.reshape(shape)
        except (ValueError, OverflowError) as exc:
            # Extents the payload does not hold (or negative ones).
            raise CodecError(f"corrupt array payload: {exc}") from exc
        # frombuffer stops after ``count`` cells; bytes past them are
        # refused, as every delta codec refuses its trailing bytes.
        surplus = memoryview(data).nbytes - offset - flat.nbytes
        if surplus:
            raise CodecError(
                f"array payload has {surplus} undecoded trailing bytes")
        return cells
