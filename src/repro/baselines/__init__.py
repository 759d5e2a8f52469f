"""The paper's comparison baselines.

* The SVN-like and Git-like repositories of Section V-C (Tables VI and
  VII), with their xdelta differ.
* Table I's non-array delta algorithms: the MPEG-2-like block matcher
  and the BSDiff-style binary differ.
* Table II's other compressors — run-length encoding, null
  suppression, the PNG-like and JPEG2000-like codecs — plus LZW and
  adaptive LZ.

None of them is a store codec: the store writes only the codecs in
:mod:`repro.delta.registry` and :mod:`repro.compression.registry`.
"""

from repro.baselines.adaptive import AdaptiveLZCodec
from repro.baselines.base import BaselineVCS
from repro.baselines.bsdiff import BSDiffDeltaCodec, suffix_array
from repro.baselines.git_like import GitLikeRepository, GitOutOfMemoryError
from repro.baselines.jpeg2000_like import JPEG2000LikeCodec
from repro.baselines.lzw import LZWCodec
from repro.baselines.mpeg_like import MPEGLikeDeltaCodec
from repro.baselines.null_suppression import NullSuppressionCodec
from repro.baselines.png_like import PNGLikeCodec
from repro.baselines.rle import RunLengthCodec
from repro.baselines.svn_like import SvnLikeRepository
from repro.baselines.xdelta import xdelta_decode, xdelta_encode

__all__ = [
    "AdaptiveLZCodec",
    "BSDiffDeltaCodec",
    "BaselineVCS",
    "GitLikeRepository",
    "GitOutOfMemoryError",
    "JPEG2000LikeCodec",
    "LZWCodec",
    "MPEGLikeDeltaCodec",
    "NullSuppressionCodec",
    "PNGLikeCodec",
    "RunLengthCodec",
    "SvnLikeRepository",
    "suffix_array",
    "xdelta_decode",
    "xdelta_encode",
]
