"""The paper's comparison baselines.

* The SVN-like and Git-like repositories of Section V-C (Tables VI and
  VII), with their xdelta differ.
* Table I's non-array delta algorithms: the MPEG-2-like block matcher
  and the BSDiff-style binary differ.
* Table II's other compressors — run-length encoding, null
  suppression, the PNG-like and JPEG2000-like codecs — plus adaptive
  LZ.

None of them is a store codec: the store writes only the codecs in
:mod:`repro.delta.registry` and :mod:`repro.compression.registry`.
"""

from paper.baselines.adaptive import AdaptiveLZCodec
from paper.baselines.base import BaselineVCS
from paper.baselines.bsdiff import BSDiffDeltaCodec, suffix_array
from paper.baselines.git_like import GitLikeRepository, GitOutOfMemoryError
from paper.baselines.jpeg2000_like import JPEG2000LikeCodec
from paper.baselines.mpeg_like import MPEGLikeDeltaCodec
from paper.baselines.null_suppression import NullSuppressionCodec
from paper.baselines.png_like import PNGLikeCodec
from paper.baselines.rle import RunLengthCodec
from paper.baselines.svn_like import SvnLikeRepository
from paper.baselines.xdelta import xdelta_decode, xdelta_encode

__all__ = [
    "AdaptiveLZCodec",
    "BSDiffDeltaCodec",
    "BaselineVCS",
    "GitLikeRepository",
    "GitOutOfMemoryError",
    "JPEG2000LikeCodec",
    "MPEGLikeDeltaCodec",
    "NullSuppressionCodec",
    "PNGLikeCodec",
    "RunLengthCodec",
    "SvnLikeRepository",
    "suffix_array",
    "xdelta_decode",
    "xdelta_encode",
]
