"""Table II — compression algorithm performance on delta arrays.

Paper protocol: hybrid deltas are computed for the NOAA chain, then the
*delta arrays themselves* are further compressed with each codec; the
table reports total size and query (decompress + apply) time.

Paper's rows:

    Hybrid Delta only        133 MB    3.53 s
    Lempel-Ziv                94 MB    4.01 s
    Run-Length Encoding      133 MB    3.32 s
    PNG compression          116 MB    5.93 s
    JPEG 2000 compression    118 MB   20.23 s

Expected shape: LZ the clear winner ("smallest resulting data size and
the fastest query time of the compression methods"), RLE ~no gain,
image codecs in between with slower queries (JPEG2000 slowest).
"""

from __future__ import annotations

import numpy as np

from paper.baselines import JPEG2000LikeCodec, PNGLikeCodec, RunLengthCodec
from paper.harness import fmt_bytes, fmt_seconds, print_table, timed
from repro.compression import Codec, LempelZivCodec
from repro.datasets import noaa_series
from repro.delta import CodePlan, codes as code_store

#: The hybrid strategy's sections: the small codes and the outliers.
_HYBRID = code_store.SMALL | code_store.TABLE


def compressors() -> dict[str, Codec | None]:
    """Table II's codec rows (None = hybrid delta only)."""
    return {
        "Hybrid Delta only": None,
        "Lempel-Ziv": LempelZivCodec(),
        "Run-Length Encoding": RunLengthCodec(),
        "PNG compression": PNGLikeCodec(),
        "JPEG 2000 compression": JPEG2000LikeCodec(),
    }


def _delta_plans(corpus: dict[str, list[np.ndarray]]) -> list[CodePlan]:
    """The delta plan (codes + width statistics) of every consecutive
    pair."""
    return [CodePlan.build(current, previous)
            for frames in corpus.values()
            for previous, current in zip(frames, frames[1:])]


def run(versions: int = 10, shape: tuple[int, int] = (96, 96), *,
        quiet: bool = False) -> list[dict]:
    """Regenerate Table II at reproduction scale."""
    corpus = noaa_series(versions, shape=shape)
    plans = _delta_plans(corpus)
    deltas = [plan.codes.reshape(plan.target.shape) for plan in plans]

    rows = []
    for name, codec in compressors().items():
        if codec is None:
            # The baseline row: the hybrid delta encoding itself.
            encoded = [code_store.pack_sections(
                plan.codes, plan.stats, _HYBRID,
                code_store.section_size(plan.stats, _HYBRID)[1])
                for plan in plans]
            size = sum(len(e) for e in encoded)
            with timed() as query_timer:
                for blob, delta in zip(encoded, deltas):
                    out = np.zeros(delta.size, dtype=np.uint64)
                    for where, codes in code_store.read_sections(
                            blob, _HYBRID, delta.size):
                        out[where] = codes
                    assert out.shape == delta.ravel().shape
        else:
            encoded = [codec.encode(delta) for delta in deltas]
            size = sum(len(e) for e in encoded)
            with timed() as query_timer:
                for blob, delta in zip(encoded, deltas):
                    out = codec.decode(blob)
                    assert out.shape == delta.shape
        rows.append({
            "compression": name,
            "size_bytes": size,
            "query_seconds": query_timer.seconds,
        })

    if not quiet:
        print_table(
            "Table II: compression on delta arrays",
            ["Compression", "Size", "Query Time"],
            [[row["compression"], fmt_bytes(row["size_bytes"]),
              fmt_seconds(row["query_seconds"])] for row in rows])
    return rows


if __name__ == "__main__":  # pragma: no cover
    run()
