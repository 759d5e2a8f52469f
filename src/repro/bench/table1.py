"""Table I — performance of selected differencing algorithms.

Paper protocol: "We ran these algorithms on the first 10 versions of the
NOAA data set.  This data set contains multiple arrays at each version"
(one matrix per measurement).  Each algorithm stores the version
sequence as a linear chain — the first version in full, each later
version delta'ed against its predecessor — and the table reports import
time, total size, and the time to read every version back.

Paper's rows (253 MB of raw input):

    Uncompressed          4.31 s    253 MB    2.75 s
    Dense                 8.99 s    168 MB    3.41 s
    Sparse               21.15 s    191 MB    3.21 s
    Hybrid               15.16 s    142 MB    2.81 s
    MPEG-2-like Matcher  9598  s    138 MB   39.60 s
    BSDiff                343  s    133 MB    3.59 s

Expected shape at our scale: hybrid smallest of the array deltas with
query time close to uncompressed; MPEG-2-like import orders of magnitude
slower; BSDiff competitive in size but slow to import.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import BSDiffDeltaCodec, MPEGLikeDeltaCodec
from repro.bench.harness import fmt_bytes, fmt_seconds, print_table, timed
from repro.datasets import noaa_series
from repro.delta import (
    DeltaCodec,
    DenseDeltaCodec,
    HybridDeltaCodec,
    SparseDeltaCodec,
)

#: A Table I row's codec: a store delta codec, a comparison baseline,
#: or None for the uncompressed row.
RowCodec = DeltaCodec | MPEGLikeDeltaCodec | BSDiffDeltaCodec | None


def _chain_import(series: list[np.ndarray],
                  codec: RowCodec) -> list[bytes]:
    """Encode a version series as a linear chain of deltas."""
    payloads = [series[0].tobytes()]
    for previous, current in zip(series, series[1:]):
        if codec is None:
            payloads.append(current.tobytes())
        else:
            payloads.append(codec.encode(current, previous))
    return payloads


def _chain_query(series: list[np.ndarray], payloads: list[bytes],
                 codec: RowCodec) -> None:
    """Reconstruct every version of the chain, verifying the contents."""
    current = np.frombuffer(payloads[0],
                            dtype=series[0].dtype).reshape(series[0].shape)
    for index, payload in enumerate(payloads[1:], 1):
        if codec is None:
            current = np.frombuffer(
                payload, dtype=series[0].dtype).reshape(series[0].shape)
        else:
            current = codec.decode_forward(payload, current)
        if index == len(payloads) - 1:
            assert current.tobytes() == series[index].tobytes()


def algorithms(mpeg_radius: int = 4) -> dict[str, RowCodec]:
    """Table I's algorithm rows.

    ``mpeg_radius`` scales the block-matcher search window; the paper
    used radius 16 and noted cost proportional to the window area.
    """
    return {
        "Uncompressed": None,
        "Dense": DenseDeltaCodec(),
        "Sparse": SparseDeltaCodec(),
        "Hybrid": HybridDeltaCodec(),
        "MPEG-2-like Matcher": MPEGLikeDeltaCodec(block=16,
                                                  radius=mpeg_radius),
        "BSDiff": BSDiffDeltaCodec(),
    }


def run(versions: int = 10, shape: tuple[int, int] = (96, 96), *,
        mpeg_radius: int = 4, quiet: bool = False) -> list[dict]:
    """Regenerate Table I at reproduction scale."""
    corpus = noaa_series(versions, shape=shape)
    raw_bytes = sum(frame.nbytes
                    for frames in corpus.values() for frame in frames)

    rows = []
    for name, codec in algorithms(mpeg_radius).items():
        with timed() as import_timer:
            stored = {measurement: _chain_import(frames, codec)
                      for measurement, frames in corpus.items()}
        total_size = sum(len(payload)
                         for chain in stored.values() for payload in chain)
        with timed() as query_timer:
            for measurement, frames in corpus.items():
                _chain_query(frames, stored[measurement], codec)
        rows.append({
            "algorithm": name,
            "import_seconds": import_timer.seconds,
            "size_bytes": total_size,
            "query_seconds": query_timer.seconds,
        })

    if not quiet:
        print_table(
            f"Table I: differencing algorithms "
            f"({raw_bytes / 2**20:.1f} MB NOAA corpus, {versions} versions)",
            ["Delta Algorithm", "Import Time", "Size", "Query Time"],
            [[row["algorithm"],
              fmt_seconds(row["import_seconds"]),
              fmt_bytes(row["size_bytes"]),
              fmt_seconds(row["query_seconds"])] for row in rows])
    return rows


if __name__ == "__main__":  # pragma: no cover
    run()
