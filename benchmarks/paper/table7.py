"""Table VII — SVN and Git versus our system on the NOAA data.

Paper's rows (253 MB of ~1 MB matrices; no subselects because "each
version is only about 1 MB so fits into a single chunk"):

    Uncompressed     4.31 s   253 MB   2.75 s
    Hybrid+LZ       13.1  s    90 MB   5.47 s
    SVN             47.0  s   111 MB   7.97 s
    Git            100.5  s   147 MB   3.70 s

Expected shape: Git loads successfully here (small objects) but far
slower than our system; Hybrid+LZ yields the smallest data; the
uncompressed store has the fastest selects at this small scale because
decompression dominates I/O savings.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from paper.baselines import GitLikeRepository, SvnLikeRepository
from paper.harness import fmt_bytes, fmt_seconds, print_table, timed
from repro.core.schema import ArraySchema
from repro.datasets import noaa_series
from repro.storage import (
    POLICY_CHAIN,
    POLICY_MATERIALIZE,
    VersionedStorageManager,
)

CONFIGURATIONS = {
    "Uncompressed": dict(compressor="none",
                         delta_policy=POLICY_MATERIALIZE),
    "Hybrid+LZ": dict(compressor="lz", delta_codec="hybrid+lz",
                      delta_policy=POLICY_CHAIN),
}


def run(versions: int = 10, shape: tuple[int, int] = (96, 96), *,
        workdir: str | None = None, quiet: bool = False) -> list[dict]:
    """Regenerate Table VII at reproduction scale."""
    corpus = noaa_series(versions, shape=shape)
    rows = []
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        base = Path(scratch)

        for name, config in CONFIGURATIONS.items():
            manager = VersionedStorageManager(
                base / name.replace("+", ""),
                chunk_bytes=shape[0] * shape[1] * 4 + 1, **config)
            with timed() as import_timer:
                for measurement, frames in corpus.items():
                    manager.create_array(
                        measurement,
                        ArraySchema.simple(shape, dtype=np.float32))
                    for frame in frames:
                        manager.insert(measurement, frame)
            total = sum(manager.store.total_bytes(m) for m in corpus)
            with timed() as select_timer:
                for measurement in corpus:
                    manager.select(measurement, versions)
            rows.append({
                "method": name,
                "import_seconds": import_timer.seconds,
                "size_bytes": total,
                "select_seconds": select_timer.seconds,
            })
            manager.catalog.close()

        for method, repo in (
                ("SVN", SvnLikeRepository(base / "svn")),
                ("Git", GitLikeRepository(base / "git", window=10))):
            with timed() as import_timer:
                for measurement, frames in corpus.items():
                    for frame in frames:
                        repo.commit({f"{measurement}.dat": frame.tobytes()})
                repo.pack()
            with timed() as select_timer:
                for measurement in corpus:
                    repo.read(f"{measurement}.dat", versions)
            rows.append({
                "method": method,
                "import_seconds": import_timer.seconds,
                "size_bytes": repo.data_size(),
                "select_seconds": select_timer.seconds,
            })

    if not quiet:
        print_table(
            f"Table VII: SVN and Git on NOAA ({versions} versions x "
            f"{len(corpus)} measurements)",
            ["Method", "Import Time", "Data Size", "1 Array Select"],
            [[row["method"],
              fmt_seconds(row["import_seconds"]),
              fmt_bytes(row["size_bytes"]),
              fmt_seconds(row["select_seconds"])] for row in rows])
    return rows


if __name__ == "__main__":  # pragma: no cover
    run()
