"""Ingest conformance — the parallel write pipeline's stored bytes.

The insert path (plan → encode → commit, Figure 1 left) fans chunk
encoding and placement across a thread pool.  This experiment ingests
the same whole-version inserts into a multi-chunk array across a
``workers`` x ``backend`` grid and reports the paper-style I/O counters
(``bytes_written``, ``chunks_written``, ``encode_tasks``) and a
byte-identity check: a SHA-256 fingerprint over every catalog row and
every stored payload, which must be identical in every cell — the
parallel encode fan-out may change wall-clock only, never one stored
byte or catalog row.  Ingest wall clock is ``benchmarks/e2e``'s to
measure (``ingest-chain``), not this grid's.

The default profile is *placement-bound*: high-entropy versions under
the ``materialize`` policy, so the encode stage is a cheap slice+copy
and the commit stage places full-size payloads.  The ``durable`` cell
fsyncs every placement; the ``object`` cell runs the S3-style
emulation — placements stage multipart parts and the per-version
barrier finalizes them in one fanned pass, so the identity fingerprint
also proves the staged uploads commit byte-for-byte what local files
would.  Pass ``delta_policy="chain"`` for the delta-encoding profile
instead (every version delta-encoded against its parent).
``json_path`` writes every row to a JSON artifact
(``BENCH_ingest.json`` in CI).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from paper.harness import (
    backend_axis,
    fan_width,
    fmt_bytes,
    print_table,
    workers_axis,
)
from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager

ARRAY = "ingest"


def _dataset(versions: int, shape: tuple[int, ...],
             seed: int = 2012) -> list[np.ndarray]:
    """One high-entropy int64 array per version (deterministic)."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 1 << 40, shape).astype(np.int64)
            for _ in range(versions)]


def _ingest_once(root: Path, datas: list[np.ndarray], backend: str,
                 chunk_bytes: int,
                 delta_policy: str) -> VersionedStorageManager:
    """Build a fresh store, insert every version, return the (still
    open) manager."""
    manager = VersionedStorageManager(root, chunk_bytes=chunk_bytes,
                                      compressor="none",
                                      delta_codec="hybrid",
                                      delta_policy=delta_policy,
                                      backend=backend)
    manager.create_array(ARRAY, ArraySchema.simple(
        datas[0].shape, dtype=datas[0].dtype))
    for data in datas:
        manager.insert(ARRAY, data)
    return manager


def run(versions: int = 12, shape: tuple[int, ...] = (1024, 1024),
        chunk_bytes: int = 1 << 18, *, backends=None, workers=None,
        delta_policy: str = "materialize",
        workdir: str | None = None,
        json_path: str | Path | None = None,
        quiet: bool = False) -> list[dict]:
    """Ingest the same deterministic dataset into one fresh store per
    workers x backend cell and report its counters and fingerprint."""
    datas = _dataset(versions, shape)
    logical_bytes = sum(data.nbytes for data in datas)
    rows = []
    reference: str | None = None
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        for backend in backend_axis(backends):
            for degree in workers_axis(workers):
                with fan_width(degree):
                    manager = _ingest_once(
                        Path(scratch) / backend.replace(":", "_")
                        / f"w{degree}", datas, backend,
                        chunk_bytes, delta_policy)
                    fingerprint = manager.fingerprint(ARRAY)
                window = manager.stats
                if reference is None:
                    reference = fingerprint
                rows.append({
                    "backend": backend,
                    "workers": degree,
                    "delta_policy": delta_policy,
                    "versions": versions,
                    "logical_mb": logical_bytes / 1e6,
                    "bytes_written": window.bytes_written,
                    "chunks_written": window.chunks_written,
                    "encode_tasks": window.encode_tasks,
                    "encode_plans": window.encode_plans,
                    "codec_encodes_avoided":
                        window.codec_encodes_avoided,
                    "planner_bytes_saved": window.planner_bytes_saved,
                    "fingerprint": fingerprint,
                    "identical_to_serial": fingerprint == reference,
                })
                manager.close()

    if json_path is not None:
        Path(json_path).write_text(json.dumps(rows, indent=2))
    if not quiet:
        print_table(
            "Ingest: whole-version inserts through the staged write "
            "pipeline (stored bytes identical in every cell)",
            ["Backend", "Workers", "Bytes Written", "Encodes Avoided",
             "Identical"],
            [[row["backend"], str(row["workers"]),
              fmt_bytes(row["bytes_written"]),
              str(row["codec_encodes_avoided"]),
              "yes" if row["identical_to_serial"] else "NO"]
             for row in rows])
    return rows


def run_full(json_path: str | Path | None = "BENCH_ingest.json",
             quiet: bool = False) -> list[dict]:
    """The CI grid: the placement-bound sweep over every backend plus
    the ``chain`` cells (every version hybrid-delta-encoded against its
    parent) on the fast substrates, merged into one artifact.  Each profile carries its own reference fingerprint —
    the two store different bytes by design — and the regression gate
    tells the rows apart by their ``delta_policy`` column."""
    rows = run(backends=("local", "durable", "memory", "striped:2",
                         "object"),
               workers=(1, 4), quiet=quiet)
    rows += run(backends=("local", "memory"), workers=(1, 4),
                delta_policy="chain", quiet=quiet)
    if json_path is not None:
        Path(json_path).write_text(json.dumps(rows, indent=2))
    return rows


if __name__ == "__main__":  # pragma: no cover
    run_full()
