"""The layer ladder and the in-run roofline.

The same bytes — one whole version of the ``scan-deep`` store, every
chunk chain of it — are pushed through each layer from the bottom up,
so the cost each layer adds over the one beneath is a column:

read side   ``np.copyto`` (memcpy roofline) -> ``core.bitpack`` unpack
            -> ``repro.delta`` codec decode -> ``DecodePipeline
            .read_version`` -> ``manager.select`` -> ``Database.select``
            -> ``Database.execute``
write side  ``core.bitpack`` pack -> codec encode ->
            ``EncodePipeline.write_version`` -> ``manager.insert``
backends    raw ``backend.read_many`` of the same bytes, per backend

Every rung reports the median over :data:`REPEATS` passes, MB/s of
logical array bytes, and its *tax*: its time over the rung beneath.  A
rung whose API is gone reports ``unavailable`` and the ladder carries
on.

:func:`calibrate` is the part every traced run needs: unit costs of the
codec on this run's own data, and the memcpy bandwidth, for
``overhead_factor`` and ``roofline_frac``.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from . import datagen
from .workloads import ARRAY, CHAIN, ScanDeep

REPEATS = 5
MIB = float(1 << 20)
CODEC = "hybrid"


def _median_seconds(call, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _chunk_slices(scale: datagen.Scale) -> list[tuple[slice, slice]]:
    """The 4x4 chunk grid every scale's ``chunk_bytes`` yields."""
    rows, cols = scale.shape
    step_r, step_c = rows // 4, cols // 4
    return [(slice(r, r + step_r), slice(c, c + step_c))
            for r in range(0, rows, step_r)
            for c in range(0, cols, step_c)]


def _chunk_pairs(base: np.ndarray, target: np.ndarray,
                 scale: datagen.Scale) -> list[tuple]:
    return [(np.ascontiguousarray(target[s]), np.ascontiguousarray(base[s]))
            for s in _chunk_slices(scale)]


def calibrate(seed: int, scale: datagen.Scale) -> dict:
    """Unit costs on this seed's own data, one chunk at a time: codec
    ``encode`` / ``decode_forward`` / ``accumulate`` seconds per chunk
    level (averaged over every chunk of one version step), the chunk
    copy, and the memcpy bandwidth of a whole version."""
    from repro.delta import get_delta_codec

    series = datagen.VersionSeries(seed, scale)
    base = series.base()
    target = series.step(base, 1)
    pairs = _chunk_pairs(base, target, scale)
    codec = get_delta_codec(CODEC)
    payloads = [codec.encode(t, b) for t, b in pairs]

    def encode_all():
        for t, b in pairs:
            codec.encode(t, b)

    def decode_all():
        for payload, (_, b) in zip(payloads, pairs):
            codec.decode_forward(payload, b)

    folds = 4

    def accumulate_all():
        for payload in payloads:
            accumulator = None
            for _ in range(folds):
                accumulator = codec.accumulate(payload, accumulator)[0]

    scratch = np.empty_like(pairs[0][0])

    def copy_all():
        for t, _ in pairs:
            np.copyto(scratch, t)

    whole = np.empty_like(target)
    chunks = len(pairs)
    return {
        "encode_s": _median_seconds(encode_all) / chunks,
        "decode_forward_s": _median_seconds(decode_all) / chunks,
        "accumulate_s": _median_seconds(accumulate_all) / (chunks * folds),
        "copy_chunk_s": _median_seconds(copy_all) / chunks,
        "memcpy_mb_per_s": target.nbytes / MIB
        / _median_seconds(lambda: np.copyto(whole, target)),
    }


def _rung(rows: list, side: str, name: str, nbytes: int, call,
          repeats: int = REPEATS) -> None:
    try:
        seconds = _median_seconds(call, repeats)
    except Exception as exc:  # a rung's API moved: report, carry on
        rows.append({"side": side, "rung": name,
                     "unavailable": f"{type(exc).__name__}: {exc}"})
        return
    rows.append({"side": side, "rung": name, "ms": seconds * 1e3,
                 "mb_per_s": nbytes / MIB / seconds, "n": repeats})


def run_ladder(seed: int, scale: datagen.Scale, out_dir: Path) -> list:
    """Every rung as a list of rows (see the module docstring)."""
    from repro import ArrayData, Database
    from repro.core import bitpack
    from repro.delta import get_delta_codec
    from repro.storage import VersionRecord

    rows: list = []
    workload = ScanDeep(seed, scale, seconds=1.0)
    workload.generate()
    root = out_dir / "stores" / "ladder"
    shutil.rmtree(root, ignore_errors=True)
    workload.build(root)
    try:
        db = workload.db
        manager = db.manager
        version = CHAIN // 2
        truth = workload.truth
        target = truth[version]
        nbytes = target.nbytes
        codec = get_delta_codec(CODEC)
        slices = _chunk_slices(scale)

        # ---- read side -------------------------------------------------
        whole = np.empty_like(target)
        _rung(rows, "read", "np.copyto", nbytes,
              lambda: np.copyto(whole, target))

        codes = []
        for t, b in _chunk_pairs(truth[version - 1], target, scale):
            zigzag = bitpack.zigzag_encode(
                t.astype(np.int64) - b.astype(np.int64)).ravel()
            bits = bitpack.required_bits_for(zigzag)
            codes.append((zigzag, bits,
                          bitpack.pack_unsigned(zigzag, bits)))
        _rung(rows, "read", "bitpack.unpack_unsigned", nbytes,
              lambda: [bitpack.unpack_unsigned(packed, bits, len(z))
                       for z, bits, packed in codes])

        chains = []
        for s in slices:
            root_chunk = np.ascontiguousarray(truth[1][s])
            payloads = [codec.encode(np.ascontiguousarray(truth[v][s]),
                                     np.ascontiguousarray(truth[v - 1][s]))
                        for v in range(2, version + 1)]
            chains.append((root_chunk, payloads))

        def codec_decode():
            for root_chunk, payloads in chains:
                data = root_chunk
                for payload in payloads:
                    data = codec.decode_forward(payload, data)

        _rung(rows, "read", f"delta.{CODEC}.decode_forward x{version - 1}",
              nbytes, codec_decode)

        record = manager.catalog.get_array(ARRAY)
        grid = manager.grid_for(record)
        _rung(rows, "read", "DecodePipeline.read_version", nbytes,
              lambda: manager.decoder.read_version(record, grid, version))
        _rung(rows, "read", "manager.select", nbytes,
              lambda: manager.select(ARRAY, version))
        _rung(rows, "read", "Database.select", nbytes,
              lambda: db.select(f"{ARRAY}@{version}"))
        _rung(rows, "read", "Database.execute", nbytes,
              lambda: db.execute(f"SELECT * FROM {ARRAY}@{version};"))

        # ---- write side ------------------------------------------------
        _rung(rows, "write", "bitpack.pack_unsigned", nbytes,
              lambda: [bitpack.pack_unsigned(z, bits)
                       for z, bits, _ in codes])
        pairs = _chunk_pairs(truth[version - 1], target, scale)
        _rung(rows, "write", f"delta.{CODEC}.encode", nbytes,
              lambda: [codec.encode(t, b) for t, b in pairs])

        # Appends cannot repeat in place: each pass lands the next
        # version of the chain, so every pass encodes a fresh delta.
        # (The first manager.insert after the direct pipeline writes
        # misses the manager's hot-version slot; the median drops it.)
        schema = record.schema
        staged = []
        array = truth[CHAIN]
        for number in range(CHAIN + 1, CHAIN + 1 + 2 * REPEATS):
            base, array = array, workload.series.step(array, number)
            staged.append((number, base, array))
        staged.reverse()

        def write_version():
            number, base, array = staged.pop()
            manager.encoder.write_version(
                record, grid, number, ArrayData.from_single(schema, array),
                base_data=ArrayData.from_single(schema, base),
                base_version=number - 1,
                version_row=VersionRecord(record.array_id, number,
                                          number - 1, "insert",
                                          time.time()))

        _rung(rows, "write", "EncodePipeline.write_version", nbytes,
              write_version)
        _rung(rows, "write", "manager.insert", nbytes,
              lambda: manager.insert(ARRAY, staged.pop()[2]))
    finally:
        workload.close()
        shutil.rmtree(root, ignore_errors=True)

    # ---- raw backends --------------------------------------------------
    blob = target.tobytes()
    step = scale.chunk_bytes
    spans = [(offset, step) for offset in range(0, len(blob), step)]
    for backend in ("memory", "local", "object"):
        store_root = out_dir / "stores" / f"ladder-{backend}"
        shutil.rmtree(store_root, ignore_errors=True)
        db = Database(store_root, chunk_bytes=scale.chunk_bytes,
                      backend=backend)
        try:
            raw = db.manager.backend
            raw.write("ladder/blob", blob)
            raw.sync(["ladder/blob"])
            _rung(rows, "backend", f"{backend}.read_many", len(blob),
                  lambda: raw.read_many("ladder/blob", spans))
        finally:
            db.close()
            shutil.rmtree(store_root, ignore_errors=True)

    previous: dict[str, float] = {}
    for row in rows:
        if "ms" not in row:
            continue
        if row["side"] in previous and row["side"] != "backend":
            row["tax"] = row["ms"] / previous[row["side"]]
        previous[row["side"]] = row["ms"]
    return rows


def format_ladder(rows: list) -> list[str]:
    lines = []
    for row in rows:
        label = f"ladder.{row['side']}.{row['rung']}"
        if "unavailable" in row:
            lines.append(f"{label} unavailable: {row['unavailable']}")
            continue
        tax = f" tax=x{row['tax']:.2f}" if "tax" in row else ""
        lines.append(f"{label} {row['mb_per_s']:.1f} MB/s n={row['n']} "
                     f"({row['ms']:.3f} ms{tax})")
    return lines
