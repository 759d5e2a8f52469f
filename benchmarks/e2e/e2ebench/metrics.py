"""Metric definitions: how every reported number is derived from a run.

Names, units, directions and regression bounds of the gated metrics are
fixed in the repository's ``BENCHMARK.json``; this module computes the
values.  End-to-end metrics come from untraced runs only.  Per-layer
metrics come from a traced run: self times from the spans, counts from
the public ``IOStats`` / ``cache_info()`` increments over the measured
phase (those are collected in untraced runs too, which is how
``--check-repeat`` compares them bit for bit).
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path

from . import stats
from .runner import RunResult

MIB = float(1 << 20)


def load_spec(repo_root: Path) -> dict:
    """``BENCHMARK.json`` with its metric lists indexed by name."""
    spec = json.loads((repo_root / "BENCHMARK.json").read_text())
    spec["end_to_end"] = {m["name"]: m for m in spec["end_to_end"]}
    spec["per_layer"] = {m["name"]: m for m in spec["per_layer"]}
    return spec


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def end_to_end(result: RunResult) -> dict[str, tuple[float, int]]:
    """The gated metrics of one untraced run: name -> (value, samples)."""
    primary = result.latencies[result.primary]
    return {
        "ops_per_s": (_ratio(result.ops, result.op_seconds), result.ops),
        "op_p50_ms": (statistics.median(primary) * 1e3, len(primary)),
        "space_amp": (_ratio(result.stored_bytes, result.inserted_bytes),
                      1),
        "setup_s": (statistics.median(result.setup_samples),
                    len(result.setup_samples)),
    }


def diagnostics(result: RunResult) -> list[tuple]:
    """Everything else worth printing beside the gated metrics, as
    ``(name, value, unit, samples[, note])``.  Not gated: per-kind medians have
    few samples on the slow workloads and tails on a shared 2-core box
    do not repeat within a tenth."""
    lines = [
        ("fail_ratio", _ratio(result.failed, result.attempted), "ratio",
         result.attempted),
        ("logical_mb_per_s",
         _ratio((result.logical_read_bytes + result.logical_written_bytes)
                / MIB, result.op_seconds), "MB/s", result.ops),
        ("measured_s", result.op_seconds, "s", result.ops),
        ("datagen_s", result.datagen_s, "s", 1),
    ]
    for kind, samples in result.latencies.items():
        q1, median, q3 = stats.quartiles(samples)
        note = f"  (q1 {q1 * 1e3:.6g}, q3 {q3 * 1e3:.6g}"
        tail = stats.tail(samples)
        if tail is not None:
            note += f", p{tail[0]:g} {tail[1] * 1e3:.6g}"
        lines.append((f"{kind}_p50_ms", median * 1e3, "ms", len(samples),
                      note + ")"))
    if result.repair_seconds:
        lines.append(("repair_mb_per_s", repair_mb_per_s(result), "MB/s",
                      len(result.repair_seconds)))
    return lines


def repair_mb_per_s(result: RunResult) -> float:
    """Median over the repair cycles of bytes resynced per second."""
    if not result.repair_seconds:
        return 0.0
    return statistics.median(
        nbytes / MIB / seconds for nbytes, seconds
        in zip(result.repair_bytes, result.repair_seconds))


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def counter_metrics(result: RunResult) -> dict[str, float]:
    """The per-layer metrics that are pure functions of counters —
    these must repeat exactly between two runs of one seed."""
    # A counter a later change removes reads 0 instead of failing.
    c = Counter(result.counters)
    ops, reads, writes = result.ops, result.reads, result.writes
    hits, misses = c["cache_info_hits"], c["cache_info_misses"]
    return {
        "pipeline.chains_fused_per_read": _ratio(c["chains_fused"], reads),
        "pipeline.fused_levels_per_read": _ratio(c["fused_levels"], reads),
        "pipeline.scatter_levels_per_read":
            _ratio(c["scatter_levels"], reads),
        "encode_tasks_per_insert": _ratio(c["encode_tasks"], writes),
        "encodes_avoided_per_insert":
            _ratio(c["codec_encodes_avoided"], writes),
        "rebases_per_insert": _ratio(c["encode_rebases"], writes),
        "pipeline.cache_hit_ratio": _ratio(hits, hits + misses),
        "cache_misses_per_op": _ratio(misses, ops),
        "chunks_read_per_op": _ratio(c["chunks_read"], ops),
        "chunks_written_per_op": _ratio(c["chunks_written"], ops),
        "read_amp": _ratio(c["bytes_read"], result.logical_read_bytes),
        "write_amp": _ratio(c["bytes_written"],
                            result.logical_written_bytes),
        "file_opens_per_op": _ratio(c["file_opens"], ops),
        "ranged_gets_per_op": _ratio(c["ranged_gets"], ops),
        "over_fetch_ratio": _ratio(c["bytes_over_fetched"],
                                   c["bytes_read"]),
        "failovers": c["failovers"],
        "replica_writes": c["replica_writes"],
        "repaired_versions": c["repaired_versions"],
        "repair_bytes": c["repair_bytes"],
    }


def kernel_seconds(result: RunResult, calibration: dict) -> float:
    """Ladder-estimated codec time of the measured phase.

    Codec functions are imported by name inside the pipeline and cannot
    be wrapped from outside, so their time is estimated from counters
    and unit costs the ladder measured in this run on this data: a
    fused level costs one ``accumulate``, a stepwise level one
    ``decode_forward`` (payloads read that were neither a chain's root
    nor fused), each chain read one chunk copy for its root, and each
    encode task one ``encode``.  It is a floor, not a profile: what the
    pipeline spends around these calls is the overhead being measured.
    """
    c = Counter(result.counters)
    chain_reads = result.trace.calls("chunkstore", "read_chunks")
    stepwise = max(0, c["chunks_read"] - chain_reads - c["fused_levels"])
    return (c["fused_levels"] * calibration["accumulate_s"]
            + stepwise * calibration["decode_forward_s"]
            + chain_reads * calibration["copy_chunk_s"]
            + c["encode_tasks"] * calibration["encode_s"])


def per_layer(result: RunResult, calibration: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run."""
    ops = result.ops
    trace = result.trace
    backend_s = trace.self_seconds("backend")
    logical_mb = (result.logical_read_bytes
                  + result.logical_written_bytes) / MIB

    def per_op(layer: str, scale: float) -> float:
        return _ratio(trace.self_seconds(layer) * scale, ops)

    values = {
        "query.self_us_per_op": per_op("query", 1e6),
        "manager.self_us_per_op": per_op("manager", 1e6),
        "catalog.self_us_per_op": per_op("catalog", 1e6),
        "catalog.calls_per_op": _ratio(trace.calls("catalog"), ops),
        "pipeline.decode.self_ms_per_op": per_op("pipeline.decode", 1e3),
        "pipeline.encode.self_ms_per_op": per_op("pipeline.encode", 1e3),
        "pipeline.cache.self_us_per_op": per_op("pipeline.cache", 1e6),
        "chunkstore.self_ms_per_op": per_op("chunkstore", 1e3),
        "backend.self_ms_per_op": per_op("backend", 1e3),
        "syncs_per_insert": _ratio(trace.calls("backend", "sync"),
                                   result.writes),
        "cluster.self_ms_per_op": per_op("cluster", 1e3),
        "cluster.repair_mb_per_s": repair_mb_per_s(result),
        "overhead_factor": _ratio(
            result.op_seconds,
            backend_s + kernel_seconds(result, calibration)),
        "roofline_frac": _ratio(_ratio(logical_mb, result.op_seconds),
                                calibration["memcpy_mb_per_s"]),
    }
    values.update(counter_metrics(result))
    return values


def layer_shares(result: RunResult) -> dict[str, float]:
    """Each traced layer's self time as a share of all op time."""
    return {layer: _ratio(own, result.op_seconds)
            for layer, (own, _) in result.trace.layers.items()}
