"""Counter gate over the end-to-end benchmark (``benchmarks/e2e``).

The benchmark's timings belong to the box that ran them; its counters
do not — for one seed they repeat exactly.  This file runs three
workloads at ``--scale smoke`` under the tracer and holds the
machine-independent facts the read path's two-job rule and the write
path's one-plan-per-chunk rule establish:

* ``mixed-rw`` (cache an eighth of the working set): deep snapshots do
  not fit the cache's free space, so they are read fused, and what the
  cache does keep survives the appends in between;
* ``region-hot`` (cache = working set): the warm-up's cold reads
  warm-fill whole chains, so the measured phase never misses;
* ``ingest-chain`` (appends onto a hot chain): every insert plans its
  16 chunks once each, proves the delta smaller without producing the
  materialized payload, never re-bases (the hot slot holds the
  parent), writes 16 payloads and raises one durability barrier.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def traced_metrics(tmp_path, workload: str,
                   *flags: str) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--scale", "smoke", "--trace", "1",
         "--out", str(tmp_path), *flags],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def test_mixed_rw_fuses_on_a_cached_store(tmp_path):
    metrics = traced_metrics(tmp_path, "mixed-rw")
    assert metrics["pipeline.chains_fused_per_read"] > 0
    assert metrics["pipeline.cache_hit_ratio"] >= 0.2


def test_region_hot_measured_phase_never_misses(tmp_path):
    # A fifth of the default op count: 4 s instead of 16, and a
    # shorter warm-up only makes a missing warm fill easier to see.
    metrics = traced_metrics(tmp_path, "region-hot", "--seconds", "2")
    assert metrics["cache_misses_per_op"] == 0
    assert metrics["pipeline.cache_hit_ratio"] == 1.0


def test_ingest_chain_plans_each_chunk_once(tmp_path):
    metrics = traced_metrics(tmp_path, "ingest-chain", "--seconds", "2")
    assert metrics["encode_tasks_per_insert"] == 16
    assert metrics["encodes_avoided_per_insert"] == 16
    assert metrics["rebases_per_insert"] == 0
    assert metrics["chunks_written_per_op"] == 16
    assert metrics["syncs_per_insert"] == 1
