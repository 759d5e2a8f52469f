"""Tests of the end-to-end benchmark's own machinery.

Run with ``python -m pytest benchmarks/e2e/tests -q`` from the repo
root.  The whole file finishes in well under a minute: every workload
runs at ``--scale smoke`` (a 256x256 array) for a fraction of a second.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parents[1]
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2ebench import datagen, stats  # noqa: E402
from e2ebench.tracing import Tracer  # noqa: E402
from e2ebench.workloads import WORKLOADS, attach_database  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_cli(tmp_path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "smoke",
         "--seconds", "1", "--out", str(tmp_path), *flags],
        capture_output=True, text=True, timeout=120, cwd=ROOT)


# ----------------------------------------------------------------------
# The command, end to end
# ----------------------------------------------------------------------
def test_smoke_runs_all_five_workloads_on_an_unseen_seed(tmp_path):
    done = run_cli(tmp_path, "--all", "--seed", "5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# host=") and "native=" in lines[0]
    for name in NAMES:
        for metric in SPEC["end_to_end"]:
            prefix = f"[{name}] {metric['name']} "
            hits = [line for line in lines if line.startswith(prefix)]
            assert len(hits) == 1, prefix
            value, unit, samples = hits[0][len(prefix):].split()[:3]
            assert float(value) > 0
            assert unit == metric["unit"] and samples.startswith("n=")
        assert f"[{name}] fail_ratio 0 ratio" in done.stdout
        assert f"[{name}] why: " in done.stdout
    assert not list(tmp_path.glob("stores/*")), "stores must be removed"


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_driver_form_prints_the_contract_object_last(tmp_path, trace,
                                                     section):
    done = run_cli(tmp_path, "--workload", "cluster-rf2", "--seed", "9",
                   "--trace", trace)
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    if trace == "1":
        # Coordinator cost exists on this workload and is attributed.
        assert final["metrics"]["cluster.self_ms_per_op"]["value"] > 0
        assert final["metrics"]["replica_writes"]["value"] > 0
        trace_file = json.loads(
            (tmp_path / "trace-cluster-rf2.json").read_text())
        assert trace_file["spans"] and trace_file["untraced"] == []
        assert "cluster" in trace_file["layers"]


def test_single_store_workload_has_no_cluster_time(tmp_path):
    done = run_cli(tmp_path, "--workload", "scan-deep", "--trace", "1")
    assert done.returncode == 0, done.stderr
    layered = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert layered["cluster.self_ms_per_op"]["value"] == 0
    assert layered["pipeline.decode.self_ms_per_op"]["value"] > 0
    assert layered["pipeline.cache_hit_ratio"]["value"] == 0  # cache off


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert NAMES == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


# ----------------------------------------------------------------------
# Generator determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    scale = datagen.SCALES["smoke"]

    def generated(seed):
        workload = WORKLOADS[name](seed, scale, 1.0)
        workload.generate()
        return workload

    first, again, other = generated(11), generated(11), generated(12)
    assert first.ops == again.ops
    assert first.truth.keys() == again.truth.keys()
    assert all(np.array_equal(first.truth[v], again.truth[v])
               for v in first.truth)
    assert len(first.ops) == len(other.ops)  # same work, other inputs
    base = datagen.VersionSeries(11, scale).base()
    assert not np.array_equal(base,
                              datagen.VersionSeries(12, scale).base())


def test_version_steps_are_independent_of_build_order():
    series = datagen.VersionSeries(4, datagen.SCALES["smoke"])
    versions = series.build(5)
    rebuilt = series.step(versions[2], 3)
    assert np.array_equal(rebuilt, versions[3])
    changed = np.count_nonzero(versions[3] != versions[2])
    assert 0 < changed < versions[2].size // 20


def test_mixture_and_balanced_hold_their_shares_exactly():
    rng = datagen.stream(1, 2)
    kinds = datagen.mixture(rng, {"a": 0.4, "b": 0.1, "c": 0.5}, 50)
    assert {k: kinds.count(k) for k in "abc"} == {"a": 20, "b": 5,
                                                  "c": 25}
    draws = datagen.balanced(rng, range(8), 20)
    assert sorted(draws[:8]) == sorted(draws[8:16]) == list(range(8))


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Layers:
    """outer (10 s) -> inner twice (2 s + 3 s, adjacent) -> leaf (1 s
    nested in the first inner)."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 1
        self.inner(1)
        self.clock.now += 2
        self.inner(3)
        self.clock.now += 2

    def inner(self, seconds):
        self.clock.now += seconds
        if seconds == 1:
            self.leaf()

    def leaf(self):
        self.clock.now += 1


def test_self_time_subtracts_nested_and_adjacent_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    target = Layers(clock)
    tracer.wrap(target, "top", ("outer",))
    tracer.wrap(target, "mid", ("inner",))
    tracer.wrap(target, "low", ("leaf",))
    tracer.run("op", target.outer)

    assert clock.now == 10
    assert tracer.self_seconds("top") == 10 - (2 + 3)
    assert tracer.self_seconds("mid") == (2 - 1) + 3
    assert tracer.self_seconds("low") == 1
    assert tracer.self_seconds("op") == 0
    assert tracer.self_seconds("top", "mid", "low", "op") == 10
    assert tracer.calls("mid") == 2 and tracer.calls("mid", "inner") == 2
    parents = {span[4]: span[1] for span in tracer.spans}
    ids = {span[4]: span[0] for span in tracer.spans}
    assert parents["leaf"] in {s[0] for s in tracer.spans
                               if s[4] == "inner"}
    assert parents["outer"] == ids["op"]
    assert {span[2] for span in tracer.spans} == {1}  # one op number


def test_same_layer_children_do_not_change_the_layer_total():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    target = Layers(clock)
    tracer.wrap(target, "one", ("outer", "inner", "leaf"))
    target.outer()
    assert tracer.self_seconds("one") == 10


def test_inactive_tracer_passes_through():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    target = Layers(clock)
    tracer.wrap(target, "top", ("outer",))
    tracer.active = False
    target.outer()
    assert tracer.calls("top") == 0 and clock.now == 10


def test_missing_methods_and_objects_are_listed_not_fatal(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    target = Layers(clock)
    tracer.wrap(target, "top", ("outer", "renamed_away"))
    tracer.wrap(None, "gone", ("anything",))
    assert tracer.untraced == ["top.renamed_away", "gone.anything"]
    target.outer()
    assert tracer.calls("top", "outer") == 1

    # The same through a live store whose layout moved: a facade
    # without ``executor``/``processor`` still traces what is there.
    from repro import Database

    db = Database(tmp_path / "db", backend="memory")
    try:
        del db.executor, db.processor
        tracer = Tracer()
        attach_database(tracer, db)
        assert "query.run" in tracer.untraced
        assert "query.resolve" in tracer.untraced
        assert not any(name.startswith(("manager.", "catalog.",
                                        "backend."))
                       for name in tracer.untraced)
    finally:
        db.close()


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail(range(50)) is None
    assert stats.tail(range(100))[0] == 90.0
    assert stats.tail(range(1000))[0] == 99.0
    assert stats.tail(range(200_000))[0] == 99.99
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
