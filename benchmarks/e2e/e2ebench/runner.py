"""The closed loop: set up, measure, verify.

One process, one client thread; the next op is issued when the previous
one returns.  Only the op call itself sits inside the timed interval —
input preparation (:meth:`Workload.bind`) and the oracle
(:meth:`Workload.check`) run outside it.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import datagen
from .tracing import Tracer
from .workloads import WORKLOADS, WRITE_KINDS

#: Times the store is built per untraced run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: A run stops issuing ops once the measured phase has used this many
#: times ``--seconds`` of wall clock (a much slower host than the
#: reference box), so the driver's time limits hold anywhere.
DEADLINE_FACTOR = 3.0


@dataclass
class RunResult:
    workload: str
    seed: int
    scale: str
    seconds: float
    traced: bool
    primary: str
    ops_planned: int
    #: kind -> latencies in seconds, in issue order.
    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    truncated: bool = False
    setup_samples: list[float] = field(default_factory=list)
    datagen_s: float = 0.0
    #: IOStats / cache_info increments over the measured phase.
    counters: dict[str, int] = field(default_factory=dict)
    logical_read_bytes: int = 0
    logical_written_bytes: int = 0
    stored_bytes: int = 0
    inserted_bytes: int = 0
    repair_seconds: list[float] = field(default_factory=list)
    repair_bytes: list[int] = field(default_factory=list)
    #: The tracer of a traced run, frozen when its measured phase ended.
    trace: Tracer | None = None

    @property
    def op_seconds(self) -> float:
        return sum(sum(samples) for samples in self.latencies.values())

    @property
    def ops(self) -> int:
        return sum(len(samples) for samples in self.latencies.values())

    def ops_of(self, kinds) -> int:
        return sum(len(samples) for kind, samples in self.latencies.items()
                   if kind in kinds)

    @property
    def writes(self) -> int:
        return self.ops_of(WRITE_KINDS)

    @property
    def reads(self) -> int:
        return self.ops_of({"snapshot", "degraded_snapshot", "range",
                            "region"})


def run_workload(name: str, seed: int, scale_name: str, seconds: float,
                 traced: bool, out_dir: Path) -> RunResult:
    """One full run of one workload; stores live under ``out_dir`` and
    are removed before returning."""
    scale = datagen.SCALES[scale_name]
    workload = WORKLOADS[name](seed, scale, seconds)
    started = time.perf_counter()
    workload.generate()
    result = RunResult(workload=name, seed=seed, scale=scale_name,
                       seconds=seconds, traced=traced,
                       primary=workload.primary,
                       ops_planned=len(workload.ops),
                       datagen_s=time.perf_counter() - started)

    stores = out_dir / "stores"
    root = stores / f"{name}-{os.getpid()}"
    try:
        # A traced run reports no set-up time, so it builds once.
        for _ in range(1 if traced else SETUP_REPEATS):
            workload.close()
            shutil.rmtree(root, ignore_errors=True)
            started = time.perf_counter()
            workload.build(root)
            result.setup_samples.append(time.perf_counter() - started)

        if traced:
            result.trace = Tracer()
            workload.attach(result.trace)
        _measure(workload, result)
        if traced:
            result.trace.dump(out_dir / f"trace-{name}.json",
                              {"workload": name, "seed": seed,
                               "scale": scale_name, "seconds": seconds})
    finally:
        workload.close()
        shutil.rmtree(root, ignore_errors=True)
        if stores.exists() and not any(stores.iterdir()):
            stores.rmdir()
    return result


def _measure(workload, result: RunResult) -> None:
    clock = time.perf_counter
    tracer = result.trace
    gc.collect()
    before = workload.counters()
    deadline = clock() + DEADLINE_FACTOR * workload.seconds
    for op in workload.ops:
        if clock() > deadline:
            result.truncated = True
            break
        call = workload.bind(op)
        result.attempted += 1
        # Drop the previous result before the next op allocates its
        # own: a client that holds two results alternates between two
        # buffers, and op latency then alternates with them.
        error = outcome = None
        start = clock()
        try:
            outcome = tracer.run(op.kind, call) if tracer else call()
        except Exception:  # the op failed: count it, keep measuring
            error = traceback.format_exc()
        end = clock()
        result.latencies.setdefault(op.kind, []).append(end - start)
        if error is None:
            try:
                ok = bool(workload.check(op, outcome))
            except Exception:
                ok, error = False, traceback.format_exc()
            if not ok and error is None:
                error = f"wrong result for {op}"
        if error is not None:
            result.failed += 1
            if result.failed == 1:
                print(f"[{workload.name}] first failure:\n{error}",
                      file=sys.stderr)
            continue
        nbytes = workload.logical_bytes(op)
        if op.kind in WRITE_KINDS:
            result.logical_written_bytes += nbytes
        else:
            result.logical_read_bytes += nbytes
    if tracer is not None:
        tracer.active = False

    after = workload.counters()
    result.counters = {name: after[name] - before.get(name, 0)
                       for name in after}
    result.stored_bytes = workload.stored_bytes()
    result.inserted_bytes = workload.inserted_bytes()
    result.repair_seconds = list(getattr(workload, "repair_seconds", ()))
    result.repair_bytes = list(getattr(workload, "repair_bytes", ()))
    for ok in workload.read_back():
        result.attempted += 1
        result.failed += not ok
