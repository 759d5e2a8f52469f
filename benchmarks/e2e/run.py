#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the versioned-array store.

Driver form (one workload, last stdout line is one JSON object)::

    python3 benchmarks/e2e/run.py --workload scan-deep --seed 7 \\
        --seconds 10 --trace 0

Human forms::

    python3 benchmarks/e2e/run.py --all --seed 7            # end to end
    python3 benchmarks/e2e/run.py --all --seed 7 --trace 1  # + per layer
    python3 benchmarks/e2e/run.py --ladder                  # layer ladder
    python3 benchmarks/e2e/run.py --check-repeat            # run twice

The human forms run every pass in a fresh process, as the driver does.

See ``benchmarks/e2e/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# The store must run as the library ships it: no REPRO_* knob except
# the kernel build cache may leak in from the caller's environment.
for _name in list(os.environ):
    if _name.startswith("REPRO_") and _name != "REPRO_NATIVE_CACHE":
        del os.environ[_name]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

try:
    import numpy
    import repro
    from repro.core import native
except ImportError as exc:
    sys.exit(f"benchmarks/e2e: cannot import the store from "
             f"{ROOT / 'src'}: {exc}")
if ROOT / "src" not in Path(repro.__file__).resolve().parents:
    sys.exit(f"benchmarks/e2e: 'repro' resolved to {repro.__file__}, "
             f"not to this checkout's src/")

from e2ebench import datagen, ladder, metrics  # noqa: E402
from e2ebench.runner import RunResult, run_workload  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20120401


def pin_allocator() -> bool:
    """Put glibc malloc in the state its dynamic thresholds reach in a
    long-running process: ``M_MMAP_THRESHOLD`` at its 32 MiB ceiling and
    ``M_TRIM_THRESHOLD`` at twice that.

    Left alone, the thresholds start at 128 KiB and grow with the
    largest block freed so far, so a short-lived process that moves
    16 MiB arrays flips — from run to run, and inside one run — between
    page-faulting every array afresh and reusing warm heap pages; that
    alone moved op latency by 15-100 % between otherwise identical
    runs.  Setting either threshold switches the adjustment off.
    Returns False where ``mallopt`` does not exist (not glibc).
    """
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(m_mmap_threshold, 32 << 20)
                and mallopt(m_trim_threshold, 64 << 20))


def _command_line(*argv: str) -> str:
    try:
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=20, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.splitlines()
    return lines[0].strip() if done.returncode == 0 and lines else "unknown"


def host_metadata() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": _command_line(os.environ.get("CC", "cc"), "--version"),
        "native": native.available(),
        "commit": _command_line("git", "rev-parse", "HEAD"),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _line(workload: str, name: str, value: float, unit: str, samples: int,
          note: str = "") -> str:
    return f"[{workload}] {name} {value:.6g} {unit} n={samples}{note}"


def report_header(result: RunResult) -> None:
    name = result.workload
    print(f"[{name}] why: {WORKLOADS[name].why}")
    print(f"[{name}] seed={result.seed} scale={result.scale} "
          f"traced={result.traced} "
          f"ops={result.ops}/{result.ops_planned} kinds="
          + ",".join(f"{k}:{len(v)}" for k, v in result.latencies.items())
          + (" TRUNCATED" if result.truncated else ""))


def report_end_to_end(result: RunResult, spec: dict) -> dict:
    """Print one untraced run; returns its gated metrics as the driver
    wants them."""
    name = result.workload
    gated = {}
    for metric, (value, samples) in metrics.end_to_end(result).items():
        entry = spec["end_to_end"][metric]
        note = (f"  ({entry['better']} is better, regression bound "
                f"{entry['bound']:.1%})")
        if metric == "op_p50_ms":
            note += f"  [{result.primary}]"
        print(_line(name, metric, value, entry["unit"], samples, note))
        gated[metric] = {"value": value, "unit": entry["unit"]}
    for line in metrics.diagnostics(result):
        print(_line(name, *line))
    return gated


def report_per_layer(result: RunResult, spec: dict) -> dict:
    """Print one traced run; returns its per-layer metrics."""
    name = result.workload
    calibration = ladder.calibrate(result.seed,
                                   datagen.SCALES[result.scale])
    values = metrics.per_layer(result, calibration)
    layered = {}
    for metric, entry in spec["per_layer"].items():
        value = float(values[metric])
        print(_line(name, metric, value, entry["unit"], result.ops))
        layered[metric] = {"value": value, "unit": entry["unit"]}
    shares = metrics.layer_shares(result)
    print(f"[{name}] self-time shares of op time: " + ", ".join(
        f"{layer}={share:.1%}" for layer, share
        in sorted(shares.items(), key=lambda item: -item[1])))
    for key, value in calibration.items():
        unit = "MB/s" if key.endswith("mb_per_s") else "s/chunk"
        print(_line(name, f"calibration.{key}", value, unit,
                    ladder.REPEATS))
    print(f"[{name}] untraced: "
          + (", ".join(sorted(result.trace.untraced)) or "none"))
    return layered


def save(result: RunResult, out_dir: Path, meta: dict,
         reported: dict) -> None:
    suffix = "-trace" if result.traced else ""
    path = out_dir / f"result-{result.workload}{suffix}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "meta": meta, "workload": result.workload, "seed": result.seed,
        "scale": result.scale, "seconds": result.seconds,
        "ops": {kind: len(v) for kind, v in result.latencies.items()},
        "attempted": result.attempted, "failed": result.failed,
        "measured_s": result.op_seconds,
        "stored_bytes": result.stored_bytes,
        "metrics": reported, "counters": result.counters,
    }, indent=1))


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def run_one(args, spec: dict, meta: dict) -> dict:
    """The driver form: one pass of one workload in this process;
    returns the JSON object of the driver contract."""
    out_dir = Path(args.out)
    result = run_workload(args.workload, args.seed, args.scale,
                          args.seconds, bool(args.trace), out_dir)
    report_header(result)
    reported = report_per_layer(result, spec) if args.trace \
        else report_end_to_end(result, spec)
    save(result, out_dir, meta, reported)
    return {"correct": result.failed == 0, "attempted": result.attempted,
            "failed": result.failed, "metrics": reported}


def run_child(args, name: str, trace: int, quiet: bool = False) -> dict:
    """One pass in a fresh process — what the driver does, and the only
    way passes do not inherit each other's heap — returning the result
    file it saved."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--scale", args.scale, "--trace", str(trace), "--out", args.out],
        stdout=subprocess.PIPE, text=True)
    if not quiet:
        # Everything but the header and the driver's JSON line.
        print("\n".join(done.stdout.splitlines()[1:-1]))
    suffix = "-trace" if trace else ""
    saved = json.loads(
        (Path(args.out) / f"result-{name}{suffix}.json").read_text())
    saved["correct"] = done.returncode == 0 and saved["failed"] == 0
    return saved


def run_all(args) -> bool:
    """Every workload untraced; with ``--trace 1`` each is then
    repeated traced, so end-to-end numbers never come from a traced
    run and the tracing overhead is a measurement."""
    correct = True
    for name in WORKLOADS:
        untraced = run_child(args, name, 0)
        correct &= untraced["correct"]
        if args.trace:
            traced = run_child(args, name, 1)
            correct &= traced["correct"]
            print(_line(name, "trace_overhead",
                        traced["measured_s"] / untraced["measured_s"],
                        "ratio", sum(traced["ops"].values())))
    return correct


def check_repeat(args, spec: dict) -> bool:
    """Two back-to-back untraced sets on one seed must agree: gated
    metrics within their own bounds, counters exactly."""
    agree = True
    sets = [{name: run_child(args, name, 0, quiet=True)
             for name in WORKLOADS} for _ in range(2)]
    for name in WORKLOADS:
        first, second = sets[0][name], sets[1][name]
        agree &= first["correct"] and second["correct"]
        for metric, entry in spec["end_to_end"].items():
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            change = (b - a) / a
            ok = abs(change) <= entry["bound"]
            agree &= ok
            print(f"[{name}] {metric} {a:.6g} -> {b:.6g} {entry['unit']} "
                  f"({change:+.2%}, bound {entry['bound']:.1%}) "
                  + ("ok" if ok else "DIFFERS"))
        drift = {key: (value, second["counters"][key])
                 for key, value in first["counters"].items()
                 if value != second["counters"][key]}
        exact = not drift \
            and first["stored_bytes"] == second["stored_bytes"]
        agree &= exact
        print(f"[{name}] counters and stored bytes "
              + ("identical" if exact else f"DIFFER: {drift}"))
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS),
                      help="one pass of one workload (the driver form)")
    mode.add_argument("--all", action="store_true",
                      help="all five workloads, each in its own process")
    mode.add_argument("--check-repeat", action="store_true",
                      help="the untraced set twice; must agree")
    mode.add_argument("--ladder", action="store_true",
                      help="the layer ladder and roofline")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase on the "
                             "reference box (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(datagen.SCALES),
                        default="full")
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)

    spec = metrics.load_spec(ROOT)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    meta = host_metadata()
    meta.update(malloc_pinned=pin_allocator(), seed=args.seed,
                scale=args.scale, seconds=args.seconds)
    print("# " + " ".join(f"{key}={value!r}" for key, value in meta.items()),
          flush=True)

    if args.workload:
        final = run_one(args, spec, meta)
        print(json.dumps(final))
        return 0 if final["correct"] else 1
    if args.all:
        return 0 if run_all(args) else 1
    if args.check_repeat:
        return 0 if check_repeat(args, spec) else 1
    for line in ladder.format_ladder(ladder.run_ladder(
            args.seed, datagen.SCALES[args.scale], Path(args.out))):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
