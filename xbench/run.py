#!/usr/bin/env python3
"""Runs one xmodel benchmark workload for a fixed time and prints its metrics.

    python3 xbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                          [--out FILE]

Run it from the repository root. It builds the xbench package (CMake,
RelWithDebInfo) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then starts bench_xmodel in a fresh process again and again until S seconds
have passed. The last line it prints is one JSON object with the keys
correct, attempted, failed and metrics:

  --trace 0  the end_to_end metrics of BENCHMARK.json, each the median over
             the processes of the run;
  --trace 1  the per_layer metrics, from one traced process, after untraced
             processes for half of S that give the tracing overhead and the
             per-trace latency percentiles. A layer that is not on the
             workload's path reads 0.

--out FILE also writes the run's record (workload, seed, process count,
build stamp and result) in the form compare.py reads. Exit codes: 0 with a
result printed (correct or not); 2 without one, when the build or a
process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# One workload process is a few seconds; anything near this is a hang.
PROCESS_TIMEOUT_S = 120
MIN_PROCESSES = 3


class BenchError(Exception):
    pass


def build(build_dir, env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no xmodel sources under {ROOT / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j4",
                  "--target", "bench_xmodel"])
    for step in steps:
        # Build chatter goes to stderr: stdout is for results only.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return build_dir / "bench_xmodel"


def run_process(binary, args, env, trace_file=None):
    """Runs one bench_xmodel process and returns its JSON result."""
    argv = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}"]
    if trace_file:
        argv.append(f"--trace={trace_file}")
    # time.monotonic_ns() and the program's steady clock both read
    # CLOCK_MONOTONIC, so its setup_s counts from here.
    argv.append(f"--spawn-ns={time.monotonic_ns()}")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, timeout=PROCESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    for error in result["errors"]:
        print(f"{args.workload}: {error}", file=sys.stderr)
    return result


def run_for(binary, args, env, seconds):
    results = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(results) < MIN_PROCESSES:
        results.append(run_process(binary, args, env))
    return results


def end_to_end(declared, results):
    return {m["name"]: statistics.median(r[m["name"]] for r in results)
            for m in declared}


def per_layer(declared, untraced, traced):
    layers = dict(traced["layers"])
    wall = statistics.median(r["wall_s"] for r in untraced)
    layers["obs.tracing_overhead"] = traced["wall_s"] / wall - 1
    op_ms = [ms for r in untraced for ms in r.get("op_ms", [])]
    if len(op_ms) >= 2:
        quartiles = statistics.quantiles(op_ms, n=4)
        layers["trace.latency_p50"] = quartiles[1]
        layers["trace.latency_p75"] = quartiles[2]
    names = {m["name"] for m in declared}
    undeclared = sorted(set(layers) - names)
    if undeclared:
        raise BenchError("metrics missing from BENCHMARK.json: "
                         + ", ".join(undeclared))
    return {name: layers.get(name, 0.0) for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp = build_dir / "tmp"  # Spill files and compiler temporaries.
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))

    try:
        binary = build(build_dir, env)
        if args.trace:
            declared = bench["per_layer"]
            untraced = run_for(binary, args, env, args.seconds / 2)
            traced = run_process(binary, args, env,
                                 build_dir / f"trace-{args.workload}.json")
            results = untraced + [traced]
            values = per_layer(declared, untraced, traced)
        else:
            declared = bench["end_to_end"]
            results = run_for(binary, args, env, args.seconds)
            values = end_to_end(declared, results)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0 and all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "processes": len(results), "build": results[0]["build"],
                  "result": summary}
        Path(args.out).write_text(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
