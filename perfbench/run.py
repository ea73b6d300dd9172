#!/usr/bin/env python3
"""Builds and runs the end-to-end QueryService benchmark (see README.md).

One run, from the root of the repository:

    python3 perfbench/run.py --workload cold_search --seed 1 --seconds 40 --trace 0

The benchmark is compiled from source into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench) as a Release build on first use. The last line
of stdout is the run's JSON result; build output goes to stderr.

Smoke test of all three workloads (short runs; checks that every answer
verifies, that every metric named in BENCHMARK.json is emitted, and that the
exact counters repeat across two runs with the same seed):

    python3 perfbench/run.py --smoke
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["warm_small", "cold_search", "warm_large"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not (ROOT / "src" / "lcp" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
        return None
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
            return None
    step = subprocess.run(["cmake", "--build", str(out), "--parallel", "4"],
                          stdout=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
        return None
    return out / "perfbench"


def run_binary(binary, workload, seed, seconds, trace, capture=False):
    spans = build_dir() / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", str(spans)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        return None


def smoke(binary, seconds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    exact = {m["name"] for m in spec["per_layer"]
             if m["unit"].startswith("exact")}
    problems = []
    for workload in WORKLOADS:
        results = {}
        for key, seed, trace in (("e2e", 1, 0), ("trace", 1, 1),
                                 ("trace_again", 1, 1), ("seed2", 2, 1)):
            proc = run_binary(binary, workload, seed, seconds, trace, True)
            if proc is None or proc.returncode != 0:
                problems.append(f"{workload} {key}: run failed")
                continue
            print(proc.stdout, end="")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[key] = result
            got = set(result["metrics"])
            if got != wanted[trace]:
                problems.append(f"{workload} {key}: metrics differ from "
                                f"BENCHMARK.json: {sorted(got ^ wanted[trace])}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} {key}: incorrect or failed")
            if trace == 0 and "failed_fraction" not in proc.stdout:
                problems.append(f"{workload} {key}: no failed_fraction line")
        if "trace" in results and "trace_again" in results:
            for name in sorted(exact):
                a = results["trace"]["metrics"][name]["value"]
                b = results["trace_again"]["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload}: {name} not repeatable "
                                    f"({a} vs {b})")
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    print(f"smoke: {'FAIL' if problems else 'OK'} "
          f"({len(WORKLOADS)} workloads)", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short runs of every workload, with checks")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary, 1)
    proc = run_binary(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    if proc is None:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
