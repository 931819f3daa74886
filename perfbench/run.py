#!/usr/bin/env python3
"""Runs one workload of the MAFIC scenario benchmark and prints its metrics.

    python3 perfbench/run.py --workload flood_wide --seed 1 --seconds 30 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, then runs the timed binary (--trace 0: end-to-end
metrics) or the traced binary (--trace 1: per-layer metrics and spans).

Every metric is printed as "name value unit"; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
The metric names and units are checked against BENCHMARK.json at the
checkout root. On any build or run error the script exits non-zero without
printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run measures for --seconds and then finishes its last experiment; the
# largest workload's experiment takes well under a minute.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "scenario_spec.hpp")):
        fail("no library sources under src/ next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd, "configure")
    step([cmake, "--build", build_dir, "--target", target, "-j", "4"], "build")
    return os.path.join(build_dir, target)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group and waits for it. On timeout the
    whole group (compilers under ninja included) is killed and reaped.
    Returns (exit code, captured stdout or None), or None on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def step(cmd, what):
    # Build chatter goes to stderr: standard output carries the result.
    done = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
    if done is None:
        fail(f"{what} timed out")
    if done[0] != 0:
        fail(f"{what} failed (exit {done[0]})")


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink the workload to a seconds-long run")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    target = "mafic_perfbench_trace" if args.trace else "mafic_perfbench"
    binary = build(build_dir, target)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    done = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if done is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    code, stdout = done
    if code != 0:
        fail(f"{args.workload} exited with {code}", 3)

    lines = stdout.splitlines()
    if not lines:
        fail("the benchmark printed nothing", 3)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line is not a JSON result", 3)

    declared = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared is not None and result["metrics"] and got != declared:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
             f"declared {sorted(declared.items())}", 3)

    print(stdout, end="")


if __name__ == "__main__":
    main()
