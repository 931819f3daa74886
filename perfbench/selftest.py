#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py in smoke mode (each
workload shrunk to a seconds-long run), untraced and traced, and checks
that every declared metric is printed by name with its unit, that the
result object is well formed, and that every run passed its output checks.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, declared):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return f"{where}: exit {proc.returncode}"
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{where}: result keys {sorted(result)}"
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        return f"{where}: output checks failed: {lines[-1]}"
    printed = {tuple(line.split()[::2]) for line in lines[:-1]
               if len(line.split()) == 3}
    for name, unit in declared.items():
        metric = result["metrics"].get(name)
        if metric is None or metric["unit"] != unit:
            return f"{where}: metric {name} [{unit}] missing from the result"
        if (name, unit) not in printed:
            return f"{where}: metric {name} [{unit}] not printed"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            err = check(w["name"], trace, declared)
            print(f"{'FAIL' if err else 'ok  '} {w['name']} trace={trace}"
                  + (f": {err}" if err else ""))
            failures += err is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
