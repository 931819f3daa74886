#!/usr/bin/env python3
"""Interleaved parent/change pairs of the repo benchmark, summarised.

    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --workload carpet_detector --seed 44 --pairs 10
    python3 tools/perf_pairs.py ... --trace-check
    python3 tools/perf_pairs.py --self-test

Each side is a checkout (a `git worktree` or a clone of the parent, and the
tree under review). Every pair runs both sides' `perfbench/run.py --trace 0`
once, back to back, for BENCHMARK.json's run_seconds unless --seconds says
otherwise, and alternates which side goes first so that a drift of the
machine over the session hits both sides alike. Each side builds
into its own CARGO_TARGET_DIR (`<checkout>/.bench_build`, or
`--build-root`/parent and /change), so the two never share a binary.

For every end-to-end metric it prints each side's median [q1, q3], the
median's relative change, how many pairs the change won and tied (the
direction comes from BENCHMARK.json), and whether the median gap exceeds
the parent's quartile spread. It also reports whether every run printed
the same fingerprint. `--trace-check` adds one `--trace 1` run per side
and diffs every count metric; the other per-layer metrics print side by
side. The exit code is 1 when a run failed, a fingerprint differed or a
traced count moved, else 0.
"""

import argparse
import json
import os
import re
import subprocess
import sys

FINGERPRINT_RE = re.compile(r"(?:fingerprint|traced) ([0-9a-f]{16})")


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics
    (the 'inclusive' definition: q at position p * (n - 1))."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quartiles of nothing")

    def at(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def pair_wins(parent, change, better):
    """(change better, ties) over aligned pairs; `better` is 'lower' or
    'higher'."""
    wins = ties = 0
    for p, c in zip(parent, change, strict=True):
        if c == p:
            ties += 1
        elif (c < p) == (better == "lower"):
            wins += 1
    return wins, ties


def summarize(parent, change, better):
    """Summary of one metric over aligned pairs. `clear` holds when the
    change won at least 9 in 10 pairs and its median beats the parent's by
    more than the parent's quartile spread."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins, ties = pair_wins(parent, change, better)
    gap = (pmed - cmed) if better == "lower" else (cmed - pmed)
    n = len(parent)
    return {
        "parent": (pmed, pq1, pq3),
        "change": (cmed, cq1, cq3),
        "rel": (cmed - pmed) / pmed if pmed != 0 else 0.0,
        "wins": wins,
        "ties": ties,
        "pairs": n,
        "gap": gap,
        "parent_iqr": pq3 - pq1,
        "clear": wins * 10 >= 9 * n and gap > pq3 - pq1,
    }


def count_diffs(parent_metrics, change_metrics):
    """Names of the count metrics whose values differ (or that only one
    side printed). Metrics are {name: {"value", "unit"}} as run.py prints
    them."""
    names = sorted(set(parent_metrics) | set(change_metrics))
    diffs = []
    for name in names:
        p = parent_metrics.get(name)
        c = change_metrics.get(name)
        if p is None or c is None:
            diffs.append(name)
        elif "count" in (p["unit"], c["unit"]) and p["value"] != c["value"]:
            diffs.append(name)
    return diffs


def directions(spec):
    """metric name -> 'lower' / 'higher' from a parsed BENCHMARK.json."""
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"


class Side:
    def __init__(self, name, checkout, build_root):
        self.name = name
        self.checkout = os.path.abspath(checkout)
        root = (os.path.join(os.path.abspath(build_root), name)
                if build_root else os.path.join(self.checkout, ".bench_build"))
        self.env = dict(os.environ, CARGO_TARGET_DIR=root)
        self.runs = []  # one result dict per timed run, None on failure
        self.fingerprints = set()

    def run(self, workload, seed, seconds, trace=0, smoke=False):
        """Runs run.py once; returns its result dict, or None on failure."""
        cmd = [sys.executable, os.path.join(self.checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
        if smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, cwd=self.checkout, env=self.env,
                              capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            tail = "\n".join(done.stderr.splitlines()[-5:])
            print(f"{self.name}: run failed (exit {done.returncode})\n{tail}",
                  file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        if not smoke:
            self.fingerprints.update(FINGERPRINT_RE.findall(done.stdout))
        if not result["correct"] or result["failed"] != 0:
            print(f"{self.name}: {result['failed']} of {result['attempted']} "
                  "experiments failed their checks", file=sys.stderr)
            return None
        return result


def self_test():
    checks = []

    def check(label, cond):
        checks.append(cond)
        print(f"  {'ok' if cond else 'FAIL'}: {label}")

    q1, med, q3 = quartiles([4, 1, 3, 2])
    check("quartiles interpolate (1..4 -> 1.75, 2.5, 3.25)",
          (q1, med, q3) == (1.75, 2.5, 3.25))
    check("one value is its own quartiles", quartiles([7.0]) == (7.0, 7.0, 7.0))
    check("odd count takes the middle value", quartiles([5, 1, 9])[1] == 5)
    check("lower-is-better wins and ties",
          pair_wins([2, 2, 2, 2], [1, 2, 3, 1], "lower") == (2, 1))
    check("higher-is-better wins and ties",
          pair_wins([2, 2, 2, 2], [1, 2, 3, 1], "higher") == (1, 1))
    parent = [2.80, 2.76, 2.88, 2.79, 2.90, 2.75, 2.81, 2.85, 2.77, 2.83]
    change = [2.12, 2.07, 2.19, 2.10, 2.15, 2.06, 2.13, 2.20, 2.11, 2.14]
    s = summarize(parent, change, "lower")
    check("a 10/10 gap beyond the parent spread is clear",
          s["wins"] == 10 and s["clear"] and s["rel"] < -0.2)
    s = summarize(parent, [p - 0.01 for p in parent], "lower")
    check("10/10 wins inside the parent spread is not clear",
          s["wins"] == 10 and not s["clear"])
    s = summarize(parent, change[:8] + [3.0, 3.0], "lower")
    check("8/10 wins is not clear", s["wins"] == 8 and not s["clear"])
    s = summarize([0.9] * 4, [0.95] * 4, "higher")
    check("higher-is-better gap counts up", s["gap"] > 0 and s["wins"] == 4)

    def m(value, unit="count"):
        return {"value": value, "unit": unit}

    check("equal counts and moved timings give no diff",
          count_diffs({"a": m(3), "t": m(1.0, "ns")},
                      {"a": m(3), "t": m(2.0, "ns")}) == [])
    check("a moved count is a diff",
          count_diffs({"a": m(3), "b": m(4)}, {"a": m(3), "b": m(5)}) == ["b"])
    check("a count only one side prints is a diff",
          count_diffs({"a": m(3)}, {"a": m(3), "z": m(1)}) == ["z"])
    check("the fingerprint pattern reads a traced line",
          FINGERPRINT_RE.findall("seed 44: fingerprint af77b52f28227ffe "
                                 "(traced af77b52f28227ffe)")
          == ["af77b52f28227ffe"] * 2)

    bad = checks.count(False)
    if bad:
        print(f"\nFAIL: {bad} self-test check(s) failed")
        return 1
    print(f"\nself-test: all {len(checks)} checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="run length of each timed run (default: "
                         "BENCHMARK.json's run_seconds)")
    ap.add_argument("--build-root",
                    help="build each side under DIR/parent and DIR/change "
                         "instead of its checkout's .bench_build")
    ap.add_argument("--trace-check", action="store_true",
                    help="add one --trace 1 run per side and diff its counts")
    ap.add_argument("--json", help="also write every run and summary here")
    ap.add_argument("--self-test", action="store_true",
                    help="check the summary math and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.parent, args.change, args.workload, args.seed):
        ap.error("--parent, --change, --workload and --seed are required")
    sides = [Side("parent", args.parent, args.build_root),
             Side("change", args.change, args.build_root)]
    with open(os.path.join(sides[1].checkout, "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    better = directions(spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")
    # A smoke run per side builds its binary before anything is timed.
    for side in sides:
        if side.run(args.workload, args.seed, 1.0, smoke=True) is None:
            return 1
    for i in range(args.pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            side.runs.append(side.run(args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs}: {order[0].name} first", flush=True)

    ok_pairs = [i for i in range(args.pairs)
                if all(s.runs[i] is not None for s in sides)]
    failed = sum(r is None for s in sides for r in s.runs)
    print(f"\n{args.workload} seed {args.seed}: {len(ok_pairs)} pairs of "
          f"{args.seconds:g} s runs, {failed} failed runs")
    summaries = {}
    if ok_pairs:
        names = list(sides[0].runs[ok_pairs[0]]["metrics"])
        print(f"{'metric':<12} {'parent median [q1, q3]':<28} "
              f"{'change median [q1, q3]':<28} {'change':>8}  verdict")
        for name in names:
            vals = [[s.runs[i]["metrics"][name]["value"] for i in ok_pairs]
                    for s in sides]
            sm = summarize(vals[0], vals[1], better.get(name, "lower"))
            summaries[name] = sm
            cells = ["{} [{}, {}]".format(*(fmt(x) for x in sm[k]))
                     for k in ("parent", "change")]
            print(f"{name:<12} {cells[0]:<28} {cells[1]:<28} "
                  f"{sm['rel'] * 100:+7.1f}%  change better {sm['wins']}/"
                  f"{sm['pairs']}, {sm['ties']} ties, gap {fmt(sm['gap'])} "
                  f"vs parent IQR {fmt(sm['parent_iqr'])}"
                  f"{' (clear)' if sm['clear'] else ''}")
    prints = [sorted(s.fingerprints) for s in sides]
    same_print = len(prints[0]) == 1 and prints[0] == prints[1]
    print(f"fingerprints: {'match' if same_print else 'DIFFER'} "
          f"(parent {', '.join(prints[0])}; change {', '.join(prints[1])})")

    moved = []
    traced = {}
    if args.trace_check:
        for side in sides:
            result = side.run(args.workload, args.seed, args.seconds, trace=1)
            if result is None:
                return 1
            traced[side.name] = result["metrics"]
        moved = count_diffs(traced["parent"], traced["change"])
        print(f"\ntraced run: {len(moved)} count metrics differ"
              + (f": {', '.join(moved)}" if moved else ""))
        for name, p in traced["parent"].items():
            c = traced["change"].get(name)
            if p["unit"] != "count" and c is not None:
                print(f"  {name:<28} {fmt(p['value']):>12} -> "
                      f"{fmt(c['value']):>12} {p['unit']}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds,
                       "runs": {s.name: s.runs for s in sides},
                       "fingerprints": {s.name: sorted(s.fingerprints)
                                        for s in sides},
                       "summary": summaries, "traced": traced}, f, indent=1)
    return 1 if failed or not same_print or moved else 0


if __name__ == "__main__":
    sys.exit(main())
