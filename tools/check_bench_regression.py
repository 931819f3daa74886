#!/usr/bin/env python3
"""Bench-regression gate over the BENCH_flow_store.json trajectory.

The perf benches append one record per (bench, series, flows-tier) per run
to a single JSON array; the repo commits the trajectory so every CI run
can compare its fresh measurement against the previous one. This script
fails (exit 1) when the newest entry of any tier is more than --threshold
slower (ns/packet) than the entry before it.

Multi-shard rows additionally carry a "threads" tag: true for real
one-thread-per-shard measurements (CI runners with the cores), false for
serial projections (shards run back-to-back on one core, aggregate = the
contention-free sum). The two measure different things — a threaded row
prices shared cache/memory-bandwidth contention, a serial row does not —
so the gate keys tiers on the tag and only ever compares like with like.
Rows from before the tag (or untagged single-stream series) form their
own legacy group.

Rows may also carry a "calib_ns" machine-speed calibration (ns per step
of a fixed ALU + DRAM-latency reference workload, measured by the same
run that produced the row — see bench_json.hpp). The trajectory spans
heterogeneous dev boxes, and a raw ns/packet comparison across two boxes
measures the hardware, not the code; when both entries of a comparison
carry a calibration, the newer entry's ns/packet is scaled by
prev_calib/last_calib before the threshold check (the calibration
workload contains no library code, so a code regression cannot hide in
it). When only one side carries a calibration the pair straddles the
instrumentation boundary and the comparison is skipped as a loud series
rebase; two uncalibrated legacy entries compare raw, as before.

Replay-harness rows (bench_replay_path) additionally carry "pps" and
"cycles_per_packet". The gate still decides on ns/packet — pps is the
same measurement inverted, and TSC deltas are not comparable across
boxes — but when both entries of a comparison carry pps, the raw
(uncalibrated) pps shift is printed as information. Rows that carry only
an accuracy metric ("lr", e.g. the Fig. 7 series) set ns_per_packet = 0
and are exempt from the time gate.

Rows also carry a "run" sequence number (one id per bench invocation,
stamped on append). Besides the slowdown gate, the script diffs the tier
sets of each bench's last two runs: a tier the previous run produced and
the newest run silently dropped is a failure — a removed benchmark must
be removed loudly, not by quietly shrinking coverage. The missing-tier
comparison keys on (name, flows) only, NOT on the threads/serial mode
tag, because the same sweep legitimately flips tags across boxes with
different core counts. Rows predating the "run" field are exempt.

A tier is retired on purpose by appending a retirement row for it:
    {"bench": ..., "name": ..., "flows": ..., "retired": "<reason>"}
The row clears exactly that (bench, name, flows) tier from the
missing-tier check and prints the reason. Retirement rows carry no
measurement and no run id, so they stay out of the time gate and the
run grouping.

Usage:
    tools/check_bench_regression.py BENCH_flow_store.json [--threshold 0.10]
    tools/check_bench_regression.py --self-test

A tier seen for the first time passes trivially (there is nothing to
compare against); a shrinking ns/packet is reported as an improvement.
--self-test runs the checker's own unit battery over synthetic
trajectories (invoked from CI, so checker regressions are not silent).
"""

import argparse
import json
import sys
from collections import defaultdict


def mode_tag(record):
    """Execution-mode component of the tier key.

    "threads" / "serial" for tagged multi-shard rows, "" for
    single-stream series and for rows predating the tag (legacy rows
    group together and never against tagged measurements).
    """
    threads = record.get("threads")
    if threads is None:
        return ""
    return "threads" if threads else "serial"


def tier_of(record):
    """(bench, name, flows): the key the missing-tier check uses."""
    return (record.get("bench", "?"), record.get("name", "?"),
            record.get("flows", 0))


def evaluate(records, threshold=0.10):
    """The whole gate as a pure function over a record list.

    Returns (lines, failures, missing): the report lines to print, the
    list of over-threshold regressions, and the list of tiers the newest
    run dropped without a retirement row. Both lists fail the gate.
    """
    lines = []
    retired = {tier_of(r): r["retired"] for r in records if "retired" in r}
    records = [r for r in records if "retired" not in r]

    # (bench, name, flows, mode) -> [(ns_per_packet, calib_ns, pps), ...]
    tiers = defaultdict(list)
    for r in records:
        key = (*tier_of(r), mode_tag(r))
        tiers[key].append((float(r.get("ns_per_packet", 0.0)),
                           float(r.get("calib_ns", 0.0)),
                           float(r.get("pps", 0.0))))

    failures = []
    for (bench, name, flows, mode), series in sorted(tiers.items()):
        tier = f"{bench}/{name}@{flows:.0f}" + (f"[{mode}]" if mode else "")
        if len(series) < 2:
            lines.append(f"  new    {tier}: "
                         f"{series[-1][0]:.2f} ns/pkt (no previous entry)")
            continue
        (prev, prev_calib, prev_pps), (last, last_calib, last_pps) = \
            series[-2], series[-1]
        if prev <= 0.0:
            continue
        if (prev_calib > 0.0) != (last_calib > 0.0):
            # One side predates the machine calibration: the pair cannot
            # be compared across the hardware difference. Start a fresh
            # calibrated series here (loudly).
            lines.append(f"  rebase     {tier}: {prev:.2f} -> {last:.2f} "
                         f"ns/pkt (calibration boundary; comparison "
                         f"skipped)")
            continue
        scaled_last = last
        note = ""
        if prev_calib > 0.0 and last_calib > 0.0:
            scaled_last = last * prev_calib / last_calib
            note = (f" [raw {last:.2f}, box speed factor "
                    f"{last_calib / prev_calib:.2f}x]")
        if prev_pps > 0.0 and last_pps > 0.0:
            # Informational: the same shift in the unit the line-rate
            # claim speaks in (raw, not calibration-scaled).
            pps_delta = (last_pps - prev_pps) / prev_pps
            note += (f" [pps {prev_pps:.3e} -> {last_pps:.3e} "
                     f"({pps_delta:+.1%})]")
        delta = (scaled_last - prev) / prev
        verdict = "ok"
        if delta > threshold:
            verdict = "REGRESSION"
            failures.append((tier, prev, scaled_last, delta))
        elif delta < 0:
            verdict = "improved"
        lines.append(f"  {verdict:<10} {tier}: "
                     f"{prev:.2f} -> {scaled_last:.2f} ns/pkt "
                     f"({delta:+.1%}){note}")

    # Missing-tier check: per bench, the newest run must cover every
    # (name, flows) tier the run before it produced, unless a retirement
    # row names it. Mode-tag agnostic (see module docstring); rows
    # without a "run" id are exempt.
    runs_by_bench = defaultdict(lambda: defaultdict(set))
    for r in records:
        run = r.get("run")
        if run is None:
            continue
        runs_by_bench[r.get("bench", "?")][int(run)].add(
            (r.get("name", "?"), r.get("flows", 0)))

    missing = []
    for bench, runs in sorted(runs_by_bench.items()):
        if len(runs) < 2:
            continue
        order = sorted(runs)
        prev_run, last_run = order[-2], order[-1]
        for name, flows in sorted(runs[prev_run] - runs[last_run]):
            reason = retired.get((bench, name, flows))
            if reason is not None:
                lines.append(f"  retired    {bench}/{name}@{flows:.0f}: "
                             f"{reason}")
                continue
            missing.append(f"{bench}/{name}@{flows:.0f} "
                           f"(in run {prev_run}, absent from run {last_run})")
    if missing:
        lines.append(f"\nFAIL: {len(missing)} tier(s) from the previous "
                     f"run are missing from the newest run:")
        for m in missing:
            lines.append(f"  {m}")
        lines.append("append a retirement row for each tier removed on "
                     "purpose")

    return lines, failures, missing


def self_test():
    """Unit battery over synthetic trajectories; returns 0 on success."""

    def row(bench="b", name="t", flows=100, ns=10.0, run=0, calib=0.0,
            pps=0.0, threads=None):
        r = {"bench": bench, "name": name, "flows": flows,
             "ns_per_packet": ns, "run": run}
        if calib > 0:
            r["calib_ns"] = calib
        if pps > 0:
            r["pps"] = pps
        if threads is not None:
            r["threads"] = threads
        return r

    checks = []

    def check(label, cond):
        checks.append((label, cond))
        print(f"  {'ok' if cond else 'FAIL'}: {label}")

    # 1. A >threshold slowdown is a failure; a small one is not.
    _, failures, _ = evaluate([row(ns=10, run=0), row(ns=12, run=1)])
    check("detects a 20% regression", len(failures) == 1)
    _, failures, _ = evaluate([row(ns=10, run=0), row(ns=10.5, run=1)])
    check("tolerates a 5% shift", len(failures) == 0)

    # 2. An improvement is reported as such, never as a failure.
    lines, failures, _ = evaluate([row(ns=10, run=0), row(ns=8, run=1)])
    check("reports improvements",
          len(failures) == 0 and any("improved" in ln for ln in lines))

    # 3. Calibration scaling: 10 ns on a 1.0 box vs 18 ns on a 2.0 box is
    #    9 ns of code — an improvement, not a regression.
    _, failures, _ = evaluate([row(ns=10, run=0, calib=1.0),
                               row(ns=18, run=1, calib=2.0)])
    check("divides out box-speed shifts", len(failures) == 0)

    # 4. A calibration boundary rebases (skips) instead of comparing.
    lines, failures, _ = evaluate([row(ns=10, run=0),
                                   row(ns=30, run=1, calib=1.0)])
    check("rebases across the calibration boundary",
          len(failures) == 0 and any("rebase" in ln for ln in lines))

    # 5. A tier the newest run silently dropped is reported missing.
    two_then_one = [row(name="a", run=0), row(name="b", run=0),
                    row(name="a", run=1)]
    _, _, missing = evaluate(two_then_one)
    check("catches a silently dropped tier", len(missing) == 1)

    # 5b. A retirement row clears exactly its own (bench, name, flows)
    #     tier from the missing-tier check and prints its reason.
    def retire(name, flows=100, bench="b"):
        return {"bench": bench, "name": name, "flows": flows,
                "retired": f"{name} deleted"}

    three_then_one = [row(name="a", run=0), row(name="b", run=0),
                      row(name="c", run=0), row(name="a", run=1)]
    lines, failures, missing = evaluate(three_then_one + [retire("b")])
    check("a retirement row clears exactly its tier",
          len(missing) == 1 and "b/c@100" in missing[0] and not failures
          and any("retired" in ln and "b deleted" in ln for ln in lines))
    _, _, missing = evaluate(two_then_one + [retire("b", flows=200)])
    check("a retirement row for another flows clears nothing",
          len(missing) == 1 and "b/b@100" in missing[0])
    _, _, missing = evaluate(two_then_one + [retire("z")])
    check("an unretired dropped tier still fails", len(missing) == 1)

    # 6. Accuracy-only rows (ns 0, e.g. Fig. 7 lr series) skip the gate.
    _, failures, _ = evaluate([row(ns=0, run=0), row(ns=0, run=1)])
    check("skips lr-only rows (ns_per_packet = 0)", len(failures) == 0)

    # 7. pps deltas print as information and never flip the verdict.
    lines, failures, _ = evaluate([row(ns=10, run=0, pps=1e8),
                                   row(ns=10.2, run=1, pps=0.98e8)])
    check("prints pps deltas without gating on them",
          len(failures) == 0 and any("pps" in ln for ln in lines))

    # 8. A first-time tier passes trivially.
    lines, failures, _ = evaluate([row(run=0)])
    check("first appearance passes",
          len(failures) == 0 and any("new" in ln for ln in lines))

    # 9. Mode tags split the tier: a serial row never compares against a
    #    threaded row of the same (name, flows).
    _, failures, _ = evaluate([row(ns=10, run=0, threads=True),
                               row(ns=30, run=1, threads=False)])
    check("threaded and serial rows never compare", len(failures) == 0)

    bad = [label for label, cond in checks if not cond]
    if bad:
        print(f"\nFAIL: {len(bad)} self-test check(s) failed")
        return 1
    print(f"\nself-test: all {len(checks)} checks passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trajectory", nargs="?",
                        help="path to BENCH_flow_store.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="max tolerated fractional ns/packet regression (default 0.10)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the checker's own unit battery and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.trajectory is None:
        parser.error("trajectory path required (or --self-test)")

    try:
        with open(args.trajectory, "r", encoding="utf-8") as f:
            records = json.load(f)
    except FileNotFoundError:
        print(f"no trajectory at {args.trajectory}; nothing to gate")
        return 0
    except json.JSONDecodeError as e:
        print(f"FAIL: {args.trajectory} is not valid JSON: {e}")
        return 1

    lines, failures, missing = evaluate(records, args.threshold)
    for ln in lines:
        print(ln)

    if failures or missing:
        if failures:
            print(f"\nFAIL: {len(failures)} tier(s) regressed more than "
                  f"{args.threshold:.0%}:")
            for tier, prev, last, delta in failures:
                print(f"  {tier}: {prev:.2f} -> {last:.2f} ns/pkt "
                      f"({delta:+.1%})")
        return 1
    print("\nbench trajectory within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
