#!/usr/bin/env python3
"""Compare two perfbench_sim builds in alternating pairs of runs.

    tools/perf_pairs.py PARENT_BIN CHANGE_BIN --workload bulk_seq \
        [--pairs 10] [--seconds 10] [--seed 2024]

PARENT_BIN and CHANGE_BIN are two perfbench_sim binaries, for instance the
ones `python3 perfbench/run.py` builds in two checkouts
(.bench_build/perfbench/perfbench_sim). Each pair runs both once with the
same workload, seed and length, one after the other; the side that goes
first alternates from pair to pair, so a drift in machine speed falls on
both sides alike. Runs are single-threaded and never overlap.

For every end-to-end metric of BENCHMARK.json the script prints each side's
median and quartiles, the change of the medians, on how many pairs the
change was better (a tie is not a win), and whether the medians differ by
more than the parent's quartile spread. It flags a metric whose change
median is worse than the parent's by more than the metric's bound.
BENCHMARK.json is only read. Exit status: 0, or 1 when a metric is flagged
or a run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(values, q):
    """Linear interpolation between the closest ranks of sorted `values`."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_once(binary, args, trace_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--trace-dir", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"perf_pairs: run failed (exit {proc.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    sides = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as trace_dir:
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                binary = args.parent_bin if side == "parent" else args.change_bin
                sides[side].append(run_once(binary, args, trace_dir))
            p, c = sides["parent"][-1], sides["change"][-1]
            print(f"pair {i + 1}/{args.pairs}: host_ios_per_s parent "
                  f"{p.get('host_ios_per_s', float('nan')):.1f} change "
                  f"{c.get('host_ios_per_s', float('nan')):.1f}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, --seconds {args.seconds:g}, "
          f"{args.pairs} pairs: median [q1-q3]")
    print(f"{'metric':<20} {'parent':>34} {'change':>34} {'delta':>9} {'wins':<7} gap>IQR")
    flagged = []
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [run[name] for run in sides["parent"]]
        change = [run[name] for run in sides["change"]]
        pm, cm = quantile(parent, 0.5), quantile(change, 0.5)
        p1, p3 = quantile(parent, 0.25), quantile(parent, 0.75)
        c1, c3 = quantile(change, 0.25), quantile(change, 0.75)
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if better == "lower" else c > p))
        if pm != 0:
            delta = (cm - pm) / abs(pm)
        else:  # from a zero parent any change is total
            delta = 0.0 if cm == pm else math.copysign(math.inf, cm - pm)
        gap = abs(cm - pm) > p3 - p1
        flag = (delta if better == "lower" else -delta) > bound
        if flag:
            flagged.append(name)
        parent_text = f"{pm:.6g} [{p1:.6g}-{p3:.6g}]"
        change_text = f"{cm:.6g} [{c1:.6g}-{c3:.6g}]"
        print(f"{name:<20} {parent_text:>34} {change_text:>34} {delta:>+9.2%} "
              f"{wins:>3}/{args.pairs:<3} {'yes' if gap else 'no'}"
              + (f"  WORSE than its {bound:g} bound" if flag else ""))
    if flagged:
        print("flagged: " + ", ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
