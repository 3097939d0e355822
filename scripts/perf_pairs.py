#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, with the gain rule.

Usage:

    scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --seconds S --seed-base B

Pair i runs `python3 perfbench/run.py --workload W --seed B+i --seconds S
--trace 0` in each checkout, from that checkout's root and with its own
perfbench; even pairs run the parent first, odd pairs the change. Each run's
last stdout line is its JSON result.

For every end-to-end metric in the change's BENCHMARK.json the script prints
each side's median and quartiles, the pairs each side won (ties count for
neither), and whether the gain rule holds for the change: at least ten
pairs ran, it wins at least nine tenths of them, and its median beats the
parent's by more than the parent's interquartile range.

Exit status: 0 when every run succeeded and reported `correct`, else 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(root, workload, seed, seconds):
    """One perfbench run in checkout `root`; returns its metrics or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{root}: seed {seed} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-400:]}", file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    if not res.get("correct", False):
        print(f"{root}: seed {seed} reported correct=false", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(values):
    """(p25, median, p75); all three equal the value for one sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def summarize(name, better, parent, change):
    """One table line for a metric over paired samples."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p25, pmed, p75 = quartiles(parent)
    c25, cmed, c75 = quartiles(change)
    gain = (len(parent) >= 10 and won >= 0.9 * len(parent)
            and sign * (pmed - cmed) > p75 - p25)
    par = f"{pmed:.5g} [{p25:.5g}, {p75:.5g}]"
    chg = f"{cmed:.5g} [{c25:.5g}, {c75:.5g}]"
    return (f"{name:20s} {par:>36s}  {chg:>36s}  {won:3d} {lost:4d}  "
            f"{'holds' if gain else 'no'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"parent": args.parent_dir, "change": args.change_dir}
    samples = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            pair[side] = run_side(sides[side], args.workload, seed,
                                  args.seconds)
        if pair["parent"] is None or pair["change"] is None:
            ok = False
            continue
        for side in sides:
            samples[side].append(pair[side])
        print(f"pair {i} seed {seed} ({order[0]} first): " + "  ".join(
            f"{s} wall_s {pair[s]['wall_s']:.4g}" for s in sides),
            file=sys.stderr)

    n = len(samples["parent"])
    print(f"{args.workload}: {n} pairs, {args.seconds:g} s per run, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    if n == 0:
        return 1
    print(f"{'metric':20s} {'parent median [p25, p75]':>36s}"
          f"  {'change median [p25, p75]':>36s}  won lost  gain")
    for m in metrics:
        name = m["name"]
        print(summarize(name, m["better"],
                        [s[name] for s in samples["parent"]],
                        [s[name] for s in samples["change"]]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
