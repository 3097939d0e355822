#!/usr/bin/env python3
"""Outside-in benchmark of the Casper simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call builds perfbench/ (and the simulator libraries it links from
src/) into .bench_build, or into $CARGO_TARGET_DIR when that is set.

A run repeats one workload pass after another, each in its own process, until
--seconds have passed (at least three passes). Every pass verifies its own
outputs. The last line of stdout is one JSON object:

    --trace 0  end-to-end metrics, each the median over the untraced passes;
    --trace 1  per-layer metrics: untraced and traced passes alternate (the
               traced ones carry the host-time ledger), then one counters
               pass reads the Casper plan-cache and ghost counters.

`correct` is false when any operation failed, or when two passes of the run
disagree on the virtual-time result or the final window bytes (traced and
untraced passes included), or when a traced pass's ledger covers less or
more than 95-105% of its measured wall time.

--self-test runs every workload briefly with --trace 1, plus a traced
xl_tiled pass on two engine shards checked against an untraced one-shard
pass, and exits non-zero unless all of them are correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

WORKLOADS = ["acc_alltoall", "dense_node", "kv_zipf", "xl_tiled"]
CASPER_WORKLOADS = {"acc_alltoall", "dense_node", "kv_zipf"}

# (name, unit) of the end-to-end metrics, from untraced passes.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ops_per_host_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("virt_result_us", "us"),
    ("ops_ok_frac", "frac"),
]

# (name, unit) of the per-layer metrics of a traced run. Those that do not
# apply to a workload (kv.* outside kv_zipf, core.* without Casper) read 0.
PER_LAYER = [
    ("sim.decisions", "count"),
    ("sim.rank_resumes", "count"),
    ("sim.event_dispatches", "count"),
    ("sim.event_ns", "ns"),
    ("sim.ns_per_decision", "ns"),
    ("sim.shard_busy_max_over_mean", "ratio"),
    ("mpi.rma_call_ns_per_op", "ns"),
    ("mpi.sync_call_ns", "ns"),
    ("mpi.sync_call_share", "frac"),
    ("mpi.sync_ns_per_resume", "ns"),
    ("mpi.coll_call_ns", "ns"),
    ("mpi.sw_ops", "count"),
    ("mpi.hw_ops", "count"),
    ("mpi.am_prompt", "count"),
    ("mpi.am_busy_arrival", "count"),
    ("mpi.p2p_msgs", "count"),
    ("mpi.atomicity_violations", "count"),
    ("core.rma_call_ns_per_op", "ns"),
    ("core.sync_call_ns", "ns"),
    ("core.ghost_ns", "ns"),
    ("core.ghost_share", "frac"),
    ("core.plan_cache_hit_ratio", "frac"),
    ("core.redirected_ops", "count"),
    ("core.win_call_ns", "ns"),
    ("core.setup_rss_mb", "MB"),
    ("core.ghost_service_max_over_mean", "ratio"),
    ("check.linear_ns", "ns"),
    ("check.record_ns", "ns"),
    ("check.ops_checked", "count"),
    ("kv.client_ns", "ns"),
    ("kv.lock_retries_per_op", "ratio"),
    ("kv.useful_ratio", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.ledger_coverage", "frac"),
]
# Taken from the counters pass rather than the traced passes.
FROM_COUNTERS = {
    "core.plan_cache_hit_ratio",
    "core.redirected_ops",
    "core.ghost_service_max_over_mean",
}
COVERAGE_TOLERANCE = 0.05
MIN_PASSES = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(d or os.path.join(ROOT, ".bench_build"))


def build():
    """Configure once, then (re)build the benchmark binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def run_pass(binary, workload, seed, mode, shards=None):
    cmd = [binary, workload, str(seed), mode]
    if shards is not None:
        cmd.append(str(shards))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(p25, p75) of the values; both equal the value for one sample."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_table(rows, passes):
    print(f"{'metric':36s} {'median':>14s} {'p25':>14s} {'p75':>14s}  n")
    for name, unit in rows:
        vals = [p[name] for p in passes if name in p]
        if not vals:
            continue
        lo, hi = spread(vals)
        mid = statistics.median(vals)
        print(f"{name:36s} {mid:14.6g} {lo:14.6g} {hi:14.6g}  "
              f"{len(vals)} {unit}")


def measure(binary, workload, seed, seconds, trace, min_passes):
    """Run passes for `seconds`; returns (plain, traced, counters) results."""
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        plain.append(run_pass(binary, workload, seed, "plain"))
        if trace:
            traced.append(run_pass(binary, workload, seed, "traced"))
        if len(plain) >= min_passes and time.monotonic() >= deadline:
            break
    counters = []
    if trace and workload in CASPER_WORKLOADS:
        counters.append(run_pass(binary, workload, seed, "counters"))
    return plain, traced, counters


def verdict(plain, traced, counters):
    """(correct, attempted, failed, problems) over every pass of the run."""
    passes = plain + traced + counters
    attempted = int(sum(p["ops"] for p in passes))
    failed = int(sum(p["failed"] for p in passes))
    problems = []
    if failed:
        problems.append(f"{failed} failed operations")
    for key in ("virt_result_us", "fingerprint"):
        seen = {p[key] for p in passes}
        if len(seen) != 1:
            problems.append(f"{key} differs between passes: {sorted(seen)}")
    for p in traced:
        cov = p["trace.ledger_coverage"]
        if abs(cov - 1.0) > COVERAGE_TOLERANCE:
            problems.append(f"ledger covers {cov:.3f} of measured wall")
    return not problems, max(attempted, 1), failed, problems


def end_to_end(plain, attempted, failed):
    m = {}
    for name, unit in END_TO_END:
        if name == "ops_ok_frac":
            value = 1.0 - failed / attempted
        else:
            value = statistics.median([p[name] for p in plain])
        m[name] = {"value": value, "unit": unit}
    return m


def per_layer(plain, traced, counters):
    m = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            value = (statistics.median([p["wall_s"] for p in traced]) /
                     statistics.median([p["wall_s"] for p in plain]) - 1.0)
        elif name in FROM_COUNTERS:
            value = counters[0][name] if counters else 0.0
        else:
            value = statistics.median([p.get(name, 0.0) for p in traced])
        m[name] = {"value": value, "unit": unit}
    return m


def run(binary, workload, seed, seconds, trace, min_passes=MIN_PASSES):
    plain, traced, counters = measure(binary, workload, seed, seconds, trace,
                                      min_passes)
    correct, attempted, failed, problems = verdict(plain, traced, counters)
    for p in problems:
        log(f"perfbench: {workload}: {p}")
    if trace:
        print_table(PER_LAYER, traced + counters)
        metrics = per_layer(plain, traced, counters)
    else:
        print_table(END_TO_END, plain)
        metrics = end_to_end(plain, attempted, failed)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    try:
        binary = build()
        if args.self_test:
            return self_test(binary, args.seed)
        res = run(binary, args.workload, args.seed, args.seconds,
                  args.trace == 1)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, ValueError, IndexError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(res))
    return 0


def self_test(binary, seed):
    """Traced == untraced on every workload; xl_tiled also on two shards."""
    ok = True
    for w in WORKLOADS:
        res = run(binary, w, seed, 0, True, min_passes=1)
        log(f"self-test {w}: {'ok' if res['correct'] else 'FAILED'}")
        ok = ok and res["correct"]
    one = run_pass(binary, "xl_tiled", seed, "plain")
    two = run_pass(binary, "xl_tiled", seed, "traced", shards=2)
    sharded_ok, _, _, problems = verdict([one], [two], [])
    for p in problems:
        log(f"perfbench: xl_tiled on two shards: {p}")
    log(f"self-test xl_tiled, traced on two shards: "
        f"{'ok' if sharded_ok else 'FAILED'}")
    return 0 if ok and sharded_ok else 1


if __name__ == "__main__":
    sys.exit(main())
