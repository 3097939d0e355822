#!/usr/bin/env python3
"""Compare freshly-run BENCH_*.json files against committed baselines.

The ratchet contract (see DESIGN.md "Hot-path memory model"):
  - Virtual-time results -- the "rows" of the figure benches and every
    "metrics" counter/histogram -- are deterministic facts of the simulation
    and must match the baseline EXACTLY. Any drift means behavior changed,
    which belongs in a deliberate re-baseline, never in noise.
  - Host-side numbers -- engine switches/events per second and the figure
    benches' "host" blocks -- are wall-clock measurements and are compared
    with a tolerance band (--tol, fractional). Rates must not drop below
    baseline*(1-tol); latencies must not rise above baseline*(1+tol).
  - Best-of-N: every bench is run N times (the run*/ directories); the best
    host number across runs is the one compared, so a single noisy run never
    fails the gate.

--update installs the best run's file as the new committed baseline instead
of comparing (the intentional re-baseline path).
"""

import argparse
import json
import os
import shutil
import sys

BENCHES = ["engine", "fig4a", "fig6a", "kv", "mwcas", "adaptive", "fig5xl"]


def load(path):
    with open(path) as f:
        return json.load(f)


def fail(msg):
    print(f"bench_compare: FAIL: {msg}")
    return 1


def engine_host_score(doc):
    return sum(r["events_per_sec"] for r in doc["results"])


def fig_host_ms(doc):
    return doc.get("host", {}).get("casper_sweep_ms")


def fig5xl_host_ms(doc):
    return sum(r["host_ms"] for r in doc["rows"])


def best_run(name, docs):
    """Index of the run with the best host-side result."""
    if name == "engine":
        return max(range(len(docs)), key=lambda i: engine_host_score(docs[i]))
    if name == "fig5xl":
        return min(range(len(docs)), key=lambda i: fig5xl_host_ms(docs[i]))
    with_host = [i for i in range(len(docs)) if fig_host_ms(docs[i]) is not None]
    if not with_host:
        return 0
    return min(with_host, key=lambda i: fig_host_ms(docs[i]))


def compare_exact(name, what, new, old):
    if new != old:
        return fail(
            f"{name}: {what} diverged from baseline (virtual-time results "
            f"must be byte-stable; re-baseline deliberately with "
            f"'scripts/bench.sh --update' if this change is intended)"
        )
    return 0


def compare_engine(docs, base, tol):
    rc = 0
    # Virtual-time facts: the instrumented mini-run's counters.
    best = docs[best_run("engine", docs)]
    rc |= compare_exact("engine", "metrics", best.get("metrics"),
                        base.get("metrics"))
    by_rank_base = {r["nranks"]: r for r in base["results"]}
    for n, br in sorted(by_rank_base.items()):
        for key in ("switches_per_sec", "events_per_sec"):
            cand = max(
                r[key]
                for doc in docs
                for r in doc["results"]
                if r["nranks"] == n
            )
            floor = br[key] * (1.0 - tol)
            status = "ok" if cand >= floor else "REGRESSION"
            print(
                f"  engine nranks={n:<5} {key:<17} "
                f"base={br[key]:>12.0f} best={cand:>12.0f} "
                f"({cand / br[key] * 100.0 - 100.0:+6.1f}%)  {status}"
            )
            if cand < floor:
                rc |= fail(
                    f"engine: {key} at nranks={n} regressed beyond "
                    f"{tol:.0%}: {cand:.0f} < {floor:.0f}"
                )
    rc |= compare_shard_sweep(docs, base, tol)
    return rc


def compare_shard_sweep(docs, base, tol):
    """Gate the sharded-scheduler sweep on SAME-RUN speedup, not absolute
    rates: events_per_sec(shards>=4) / events_per_sec(shards=1) within one
    run must reach 2.5x (with the --tol band), best-of-N across runs.

    Absolute event rates on shared hosts drift by up to ~2x between clock
    epochs (frequency scaling / noisy neighbors), so an absolute floor on
    the sweep rows would flake in either direction. The within-run ratio
    cancels the host clock and is the quantity the sharded scheduler
    actually promises. The committed baseline rows are informational."""
    if not base.get("shard_sweep"):
        print("  engine: baseline has no shard_sweep; sweep gate skipped")
        return 0
    ratios = []
    for doc in docs:
        rows = {r["shards"]: r["events_per_sec"]
                for r in doc.get("shard_sweep", [])}
        wide = max((v for s, v in rows.items() if s >= 4), default=None)
        if rows.get(1) and wide is not None:
            ratios.append(wide / rows[1])
    if not ratios:
        return fail("engine: no run produced shard_sweep rows for "
                    "shards=1 and shards>=4")
    best = max(ratios)
    need = 2.5 * (1.0 - tol)
    status = "ok" if best >= need else "REGRESSION"
    print(
        f"  engine sharded speedup (same-run, shards>=4 vs 1): best of "
        f"{[f'{r:.2f}' for r in ratios]} = {best:.2f}x "
        f"(gate 2.5x, floor {need:.2f}x)  {status}"
    )
    if best < need:
        return fail(
            f"engine: sharded speedup gate: best same-run ratio {best:.2f}x "
            f"< {need:.2f}x (2.5x gate with {tol:.0%} band)"
        )
    return 0


def check_kv_ordering(doc):
    """The KV figure's headline claim: at the skewed mix (s=0.99), casper
    with one ghost must clear at least original's throughput at equal
    cores, and every row's history must have linearized. Enforced on the
    fresh run (not just the baseline) so a regression that happens to
    produce internally-consistent rows still fails."""
    cols = doc["columns"]
    i_s, i_mode = cols.index("zipf_s"), cols.index("mode")
    i_kops, i_lin = cols.index("kops/s"), cols.index("lin")
    rc = 0
    by_mode = {}
    for row in doc["rows"]:
        if row[i_lin] != "clean":
            rc |= fail(f"kv: row {row[i_mode]}@s={row[i_s]} did not "
                       f"linearize ({row[i_lin]})")
        if row[i_s] > 0.9:
            by_mode[row[i_mode]] = row[i_kops]
    orig, casper = by_mode.get("original"), by_mode.get("casper(g1)")
    if orig is None or casper is None:
        return rc | fail("kv: s=0.99 rows missing original/casper(g1)")
    status = "ok" if casper >= orig else "REGRESSION"
    print(f"  kv s=0.99 throughput casper(g1)={casper:.1f} kops/s vs "
          f"original={orig:.1f} kops/s ({casper / orig:.2f}x)  {status}")
    if casper < orig:
        rc |= fail(
            f"kv: casper(g1) {casper:.1f} < original {orig:.1f} kops/s at "
            f"s=0.99 — the asynchronous-progress ordering the figure claims"
        )
    return rc


def check_mwcas_ordering(doc):
    """The MWCAS figure's headline claim: on the hot row (every 4-word CAS
    lands on one victim rank) casper with one ghost must clear at least
    original's MWCAS throughput at equal cores, and every row's multi-word
    history must have linearized. Enforced on the fresh run, as with kv."""
    cols = doc["columns"]
    i_cont, i_mode = cols.index("contention"), cols.index("mode")
    i_kops, i_lin = cols.index("kops/s"), cols.index("lin")
    rc = 0
    by_mode = {}
    for row in doc["rows"]:
        if row[i_lin] != "clean":
            rc |= fail(f"mwcas: row {row[i_mode]}@{row[i_cont]} did not "
                       f"linearize ({row[i_lin]})")
        if row[i_cont] == "hot":
            by_mode[row[i_mode]] = row[i_kops]
    orig, casper = by_mode.get("original"), by_mode.get("casper(g1)")
    if orig is None or casper is None:
        return rc | fail("mwcas: hot rows missing original/casper(g1)")
    status = "ok" if casper >= orig else "REGRESSION"
    print(f"  mwcas hot throughput casper(g1)={casper:.1f} kops/s vs "
          f"original={orig:.1f} kops/s ({casper / orig:.2f}x)  {status}")
    if casper < orig:
        rc |= fail(
            f"mwcas: casper(g1) {casper:.1f} < original {orig:.1f} kops/s "
            f"on the hot row — the asynchronous-progress ordering the "
            f"figure claims"
        )
    return rc


def check_adaptive_ordering(doc, balanced_tol=0.05):
    """The adaptive controller's headline claim, enforced on the fresh run:
    on skewed rows the online re-binding/policy-switching must beat the
    static split by >= 1.2x simulated time, and on balanced rows the
    controller must cost at most `balanced_tol` (it is supposed to sit
    still when there is nothing to fix). The ratio column is a virtual-time
    fact, so these floors are noise-free."""
    cols = doc["columns"]
    i_row, i_kind = cols.index("row"), cols.index("kind")
    i_ratio = cols.index("ratio")
    rc = 0
    for row in doc["rows"]:
        need = 1.2 if row[i_kind] == "skewed" else 1.0 - balanced_tol
        ok = row[i_ratio] >= need
        print(
            f"  adaptive {row[i_row]:<13} ({row[i_kind]:<8}) "
            f"static/adaptive = {row[i_ratio]:.2f}x "
            f"(floor {need:.2f}x)  {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            rc |= fail(
                f"adaptive: row {row[i_row]} ratio {row[i_ratio]:.2f}x "
                f"below the {need:.2f}x floor — the controller stopped "
                f"paying for itself"
            )
    return rc


def compare_fig5xl(docs, base, tol):
    """The 10k-rank scale run: the virtual iteration time of every
    (nranks, shards) row is a simulation fact and must match the baseline
    exactly in every run; each row's host_ms gets the tolerance band,
    best-of-N per row."""
    rc = 0
    config = ("tile", "degree", "burst", "iters")
    for doc in docs:
        rc |= compare_exact("fig5xl", "config",
                            [doc.get(k) for k in config],
                            [base.get(k) for k in config])
        rc |= compare_exact(
            "fig5xl", "virt_iter_us rows",
            [(r["nranks"], r["shards"], r["virt_iter_us"]) for r in doc["rows"]],
            [(r["nranks"], r["shards"], r["virt_iter_us"])
             for r in base["rows"]])
    for br in base["rows"]:
        key = (br["nranks"], br["shards"])
        cand = min(r["host_ms"] for doc in docs for r in doc["rows"]
                   if (r["nranks"], r["shards"]) == key)
        ceil = br["host_ms"] * (1.0 + tol)
        status = "ok" if cand <= ceil else "REGRESSION"
        print(
            f"  fig5xl nranks={key[0]} shards={key[1]} host_ms "
            f"base={br['host_ms']:>9.1f} best={cand:>9.1f} "
            f"({cand / br['host_ms'] * 100.0 - 100.0:+6.1f}%)  {status}"
        )
        if cand > ceil:
            rc |= fail(
                f"fig5xl: host_ms at nranks={key[0]} shards={key[1]} "
                f"regressed beyond {tol:.0%}: {cand:.1f}ms > {ceil:.1f}ms"
            )
    return rc


def compare_fig(name, docs, base, tol):
    rc = 0
    best = docs[best_run(name, docs)]
    rc |= compare_exact(name, "columns", best.get("columns"),
                        base.get("columns"))
    rc |= compare_exact(name, "rows", best.get("rows"), base.get("rows"))
    rc |= compare_exact(name, "metrics", best.get("metrics"),
                        base.get("metrics"))
    base_ms = fig_host_ms(base)
    cand_ms = min(
        (fig_host_ms(d) for d in docs if fig_host_ms(d) is not None),
        default=None,
    )
    if base_ms is None:
        print(f"  {name}: baseline has no host block; host gate skipped")
        return rc
    if cand_ms is None:
        return rc | fail(f"{name}: runs produced no host block")
    ceil = base_ms * (1.0 + tol)
    status = "ok" if cand_ms <= ceil else "REGRESSION"
    print(
        f"  {name} casper_sweep_ms base={base_ms:>9.3f} "
        f"best={cand_ms:>9.3f} ({cand_ms / base_ms * 100.0 - 100.0:+6.1f}%)"
        f"  {status}"
    )
    if cand_ms > ceil:
        rc |= fail(
            f"{name}: host sweep regressed beyond {tol:.0%}: "
            f"{cand_ms:.3f}ms > {ceil:.3f}ms"
        )
    return rc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs-dir", required=True)
    ap.add_argument("--baseline-dir", default=".")
    ap.add_argument("--tol", type=float, default=0.25)
    ap.add_argument("--update", action="store_true")
    args = ap.parse_args()

    run_dirs = sorted(
        d
        for d in os.listdir(args.runs_dir)
        if d.startswith("run")
        and os.path.isdir(os.path.join(args.runs_dir, d))
    )
    if not run_dirs:
        return fail(f"no run*/ directories under {args.runs_dir}")

    rc = 0
    for name in BENCHES:
        fname = f"BENCH_{name}.json"
        paths = [
            os.path.join(args.runs_dir, d, fname)
            for d in run_dirs
            if os.path.exists(os.path.join(args.runs_dir, d, fname))
        ]
        if not paths:
            rc |= fail(f"{name}: no {fname} produced by any run")
            continue
        docs = [load(p) for p in paths]
        base_path = os.path.join(args.baseline_dir, fname)

        if args.update:
            src = paths[best_run(name, docs)]
            shutil.copyfile(src, base_path)
            print(f"  {name}: re-baselined {base_path} from {src}")
            continue

        if not os.path.exists(base_path):
            rc |= fail(
                f"{name}: no committed baseline {base_path} "
                f"(run 'scripts/bench.sh --update' and commit it)"
            )
            continue
        base = load(base_path)
        if name == "engine":
            rc |= compare_engine(docs, base, args.tol)
        elif name == "fig5xl":
            rc |= compare_fig5xl(docs, base, args.tol)
        else:
            rc |= compare_fig(name, docs, base, args.tol)
        if name == "kv":
            rc |= check_kv_ordering(docs[best_run(name, docs)])
        if name == "mwcas":
            rc |= check_mwcas_ordering(docs[best_run(name, docs)])
        if name == "adaptive":
            rc |= check_adaptive_ordering(docs[best_run(name, docs)])

    if rc == 0:
        print(
            "bench_compare: "
            + ("baselines updated" if args.update else "all benches within band")
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
