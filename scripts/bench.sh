#!/usr/bin/env bash
# Perf-regression gate ("ratchet") over the committed BENCH_*.json baselines.
#
#   scripts/bench.sh              run benches best-of-N, fail on regression
#   scripts/bench.sh --update     re-baseline: install the best run's JSON
#                                 as the new committed BENCH_*.json
#
# Runs the engine scheduler bench, the gated `figures` entries (fig4a, fig6a,
# kv, mwcas, adaptive) in one process and the 10k-rank fig5xl scale run.
# `figures` exits 1, stopping this script, when a claim differs from its pin
# or a KV/MWCAS history does not linearize. The figure benches' virtual-time
# rows and obs counters must match the baselines exactly (they are
# deterministic simulation facts); only the host-side wall-clock numbers get
# a tolerance band. See scripts/bench_compare.py for the exact contract.
#
# Env knobs:
#   BENCH_RUNS  best-of-N run count            (default 3)
#   BENCH_TOL   fractional host tolerance band (default 0.25)
#   BUILD       build directory                (default build)
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$(pwd)

BUILD=${BUILD:-build}
RUNS=${BENCH_RUNS:-3}
TOL=${BENCH_TOL:-0.25}
JOBS=$(nproc 2>/dev/null || echo 4)

UPDATE=""
if [[ "${1:-}" == "--update" ]]; then UPDATE="--update"; fi

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j"$JOBS" --target engine_throughput figures >/dev/null

OUT="$ROOT/$BUILD/bench_out"
rm -rf "$OUT"
for r in $(seq 1 "$RUNS"); do
  d="$OUT/run$r"
  mkdir -p "$d"
  echo "== bench.sh: run $r/$RUNS =="
  "$ROOT/$BUILD/bench/engine_throughput" --out "$d/BENCH_engine.json" \
    >/dev/null
  (cd "$d" && "$ROOT/$BUILD/bench/figures" fig4a fig6a kv mwcas adaptive \
    --json >/dev/null)
  "$ROOT/$BUILD/bench/figures" fig5xl --out "$d/BENCH_fig5xl.json" >/dev/null
done

python3 scripts/bench_compare.py --runs-dir "$OUT" --baseline-dir "$ROOT" \
  --tol "$TOL" $UPDATE
