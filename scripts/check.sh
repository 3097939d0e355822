#!/usr/bin/env bash
# Full local gate: the tier-1 ctest suite; the conformance fuzzer's fixed
# seed corpora (clean, faulted, planted-race, KV, forced-adaptive, MWCAS and
# lock-free KV) with every proof repro replayed; the whole suite under ASan
# plus fuzzer slices, and the whole suite under TSan; a traced fuzz slice;
# the chrome-trace export check; a -Werror Release build; the BENCH_*.json
# perf ratchet; and perfbench built against the tree and self-tested. Run
# from the repo root:
#   scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build
BUILD_ASAN=build-asan
JOBS=$(nproc 2>/dev/null || echo 4)
REPRO="$BUILD/tests/repro"

# Empty the proofs' repro directory before a proof-running fuzz invocation.
fresh_repro_dir() {
  rm -rf "$REPRO"
  mkdir -p "$REPRO"
}

# Replay every repro the proofs wrote through the CLI; a file that does not
# reproduce, or no file at all, fails the stage.
replay_repros() {
  local n=0
  for f in "$REPRO"/*.txt; do
    [ -e "$f" ] || continue
    "./$BUILD/tests/fuzz_conformance" --replay "$f" || return 1
    n=$((n + 1))
  done
  if [ "$n" -eq 0 ]; then
    echo "no repro files in $REPRO" >&2
    return 1
  fi
}

echo "== [1/15] tier-1: build + ctest =="
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j"$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS"

echo "== [2/15] conformance fuzzer: fixed seed corpus =="
# A larger sweep than the ctest-time run; still deterministic (fixed base
# seed), so failures here are reproducible verbatim. The binding-bug proof's
# repro must also replay through the CLI.
fresh_repro_dir
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --cases 500 --schedules 8 \
  --out "$REPRO"
replay_repros

echo "== [3/15] conformance fuzzer: faulted corpus (--faults) =="
# The same generator under seed-derived lossy networks (drops, duplicates,
# delayed/reordered AMs, lost acks): the reliable AM layer must keep the
# shadow oracle clean on every mix. Any repro embeds the FaultPlan. The
# fault-proof already ran in stage 2; skip repeating it here.
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --cases 200 --schedules 2 \
  --faults --no-fault-proof --out "$BUILD/tests"

echo "== [4/15] race analyzer: planted-race gate =="
# Every case carries 2 planted same-epoch conflicting pairs and the online
# race analyzer must flag each of them in every schedule (a miss is minimized
# and written as a "race-miss" repro). The false-positive gate is implicit in
# stages 2-3: the analyzer rides along on every clean fuzz run, and any
# conflict there fails the campaign as a "race-conflict" repro.
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --cases 100 --schedules 4 \
  --races 2 --out "$BUILD/tests"

echo "== [5/15] KV store: clean, proof and faulted corpora =="
# The RMA-backed sharded KV store under skewed traffic with the Wing-Gong
# linearizability checker riding every run (DESIGN.md §14): a wider clean
# --kv corpus than the ctest-time slice (the planted-bug proof runs after the
# first campaign, and its repro replays through the CLI), then the faulted
# corpus (lossy network + seed-derived chaos), which must stay
# violation-free through retry and recovery.
fresh_repro_dir
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --kv 200 --schedules 4 \
  --out "$REPRO"
replay_repros
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --kv 100 --schedules 2 \
  --faults --no-fault-proof --out "$BUILD/tests"

echo "== [6/15] adaptive progress control: forced-on corpus =="
# The conformance corpus with the online controller (DESIGN.md §15) forced
# on for EVERY case (seed streams only draw it for ~25%): oracle, race
# analyzer, and cross-schedule content checks must stay as clean as the
# static runs. The fault-proof is skipped -- the injected static-binding bug
# has no surface under the controller's map (stage 2 already ran it).
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --cases 150 --schedules 4 \
  --adaptive --no-fault-proof --out "$BUILD/tests"

echo "== [7/15] MWCAS library: clean and lock-free corpora =="
# The descriptor-based multi-word CAS layer (DESIGN.md §16): a wider clean
# --mwcas corpus than the ctest-time slice (the three planted protocol bugs
# are proven caught inside the first campaign), and the KV store's lock-free
# bucket mode over the same seeds the locked campaign runs in stage 5. Every
# proof repro of both runs replays through the CLI. 600 seeds x 8 schedules
# (~30 s) is the corpus that exposed simultaneous-arrival ties to the
# cross-schedule gate (11 false mismatches before the gate learned them).
fresh_repro_dir
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --mwcas 600 --schedules 8 \
  --out "$REPRO"
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --kv 100 --schedules 2 \
  --lockfree --out "$REPRO"
replay_repros

# The sanitizer stages run every test outside two ctest labels; the reasons
# are where the labels are declared (tests/CMakeLists.txt), and each test
# file's header says what it exercises under which sanitizer.
SAN_SKIP='alloc_hook|host_timing'

echo "== [8/15] ASan: whole suite =="
cmake -B "$BUILD_ASAN" -S . -DCASPER_ASAN=ON >/dev/null
cmake --build "$BUILD_ASAN" -j"$JOBS"
ctest --test-dir "$BUILD_ASAN" --output-on-failure -j"$JOBS" -LE "$SAN_SKIP"

echo "== [9/15] ASan: fuzzer slices =="
# Sanitized allocation patterns under fuzzed schedules: planted-race
# detection, the controller forced on for every case, the ghost-kill and
# lossy-network recovery paths, and the KV and MWCAS workloads, whose
# in-flight scratch buffers and recycled descriptors must never be touched
# after release.
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 3 --cases 20 \
  --schedules 2 --races 2 --out "$BUILD_ASAN/tests"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 1 --cases 50 \
  --schedules 4 --out "$BUILD_ASAN/tests"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 5 --cases 30 \
  --schedules 2 --adaptive --no-fault-proof --out "$BUILD_ASAN/tests"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 11 --cases 30 \
  --schedules 2 --faults --no-fault-proof --out "$BUILD_ASAN/tests"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 1 --kv 20 --schedules 2 \
  --out "$BUILD_ASAN/tests"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 1 --mwcas 15 \
  --schedules 2 --out "$BUILD_ASAN/tests"

echo "== [10/15] TSan: whole suite =="
BUILD_TSAN=build-tsan
cmake -B "$BUILD_TSAN" -S . -DCASPER_TSAN=ON >/dev/null
cmake --build "$BUILD_TSAN" -j"$JOBS"
ctest --test-dir "$BUILD_TSAN" --output-on-failure -j"$JOBS" -LE "$SAN_SKIP"

echo "== [11/15] trace-enabled fuzz smoke (CASPER_TRACE=1) =="
# Same corpus slice with the recorder attached: exercises every obs
# instrumentation site under fuzzed schedules, and any repro written here
# embeds the virtual-time trace tail.
CASPER_TRACE=1 "./$BUILD/tests/fuzz_conformance" --base-seed 7 --cases 50 \
  --schedules 2 --out "$BUILD/tests"

echo "== [12/15] chrome-trace export: schema + casper track layout =="
cmake --build "$BUILD" -j"$JOBS" --target figures
"./$BUILD/bench/figures" fig4a --trace "$BUILD/fig4a_trace.json" > /dev/null
python3 scripts/validate_chrome_trace.py "$BUILD/fig4a_trace.json" \
  --require-casper-tracks

echo "== [13/15] Release build, warnings as errors =="
# Any new compiler warning (-Wall -Wextra -Wpedantic) in any target fails
# here, in the optimized configuration the benchmarks use.
BUILD_WERROR=build-werror
cmake -B "$BUILD_WERROR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "$BUILD_WERROR" -j"$JOBS"

echo "== [14/15] perf-regression gate: BENCH_*.json ratchet =="
# Host-side perf ratchet against the committed baselines, serial (the bench
# processes are the only load), best-of-N inside bench.sh. Intentional
# re-baselines go through scripts/bench.sh --update; see DESIGN.md §9.
# With RunConfig::fault unset every fault branch is behind one null check,
# so this also guards the faults-disabled zero-cost claim (DESIGN.md §11).
scripts/bench.sh

echo "== [15/15] perfbench: build against the tree + self-test =="
# perfbench/ links the simulator's libraries from src/, and its TracingLayer
# is a Layer decorator outside src/: a change to layer.hpp or pmpi.hpp that
# breaks it shows up here. The self-test runs every workload traced, checks
# each pass's outputs and ledger coverage, and a two-shard xl_tiled pass.
CARGO_TARGET_DIR="$BUILD/perfbench" python3 perfbench/run.py --self-test

echo "check.sh: all gates passed"
