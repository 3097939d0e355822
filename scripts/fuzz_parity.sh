#!/usr/bin/env bash
# Fuzz-verdict parity between two builds of this repo: runs the
# fuzz_conformance invocations of scripts/check.sh stages 2 to 7 with each
# build's binary, replays every repro a run wrote with the same binary, and
# diffs the summary, proof and replay lines and the repro files.
# Each run writes into its own --out directory; that path is masked before
# the diff (it appears in `# replay:` lines and proof/replay output). Exits 1
# on any difference. Run from anywhere, e.g. against a checkout of the parent:
#   scripts/fuzz_parity.sh /path/to/parent/build build
set -uo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi

RUNS=(
  "--base-seed 1 --cases 500 --schedules 8"
  "--base-seed 1 --cases 200 --schedules 2 --faults --no-fault-proof"
  "--base-seed 1 --cases 100 --schedules 4 --races 2"
  "--base-seed 1 --kv 200 --schedules 4"
  "--base-seed 1 --kv 100 --schedules 2 --faults --no-fault-proof"
  "--base-seed 1 --cases 150 --schedules 4 --adaptive --no-fault-proof"
  "--base-seed 1 --mwcas 100 --schedules 4"
  "--base-seed 1 --kv 100 --schedules 2 --lockfree"
)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# run_side NAME BUILD: every invocation, then a replay of each repro.
run_side() {
  local bin="$2/tests/fuzz_conformance"
  for i in "${!RUNS[@]}"; do
    local out="$WORK/$1/$i"
    mkdir -p "$out"
    # shellcheck disable=SC2086
    "$bin" ${RUNS[$i]} --out "$out" >"$out/log" 2>&1
    echo "exit $?" >>"$out/log"
    for f in "$out"/*.txt; do
      [ -e "$f" ] && "$bin" --replay "$f" >>"$out/log" 2>&1
    done
    sed -i "s#$out#OUT#g" "$out"/*
  done
}

run_side parent "$1" &
run_side change "$2" &
wait

if diff -r "$WORK/parent" "$WORK/change"; then
  echo "fuzz_parity: no difference in ${#RUNS[@]} runs"
else
  echo "fuzz_parity: verdicts differ" >&2
  exit 1
fi
