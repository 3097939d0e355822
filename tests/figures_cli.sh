#!/bin/sh
# ctest checks of the `figures` driver, run in a scratch directory:
#
#   figures_cli.sh FIGURES claims  every fast entry exits 0 (each claim
#                                  matches its pin), and one process running
#                                  them all prints exactly what one process
#                                  per entry prints (no state leaks between
#                                  entries)
#   figures_cli.sh FIGURES usage   unknown ids and bad --shards/--iters
#                                  values exit 2 and write no BENCH file
set -u
figures=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
fail=0

case $2 in
claims)
  fast="fig3a fig3b fig4a fig4b fig4c fig8a fig8b fig8c table1
        ablation_hints ablation_topology"
  for id in $fast; do
    "$figures" "$id" >> separate.txt || { echo "FAIL: $id exited $?"; fail=1; }
  done
  # shellcheck disable=SC2086
  "$figures" $fast > together.txt || { echo "FAIL: all exited $?"; fail=1; }
  grep '^claim ' together.txt
  if ! cmp -s separate.txt together.txt; then
    echo "FAIL: one process differs from one process per entry:"
    diff separate.txt together.txt
    fail=1
  fi
  ;;
usage)
  for args in "fig5xl --iters 0" "fig4a --shards abc" "nosuchfig" \
              "fig4a --json --shards 0" "fig5xl --iters 2x" "" \
              "fig4a --json --bogus"; do
    # shellcheck disable=SC2086
    "$figures" $args > /dev/null 2>&1
    rc=$?
    [ "$rc" -eq 2 ] || { echo "FAIL: figures $args exited $rc, want 2"; fail=1; }
    if ls BENCH_* > /dev/null 2>&1; then
      echo "FAIL: figures $args wrote a BENCH file"
      rm -f BENCH_*
      fail=1
    fi
  done
  ;;
*)
  echo "usage: figures_cli.sh FIGURES claims|usage" >&2
  exit 2
  ;;
esac
exit $fail
