#!/usr/bin/env bash
# Paper-scale sweep: runs `figures <id> --full` for every registry entry (or
# the ids given), each in its own process and one at a time, so each entry's
# peak RSS is its own. Prints every entry's claim verdicts, then one row per
# entry with its wall time, peak RSS and exit code.
#
#   scripts/paper_scale.sh                 every entry
#   scripts/paper_scale.sh fig8a fig8c     only these
#
# Exits 1 when any entry exits non-zero, which `figures` does when a verdict
# differs from its pin (the `--full` pin where a claim has one). Kept out of
# tier-1 and out of the default scripts/check.sh: the full sweep takes many
# minutes and several GB.
#
# Env knobs:
#   BUILD   build directory holding bench/figures   (default build)
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
FIG="$BUILD/bench/figures"
if [ ! -x "$FIG" ]; then
  echo "paper_scale: $FIG not built (cmake --build $BUILD --target figures)" >&2
  exit 2
fi

ids=("$@")
if [ ${#ids[@]} -eq 0 ]; then
  # An id-less call prints the usage, which ends with the registry's ids.
  read -r -a ids <<<"$("$FIG" 2>&1 | sed -n 's/.*ids: //p')"
fi

rc=0
rows=()
for id in "${ids[@]}"; do
  echo "== figures $id --full"
  # One python process per entry: RUSAGE_CHILDREN's max RSS is then this
  # entry's alone.
  row=$(python3 - "$FIG" "$id" <<'EOF'
import resource, subprocess, sys, time
t0 = time.monotonic()
p = subprocess.run([sys.argv[1], sys.argv[2], "--full"],
                   stdout=subprocess.PIPE, text=True)
wall = time.monotonic() - t0
for line in p.stdout.splitlines():
    if line.startswith("claim "):
        print(line, file=sys.stderr)
rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print(f"{sys.argv[2]:<18} {wall:>9.1f} {rss_mb:>12.0f} {p.returncode:>5}")
EOF
  )
  echo "$row" | grep -q . || row="$id (no result)"
  rows+=("$row")
  [ "$(echo "$row" | awk '{print $NF}')" = "0" ] || rc=1
done

echo
printf '%-18s %9s %12s %5s\n' entry wall_s peak_rss_mb exit
printf '%s\n' "${rows[@]}"
exit $rc
