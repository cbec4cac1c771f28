#!/usr/bin/env bash
# Differential tick-mode gate (DESIGN.md §11): the event-driven core
# must be an observably invisible optimization of the dense reference
# loop. Runs the shipped CLI in both --tick-mode settings over a
# launch-heavy and a stall-heavy workload, with the full observability
# surface enabled, and byte-compares every artifact. Any divergence —
# a single cycle count, trace event, or histogram bucket — fails.
#
# Usage: scripts/tick_diff.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SIM="$BUILD/src/laperm_sim"
if [ ! -x "$SIM" ]; then
    echo "tick_diff.sh: $SIM not built" >&2
    exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
export LAPERM_NO_CACHE=1
unset LAPERM_TICK_MODE

run_mode() { # mode -> writes $TMP/<mode>/
    local mode="$1" out="$TMP/$1"
    mkdir -p "$out"
    # Launch-heavy workload with its five trace artifacts written into
    # one directory.
    "$SIM" --workload bfs-citation --scale tiny --policy adaptive \
        --tick-mode "$mode" --csv --trace-dir "$out/trace" >"$out/bfs.csv"
    local n
    n=$(find "$out/trace" -type f | wc -l)
    if [ "$n" -ne 5 ]; then
        echo "tick_diff.sh: $mode wrote $n trace artifacts, want 5" >&2
        exit 1
    fi
    # Stall-heavy workload where the event loop skips almost every
    # cycle — the path most likely to drift from the dense loop.
    "$SIM" --workload chase-ring --scale tiny --tick-mode "$mode" \
        --csv >"$out/chase.csv"
}

run_mode dense
run_mode event

fail=0
for f in bfs.csv chase.csv $(cd "$TMP/dense" && ls trace/*); do
    if ! cmp -s "$TMP/dense/$f" "$TMP/event/$f"; then
        echo "tick_diff.sh: $f diverges between tick modes" >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1

echo "tick_diff.sh: all artifacts byte-identical across tick modes"
