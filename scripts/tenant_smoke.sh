#!/usr/bin/env bash
# Multi-tenant determinism gate (DESIGN.md §14): the tenant decision
# loop only drives the device between slices, so its artifacts must be
# byte-identical across tick modes AND across harness parallelism.
#
#   1. laperm_sim --tenants duo, dense vs event: stdout and the
#      --tenants-tsv artifact byte-compare.
#   2. bench_multitenant, LAPERM_JOBS=1/event vs LAPERM_JOBS=8/dense:
#      BENCH_multitenant.json and every stored cell record
#      byte-compare.
#
# Usage: scripts/tenant_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SIM="$BUILD/src/laperm_sim"
BENCH="$BUILD/bench/bench_multitenant"
for bin in "$SIM" "$BENCH"; do
    if [ ! -x "$bin" ]; then
        echo "tenant_smoke.sh: $bin not built" >&2
        exit 1
    fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
unset LAPERM_TICK_MODE
export LAPERM_NO_CACHE=1

# -- 1. CLI front end: dense vs event -------------------------------
for mode in dense event; do
    mkdir -p "$TMP/$mode"
    "$SIM" --tenants duo --tick-mode "$mode" \
        --tenants-tsv "$TMP/$mode/duo.tsv" >"$TMP/$mode/stdout.txt"
done
fail=0
for f in stdout.txt duo.tsv; do
    if ! cmp -s "$TMP/dense/$f" "$TMP/event/$f"; then
        echo "tenant_smoke.sh: $f diverges between tick modes" >&2
        fail=1
    fi
done

# -- 2. Bench: serial/event vs parallel/dense, cold caches ----------
# The bench walks the full mix x policy x preset grid; restrict it to
# one small mix and one preset so the gate stays fast.
unset LAPERM_NO_CACHE
export LAPERM_TENANT_MIXES=duo
export LAPERM_TENANT_PRESETS=k20c
run_bench() { # jobs tick-mode outdir
    local out="$TMP/$3"
    mkdir -p "$out"
    (cd "$out" &&
        LAPERM_JOBS="$1" LAPERM_TICK_MODE="$2" \
            LAPERM_CACHE_DIR="$out/cache" \
            "$OLDPWD/$BENCH" >bench_stdout.txt)
}
run_bench 1 event bench-a
run_bench 8 dense bench-b

if ! cmp -s "$TMP/bench-a/BENCH_multitenant.json" \
    "$TMP/bench-b/BENCH_multitenant.json"; then
    echo "tenant_smoke.sh: BENCH_multitenant.json differs between" \
        "LAPERM_JOBS=1/event and LAPERM_JOBS=8/dense" >&2
    fail=1
fi
# Every stored cell record: the two stores must hold the same,
# non-empty set of keys, each record byte-identical.
recs="$TMP/bench-a/cache/results"
if [ -z "$(ls -A "$recs" 2>/dev/null)" ] ||
    ! diff -r -q "$recs" "$TMP/bench-b/cache/results" >&2; then
    echo "tenant_smoke.sh: stored records are missing or differ" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1

echo "tenant_smoke.sh: multi-tenant artifacts byte-identical across" \
    "tick modes and LAPERM_JOBS"
