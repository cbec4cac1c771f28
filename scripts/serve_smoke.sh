#!/usr/bin/env bash
# serve-smoke: end-to-end check of the serving subsystem against real
# binaries (see DESIGN.md §10, §15).
#
#   1. start laperm_served on a private socket + private cache dir
#   2. wait for readiness via --ping
#   3. submit the same simulation directly (laperm_sim --csv), cold
#      through the daemon, and again cached — all three must be
#      byte-identical
#   4. one grammar: the same run flags on both CLIs (a cut-down V100
#      with the TB-aware warp scheduler) give byte-identical CSV, and a
#      machine the simulator cannot build (--l1-kb 0) is a structured
#      error that leaves the daemon answering
#   5. batch submission prints the sweep-format TSV
#   6. --stats returns the metrics snapshot
#   7. kill -9 the daemon and restart it on the same --cache-dir: the
#      replayed cold request must come back byte-identical off the
#      shared disk tier (executed 0, cache_shared_hits >= 1)
#   8. protocol shutdown; the daemon must exit cleanly and remove its
#      socket
#
# Step 7 is the tier distinction only a process restart can exercise:
# a live daemon answers repeats from memory (cache_mem_hits), so the
# shared-tier counter stays zero until a process that did NOT execute
# the run serves its bytes off disk.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SIM="$BUILD/src/laperm_sim"
SERVED="$BUILD/src/laperm_served"
SUBMIT="$BUILD/src/laperm_submit"

for bin in "$SIM" "$SERVED" "$SUBMIT"; do
    if [ ! -x "$bin" ]; then
        echo "serve_smoke: missing binary '$bin' (build first)" >&2
        exit 1
    fi
done

WORK=$(mktemp -d /tmp/laperm_serve_smoke.XXXXXX)
SOCK="$WORK/served.sock"
EP="unix:$SOCK"
export LAPERM_CACHE_DIR="$WORK/cache"
DAEMON_PID=

cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

start_daemon() {
    "$SERVED" --listen "$EP" --jobs 2 --cache-dir "$LAPERM_CACHE_DIR" \
        >>"$WORK/daemon.log" 2>&1 &
    DAEMON_PID=$!

    # Readiness: the daemon may still be binding the socket.
    for _ in $(seq 1 100); do
        if "$SUBMIT" --connect "$EP" --ping >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "serve_smoke: daemon never became ready" >&2
    cat "$WORK/daemon.log" >&2 || true
    exit 1
}

start_daemon
"$SUBMIT" --connect "$EP" --ping

# Determinism contract: direct, cold-served, and cache-served output
# must be byte-identical.
req=(--workload bfs-cage --scale tiny --seed 1)
"$SIM" "${req[@]}" --csv >"$WORK/direct.csv"
"$SUBMIT" --connect "$EP" "${req[@]}" >"$WORK/cold.csv"
"$SUBMIT" --connect "$EP" "${req[@]}" >"$WORK/cached.csv"
cmp "$WORK/direct.csv" "$WORK/cold.csv"
cmp "$WORK/direct.csv" "$WORK/cached.csv"
echo "serve_smoke: direct/cold/cached outputs byte-identical"

# One run-flag grammar: laperm_sim and laperm_submit parse these flags
# with the same table, so they name the same simulation.
machine=(--preset v100 --smx 40 --warp-sched tbaware --policy adaptive
    --model cdp --scale tiny --seed 3)
"$SIM" "${machine[@]}" --csv >"$WORK/machine_direct.csv"
"$SUBMIT" --connect "$EP" "${machine[@]}" >"$WORK/machine_served.csv"
cmp "$WORK/machine_direct.csv" "$WORK/machine_served.csv"
echo "serve_smoke: same run flags, byte-identical on both CLIs"

# A machine the simulator cannot build is a structured error, and the
# daemon keeps answering.
if "$SUBMIT" --connect "$EP" --workload bfs-cage --scale tiny --l1-kb 0 \
    >"$WORK/zero_l1.out" 2>"$WORK/zero_l1.err"; then
    echo "serve_smoke: --l1-kb 0 was accepted" >&2
    exit 1
fi
if ! grep -q 'status=error' "$WORK/zero_l1.err"; then
    echo "serve_smoke: --l1-kb 0 got no structured error:" >&2
    cat "$WORK/zero_l1.err" "$WORK/daemon.log" >&2
    exit 1
fi
"$SUBMIT" --connect "$EP" --ping >/dev/null
echo "serve_smoke: --l1-kb 0 is a structured error; the daemon still answers"

# Batch submission prints the sweep-harness TSV format.
printf '%s\n' \
    '{"op":"run","workload":"bfs-cage","scale":"tiny","seed":1}' \
    '{"op":"run","workload":"bfs-cage","scale":"tiny","seed":2}' \
    >"$WORK/batch.jsonl"
"$SUBMIT" --connect "$EP" --batch "$WORK/batch.jsonl" >"$WORK/batch.tsv"
[ "$(wc -l <"$WORK/batch.tsv")" -eq 3 ] # header comment + 2 rows
head -1 "$WORK/batch.tsv" | grep -q '^# workload'
echo "serve_smoke: batch TSV ok"

# Metrics snapshot through the stats verb.
"$SUBMIT" --connect "$EP" --stats >"$WORK/stats.tsv"
grep -q '^cache_hits' "$WORK/stats.tsv"
grep -q '^executed' "$WORK/stats.tsv"

# Crash and restart on the same cache dir (the stale socket file is
# recovered on rebind). The replay must not simulate again.
kill -9 "$DAEMON_PID"
{ wait "$DAEMON_PID"; } 2>/dev/null || true
start_daemon
"$SUBMIT" --connect "$EP" "${req[@]}" >"$WORK/restart.csv"
cmp "$WORK/cold.csv" "$WORK/restart.csv"
"$SUBMIT" --connect "$EP" --stats >"$WORK/stats.tsv"
stat_of() { awk -v k="$1" '$1 == k {print $2}' "$WORK/stats.tsv"; }
executed=$(stat_of executed)
shared=$(stat_of cache_shared_hits)
if ! { [ "$executed" = 0 ] && [ "${shared:-0}" -ge 1 ]; }; then
    echo "serve_smoke: after restart expected executed 0 and" \
        "cache_shared_hits >= 1, got '$executed' and '$shared'" >&2
    cat "$WORK/stats.tsv" >&2
    exit 1
fi
echo "serve_smoke: restarted daemon served the replay off disk"

# Clean protocol shutdown: daemon exits 0 and removes its socket.
"$SUBMIT" --connect "$EP" --shutdown
wait "$DAEMON_PID"
DAEMON_PID=
if [ -e "$SOCK" ]; then
    echo "serve_smoke: daemon left its socket behind" >&2
    exit 1
fi
echo "serve_smoke: OK"
