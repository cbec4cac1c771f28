#!/usr/bin/env bash
# Tier-1 verification pipeline, staged and fail-fast:
#
#   lint         scripts/lint.sh (sim-lint + clang-tidy when present)
#   docs-check   scripts/docs_check.sh (docs <-> binaries/flags in sync)
#   build-werror strict warning set promoted to errors (LAPERM_WERROR)
#   ctest        Release build + full test suite
#   perfbench-smoke
#                one short traced run of each driven benchmark workload
#                (perfbench/run.py): the benchmark still builds against
#                the simulator, its records match the reference, and its
#                front-end replay counts equal GpuStats
#   tick-diff    scripts/tick_diff.sh (dense/event artifacts identical,
#                DESIGN.md §11)
#   serve-smoke  scripts/serve_smoke.sh (daemon end-to-end plus a
#                kill -9 restart served off the shared cache tier,
#                DESIGN.md §10, §15)
#   tenant-smoke scripts/tenant_smoke.sh (multi-tenant determinism
#                across tick modes and LAPERM_JOBS, DESIGN.md §14)
#   asan-ubsan   full test suite under AddressSanitizer + UBSan
#   tsan         concurrent-harness and serving-stack smokes under
#                ThreadSanitizer
#
# Each stage runs in its own build tree so sanitizer flags never
# contaminate the primary build. The summary line at the end (also
# printed on failure) names every stage and its outcome.
set -uo pipefail
cd "$(dirname "$0")/.."

JOBS="${LAPERM_JOBS:-$(nproc)}"
STAGES=()

summary() {
    echo "verify.sh summary: ${STAGES[*]}"
    exit "${1:-0}"
}

run_stage() {
    local name="$1"
    shift
    echo "=== verify stage: $name ==="
    if "$@"; then
        STAGES+=("$name:ok")
    else
        STAGES+=("$name:FAIL")
        echo "verify.sh: stage '$name' failed" >&2
        summary 1
    fi
}

stage_lint() {
    scripts/lint.sh
}

stage_docs() {
    scripts/docs_check.sh
}

stage_werror() {
    cmake -B build-werror -S . -DCMAKE_BUILD_TYPE=Release \
        -DLAPERM_WERROR=ON &&
        cmake --build build-werror -j"$JOBS"
}

stage_ctest() {
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
        cmake --build build -j"$JOBS" &&
        ctest --test-dir build --output-on-failure -j"$JOBS"
}

stage_perfbench_smoke() {
    # Stale records from an earlier build would be compared too; start
    # from the checked-in reference alone.
    rm -rf .bench_build/records &&
        python3 perfbench/run.py --workload sweep --seed 1 --seconds 1 \
            --trace 1 &&
        python3 perfbench/run.py --workload serve-mixed --seed 1 \
            --seconds 1 --trace 1
}

stage_tick_diff() {
    # Reuses the Release tree the ctest stage just built.
    cmake --build build -j"$JOBS" --target laperm_sim &&
        scripts/tick_diff.sh build
}

stage_serve_smoke() {
    # Reuses the Release tree the ctest stage just built.
    cmake --build build -j"$JOBS" \
        --target laperm_sim laperm_served laperm_submit &&
        scripts/serve_smoke.sh build
}

stage_tenant_smoke() {
    # Reuses the Release tree the ctest stage just built.
    cmake --build build -j"$JOBS" \
        --target laperm_sim bench_multitenant &&
        scripts/tenant_smoke.sh build
}

stage_asan() {
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLAPERM_ASAN=ON &&
        cmake --build build-asan -j"$JOBS" &&
        ctest --test-dir build-asan --output-on-failure -j"$JOBS"
}

stage_tsan() {
    # Only the gtest-free smoke binaries run here so every linked object
    # is instrumented (gtest/benchmark from the system are not).
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLAPERM_TSAN=ON &&
        cmake --build build-tsan -j"$JOBS" \
            --target harness_parallel_smoke serve_parallel_smoke &&
        (cd build-tsan &&
            ctest --output-on-failure \
                -R '^(harness|serve)_parallel_smoke$')
}

run_stage lint stage_lint
run_stage docs-check stage_docs
run_stage build-werror stage_werror
run_stage ctest stage_ctest
run_stage perfbench-smoke stage_perfbench_smoke
run_stage tick-diff stage_tick_diff
run_stage serve-smoke stage_serve_smoke
run_stage tenant-smoke stage_tenant_smoke
run_stage asan-ubsan stage_asan
run_stage tsan stage_tsan

echo "verify.sh: all checks passed"
summary 0
