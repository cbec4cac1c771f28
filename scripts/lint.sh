#!/usr/bin/env bash
# Static-analysis entry point: sim-lint (determinism + architecture
# rules, DESIGN.md §12) plus the curated clang-tidy profile in
# .clang-tidy. Exits nonzero on any finding.
#
# sim-lint runs all four passes (token, layering, cycle-safety,
# event-discipline) with per-pass timing and fails fast before the
# tidy stage.
#
# clang-tidy is optional: images without LLVM (like the default build
# container, which ships only gcc) skip that stage with a notice; the
# sim-lint gate always runs.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${LAPERM_LINT_BUILD:-build}"
JOBS="${LAPERM_JOBS:-$(nproc)}"

# --- Stage 1: sim-lint -------------------------------------------------
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$BUILD_DIR" --target sim_lint -j"$JOBS" >/dev/null
"$BUILD_DIR"/src/sim_lint --root . --timings
echo "lint.sh: sim-lint clean"

# --- Stage 2: clang-tidy ----------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
    # A dedicated tree keeps tidy's compile database in sync with
    # LAPERM_TIDY without dirtying the main build.
    cmake -B build-tidy -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p build-tidy -quiet -j "$JOBS" \
            "$(pwd)/src/.*\.cc$"
    else
        find src -name '*.cc' -print0 |
            xargs -0 -n 8 clang-tidy -p build-tidy --quiet
    fi
    echo "lint.sh: clang-tidy clean"
else
    echo "lint.sh: clang-tidy not found; skipping tidy stage" \
         "(profile: .clang-tidy)"
fi

echo "lint.sh: all lint stages passed"
