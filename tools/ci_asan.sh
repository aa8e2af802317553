#!/usr/bin/env bash
# CI: build with AddressSanitizer + UndefinedBehaviorSanitizer and run the
# test suite: the tier-1 tests, the soak tier (fault_test, failover_test and
# the chaos soaks in stress_test), and the golden check, which reruns every
# same-seed cell of tools/same_seed_docs.sh (fault plans, recovery paths,
# benches, pins) under the sanitizers and requires the checked-in documents
# of tests/golden/ byte for byte (docs/faults.md). Then the one bench that
# the golden check leaves out: fig12_fairness's claim checks.
#
# Usage: tools/ci_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Leak detection stays off: the simulator's detached coroutine loops
# (client completion polling, manager mailbox server) are deliberately
# still suspended when a process exits, so LSan reports their parked
# frames. Overflows, use-after-free, and UB are the signal here. A report
# exits 86, a code no golden cell holds, so the golden check fails on it
# also in the cells whose recorded exit code is 1.
export ASAN_OPTIONS=detect_leaks=0:strict_string_checks=1:exitcode=86
export UBSAN_OPTIONS=print_stacktrace=1:exitcode=86

# tier1 = the fast unit/feature subset (the verify line), then the soak
# tier, then the golden check.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L tier1
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L soak
ctest --test-dir "$BUILD_DIR" --output-on-failure -L golden

# --- QoS / noisy-neighbor protection ---------------------------------------------
# The fairness bench under the sanitizer: its claim checks (flat RR lets a
# bulk writer inflate a QD1 reader's p99 beyond 2x solo; WRR + pacing keeps
# it within the bound) are assertions, exit 1 on mismatch.
"$BUILD_DIR/bench/fig12_fairness" > /dev/null
echo "fig12_fairness ok: WRR + QoS fairness claim checks passed"

echo "ci_asan: all green"
