#!/usr/bin/env bash
# CI: build with ThreadSanitizer and soak the concurrency-heavy paths. The
# simulator core is a single-threaded event loop, but the workload runner
# (run_job_blocking) and the tests spin real threads around it, so TSan
# guards the boundary: test harness vs. engine, metrics registry
# registration, and the tracer's global state. The soak runs the stress,
# fault, failover, and integrity suites (the tests that exercise recovery
# machinery hardest), then the golden check, so the fault injector, PI
# pipeline, scrubber and takeover run under the sanitizer too.
#
# Usage: tools/ci_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

SAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
cmake --build "$BUILD_DIR" -j "$(nproc)"

export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1

# Soak the suites that hammer the recovery and integrity machinery
# (gtest case names are capitalized; ctest -R is case-sensitive).
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R 'Stress|Fault|Failover|Takeover|Chaos|Checksums|ProtectionInfo|BlockStorePi|Pi|Determinism|Fuzz|Sweep|Engine|Mux|Sharding'

# Every same-seed cell under TSan: the chaos, corruption, multi-queue,
# WRR, CXL and takeover nvsh_fio cells, fig11_scaling and fig13_tenants (its
# 155 tenants' DRR + QoS coroutines) and the pins, each held byte for byte to
# the checked-in corpus in tests/golden/ (135 s on a 4-core VM).
ctest --test-dir "$BUILD_DIR" --output-on-failure -L golden

# QoS under TSan: the fairness bench (claim checks are assertions), which
# the golden check leaves out.
"$BUILD_DIR/bench/fig12_fairness" > /dev/null

echo "ci_tsan: all green"
