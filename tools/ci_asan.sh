#!/usr/bin/env bash
# CI: build with AddressSanitizer + UndefinedBehaviorSanitizer, run the full
# test suite (which includes fault_test, failover_test, and the chaos soaks
# in stress_test), then smoke-test the machine-readable bench output — one
# fast nvsh_fio run with --json, twice with the same seed, checking that the
# document parses and that the two runs are byte-identical (the determinism
# property the metrics registry guarantees). The same double-run check is
# repeated with a --faults chaos plan: seeded fault injection and the
# recovery machinery it triggers must be exactly as reproducible as a
# fault-free run (docs/faults.md).
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
# frames. Overflows, use-after-free, and UB are the signal here.
export ASAN_OPTIONS=detect_leaks=0:strict_string_checks=1
export UBSAN_OPTIONS=print_stacktrace=1

# tier1 = the fast unit/feature subset (the verify line), then everything
# including the soak tier.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L tier1
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L soak

# --- JSON smoke ---------------------------------------------------------------
smoke() {
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --rw randrw \
    --ops 2000 --seed 7 --json "$1" > /dev/null
}
JSON_A="$BUILD_DIR/smoke_a.json"
JSON_B="$BUILD_DIR/smoke_b.json"
smoke "$JSON_A"
smoke "$JSON_B"

if command -v python3 > /dev/null 2>&1; then
  python3 - "$JSON_A" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("bench", "config", "boxplots", "metrics"):
    assert key in doc, f"missing {key}"
assert doc["boxplots"], "no boxplots"
assert doc["metrics"]["counters"], "no counters in metrics snapshot"
print(f"json smoke ok: {len(doc['boxplots'])} boxplots, "
      f"{len(doc['metrics']['counters'])} counters")
EOF
else
  # No python3: at least require the expected top-level keys.
  grep -q '"bench"' "$JSON_A" && grep -q '"metrics"' "$JSON_A"
  echo "json smoke ok (python3 unavailable; key check only)"
fi

cmp "$JSON_A" "$JSON_B"
echo "determinism ok: identical seeds produced byte-identical documents"

# --- CXL substrate smoke ------------------------------------------------------
# The same stack over the CXL pooled-memory substrate: bring-up, a verified
# random mixed workload, and the determinism property must all hold with
# queues/mailbox/bounce living in the shared pool instead of behind NTB
# windows.
cxl_smoke() {
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --substrate cxl     --rw randrw --ops 2000 --seed 7 --region-blocks 4096 --verify     --json "$1" > /dev/null
}
CXL_A="$BUILD_DIR/cxl_a.json"
CXL_B="$BUILD_DIR/cxl_b.json"
cxl_smoke "$CXL_A"
cxl_smoke "$CXL_B"
cmp "$CXL_A" "$CXL_B"
grep -q '"substrate":"cxl"' "$CXL_A"
echo "cxl smoke ok: pooled-memory substrate verified, byte-identical reruns"

# CXL chaos determinism: dropped posted writes, stale reads and a CXL port
# flap, all through the transaction engine both substrates share. Recovery
# must finish every I/O without error (exit 0), twice, byte-identical, and
# every injected kind must fire.
CXL_CHAOS_PLAN="seed=13;drop_posted_write:src=1,nth=40,count=2;stale_read:src=0,nth=200;ntb_link_down:host=1,at=2ms,for=300us"
cxl_chaos_smoke() {
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --substrate cxl --rw randrw \
    --ops 2000 --seed 7 --faults "$CXL_CHAOS_PLAN" --json "$1" > /dev/null
}
CXL_CHAOS_A="$BUILD_DIR/cxl_chaos_a.json"
CXL_CHAOS_B="$BUILD_DIR/cxl_chaos_b.json"
cxl_chaos_smoke "$CXL_CHAOS_A"
cxl_chaos_smoke "$CXL_CHAOS_B"
cmp "$CXL_CHAOS_A" "$CXL_CHAOS_B"
for counter in posted_drops stale_reads link_downs; do
  grep -q "\"nvmeshare.fault.$counter\":[1-9]" "$CXL_CHAOS_A"
done
echo "cxl chaos determinism ok: every injected kind fired, byte-identical reruns"

# CXL write damage: bit-flipped and torn posted writes into host DRAM. As in
# the corruption cell below, a flip that lands on a CQE status may surface
# as a non-retryable I/O error (exit 1); anything worse fails. Twice,
# byte-identical, and both kinds must fire.
CXL_DAMAGE_PLAN="seed=13;flip_dma_bits:src=0,class=dram,nth=300,count=2;torn_dma_write:src=0,class=dram,nth=500"
cxl_damage_smoke() {
  local rc=0
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --substrate cxl --rw randrw \
    --ops 2000 --seed 7 --faults "$CXL_DAMAGE_PLAN" --json "$1" > /dev/null || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "cxl damage smoke crashed (exit $rc)" >&2
    exit "$rc"
  fi
  echo "cxl damage smoke exit $rc"
}
CXL_DAMAGE_A="$BUILD_DIR/cxl_damage_a.json"
CXL_DAMAGE_B="$BUILD_DIR/cxl_damage_b.json"
cxl_damage_smoke "$CXL_DAMAGE_A"
cxl_damage_smoke "$CXL_DAMAGE_B"
cmp "$CXL_DAMAGE_A" "$CXL_DAMAGE_B"
for counter in bit_flips torn_writes; do
  grep -q "\"nvmeshare.fault.$counter\":[1-9]" "$CXL_DAMAGE_A"
done
echo "cxl damage determinism ok: flips and torn writes fired, byte-identical reruns"

# --- chaos determinism --------------------------------------------------------
# Same property with the fault injector active: a seeded plan plus the
# recovery paths it exercises (timeouts, retries, a link flap, controller
# error) must still produce byte-identical metric snapshots.
CHAOS_PLAN="seed=11;drop_posted_write:src=0,dst=1,nth=40,count=2;ntb_link_down:host=1,at=2ms,for=300us;ctrl_error:nth=100"
chaos_smoke() {
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --rw randrw \
    --ops 2000 --seed 7 --faults "$CHAOS_PLAN" --json "$1" > /dev/null
}
CHAOS_A="$BUILD_DIR/chaos_a.json"
CHAOS_B="$BUILD_DIR/chaos_b.json"
chaos_smoke "$CHAOS_A"
chaos_smoke "$CHAOS_B"
cmp "$CHAOS_A" "$CHAOS_B"
grep -q '"nvmeshare.fault.link_downs":1' "$CHAOS_A"
echo "chaos determinism ok: same-seed fault runs produced byte-identical documents"

# --- fatal controller reset ---------------------------------------------------
# Every 300th command raises CSTS.CFS: the manager's CSTS watchdog runs the
# controller-recovery enable handshake and the client re-creates its queue
# pair through the mailbox. No I/O may fail (exit 0), twice, byte-identical,
# and the watchdog must have reset the controller at least once.
FATAL_PLAN="seed=11;ctrl_error:nth=300,fatal=1"
fatal_smoke() {
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --rw randrw --qd 4 \
    --ops 2000 --seed 7 --faults "$FATAL_PLAN" --json "$1" > /dev/null
}
FATAL_A="$BUILD_DIR/fatal_a.json"
FATAL_B="$BUILD_DIR/fatal_b.json"
fatal_smoke "$FATAL_A"
fatal_smoke "$FATAL_B"
cmp "$FATAL_A" "$FATAL_B"
grep -q '"nvmeshare.manager.ctrl_resets":[1-9]' "$FATAL_A"
echo "fatal reset ok: watchdog reset and queue-pair re-create, byte-identical reruns"

# --- request lifecycle --------------------------------------------------------
# The three data paths around the one serve() lifecycle in block::IoEngine:
# the IOMMU data path with PI verify under the chaos plan, the NVMe-oF
# initiator with data digests and dropped capsules, and the local driver
# with read verification. Each must exit 0, twice, byte-identical, and the
# fault recovery it is there for must have run.
lifecycle_smoke() {
  local name="$1"
  shift
  for run in a b; do
    "$BUILD_DIR/tools/nvsh_fio" "$@" --rw randrw --qd 4 --ops 2000 --seed 7 \
      --json "$BUILD_DIR/${name}_$run.json" > /dev/null
  done
  cmp "$BUILD_DIR/${name}_a.json" "$BUILD_DIR/${name}_b.json"
}
lifecycle_smoke iommu --scenario ours-remote --data-path iommu --integrity --faults "$CHAOS_PLAN"
grep -q '"nvmeshare.client.iommu_maps":2000' "$BUILD_DIR/iommu_a.json"
grep -q '"nvmeshare.client.cmd_retries":[1-9]' "$BUILD_DIR/iommu_a.json"
lifecycle_smoke nvmeof --scenario nvmeof-remote --integrity \
  --faults "seed=5;drop_capsule:nth=50,count=3"
grep -q '"nvmeshare.nvmeof_initiator.capsule_retries":[1-9]' "$BUILD_DIR/nvmeof_a.json"
lifecycle_smoke local --scenario linux-local --verify
echo "request lifecycle ok: iommu, nvmeof and local cells recovered, byte-identical reruns"

# --- corruption + integrity pipeline ------------------------------------------
# End-to-end data-integrity check: a PI-formatted namespace with client-side
# verify, the background scrubber running, and seeded bit flips on the DMA
# paths. Flips that corrupt data payloads are caught by the protection
# pipeline and recovered by the retry machinery; a flip that lands on a CQE
# status field is faithfully reported as a non-retryable I/O error (exit 1
# from nvsh_fio) rather than silent corruption — both outcomes are
# acceptable here, anything else (sanitizer abort, crash) is not. The hard
# assertions: every injected flip is accounted for, the PI pipeline
# actually engaged (tuples generated AND verified), and two same-seed runs
# are byte-identical, errors included.
CORRUPT_PLAN="seed=5;flip_dma_bits:src=0,dst=1,nth=2000,count=6"
corrupt_smoke() {
  local rc=0
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --rw randrw --qd 4 \
    --ops 3000 --seed 7 --region-blocks 4096 --verify --integrity \
    --faults "$CORRUPT_PLAN" --json "$1" > /dev/null || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "corruption smoke crashed (exit $rc)" >&2
    exit "$rc"
  fi
}
CORRUPT_A="$BUILD_DIR/corrupt_a.json"
CORRUPT_B="$BUILD_DIR/corrupt_b.json"
corrupt_smoke "$CORRUPT_A"
corrupt_smoke "$CORRUPT_B"
cmp "$CORRUPT_A" "$CORRUPT_B"
grep -q '"nvmeshare.fault.bit_flips":6' "$CORRUPT_A"
grep -q '"nvmeshare.integrity.pi_generated":[1-9]' "$CORRUPT_A"
grep -q '"nvmeshare.integrity.pi_verified":[1-9]' "$CORRUPT_A"
grep -q '"nvmeshare.integrity.blocks_scrubbed":[1-9]' "$CORRUPT_A"
echo "corruption smoke ok: flips injected, PI pipeline engaged, run recovered"

# --- multi-queue engine ---------------------------------------------------------
# The channel-scaling bench under the sanitizer: its claim checks (IOPS
# monotone in channels, coalesced doorbells ring < once per command) are
# assertions, exit 1 on mismatch.
"$BUILD_DIR/bench/fig11_scaling" > /dev/null
echo "fig11_scaling ok: multi-queue claim checks passed"

# Multi-QP fault soak: 4 channels + doorbell coalescing with the chaos plan
# active, so per-channel recovery (mailbox batch re-create) and
# drain-to-survivors scheduling run under ASan — twice, byte-identical.
multiqp_smoke() {
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --rw randrw --qd 4 \
    --channels 4 --ops 2000 --seed 7 --faults "$CHAOS_PLAN" --json "$1" > /dev/null
}
MULTIQP_A="$BUILD_DIR/multiqp_a.json"
MULTIQP_B="$BUILD_DIR/multiqp_b.json"
multiqp_smoke "$MULTIQP_A"
multiqp_smoke "$MULTIQP_B"
cmp "$MULTIQP_A" "$MULTIQP_B"
grep -q '"channels":"4"' "$MULTIQP_A"
grep -q '"nvmeshare.engine.client.qp3.doorbell_writes":[1-9]' "$MULTIQP_A"
echo "multi-qp soak ok: 4-channel chaos run recovered, byte-identical reruns"

# --- QoS / noisy-neighbor protection ---------------------------------------------
# The fairness bench under the sanitizer: its claim checks (flat RR lets a
# bulk writer inflate a QD1 reader's p99 beyond 2x solo; WRR + pacing keeps
# it within the bound) are assertions, exit 1 on mismatch.
"$BUILD_DIR/bench/fig12_fairness" > /dev/null
echo "fig12_fairness ok: WRR + QoS fairness claim checks passed"

# WRR chaos soak: weighted arbitration + a granted IOPS budget (which arms
# the client's token-bucket pacer) with the chaos plan active, so the
# pacing x retry interaction (docs/faults.md) runs under ASan — twice,
# byte-identical.
wrr_smoke() {
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --rw randrw --qd 4 \
    --ops 2000 --seed 7 --qos-class high --qos-iops 50000 \
    --faults "$CHAOS_PLAN" --json "$1" > /dev/null
}
WRR_A="$BUILD_DIR/wrr_a.json"
WRR_B="$BUILD_DIR/wrr_b.json"
wrr_smoke "$WRR_A"
wrr_smoke "$WRR_B"
cmp "$WRR_A" "$WRR_B"
grep -q '"qos_class":"high"' "$WRR_A"
grep -q '"nvmeshare.engine.client.qos.deferred_cmds":[1-9]' "$WRR_A"
echo "wrr soak ok: paced chaos run recovered, byte-identical reruns"

# --- tenant multiplexing + namespace sharding ------------------------------------
# The tenant bench under the sanitizer: its claim checks (155 tenants over
# 31 shared queue pairs x 4 sharded controllers, aggregate IOPS scaling,
# per-tenant p99 isolation, the noisy tenant pinned at its QoS grant, mux
# counter balance) are assertions, exit 1 on mismatch. Twice with --json,
# byte-identical: DRR rounds, QoS stalls, and CID-window backpressure for
# hundreds of tenant coroutines are part of the deterministic instruction
# stream. (The multi-tenant chaos soak runs in the ctest soak tier above:
# Stress.TenantMuxChaos*.)
tenants_smoke() {
  "$BUILD_DIR/bench/fig13_tenants" --json "$1" > /dev/null
}
TENANTS_A="$BUILD_DIR/tenants_a.json"
TENANTS_B="$BUILD_DIR/tenants_b.json"
tenants_smoke "$TENANTS_A"
tenants_smoke "$TENANTS_B"
cmp "$TENANTS_A" "$TENANTS_B"
grep -q '"tenants":"155"' "$TENANTS_A"
grep -q '"nvmeshare.mux.completed_cmds":[1-9]' "$TENANTS_A"
grep -q '"nvmeshare.mux.shard_sub_requests":[1-9]' "$TENANTS_A"
grep -q '"nvmeshare.manager.shares_granted":[1-9]' "$TENANTS_A"
echo "fig13_tenants ok: tenant multiplexing claim checks passed, byte-identical reruns"

# --- manager failover -----------------------------------------------------------
# Hot-standby takeover under ASan (docs/MODEL.md §10): kill the active
# manager mid-run while a verified multi-channel workload is in flight and a
# posted-write delay storm jitters the client host. The standby must claim
# the next epoch and take over with ZERO I/O errors (nvsh_fio exits 1 on
# any error or verify failure — no tolerance here), and the takeover count
# must land in the JSON config. Twice, byte-identical: takeover is part of
# the deterministic instruction stream, not an escape from it.
TAKEOVER_PLAN="seed=23;host_crash:host=0,at=3ms;delay_posted_write:dst=1,extra=20us,prob=0.02,from=2ms,until=9ms"
takeover_smoke() {
  "$BUILD_DIR/tools/nvsh_fio" --scenario ours-remote --rw randrw --qd 4 \
    --channels 2 --runtime-ms 10 --seed 7 --region-blocks 4096 --verify \
    --standbys 1 --faults "$TAKEOVER_PLAN" --json "$1" > /dev/null
}
TAKEOVER_A="$BUILD_DIR/takeover_a.json"
TAKEOVER_B="$BUILD_DIR/takeover_b.json"
takeover_smoke "$TAKEOVER_A"
takeover_smoke "$TAKEOVER_B"
cmp "$TAKEOVER_A" "$TAKEOVER_B"
grep -q '"standbys":"1"' "$TAKEOVER_A"
grep -q '"takeovers":"1"' "$TAKEOVER_A"
grep -q '"nvmeshare.manager.takeovers":1' "$TAKEOVER_A"
grep -q '"nvmeshare.fault.host_crashes":1' "$TAKEOVER_A"
echo "takeover soak ok: standby took over mid-run, zero errors, byte-identical reruns"

# --- event-core perf harness ----------------------------------------------------
# nvsh_perf under the sanitizer: exercises the calendar queue (including the
# overflow refill), the event-node arena, and the IoEngine pending-command
# arena with small counts. The numbers are meaningless under ASan; the point
# is that the allocator-free hot paths are sanitizer-clean and the JSON
# document stays well-formed. Determinism of the *simulated* side is checked
# by comparing sim fields across two runs (wall-clock fields differ by
# construction, so no byte compare here).
perf_smoke() {
  "$BUILD_DIR/bench/nvsh_perf" --events 50000 --ops 2000 --stack-ops 500 \
    --seed 7 --json "$1" > /dev/null
}
PERF_A="$BUILD_DIR/perf_a.json"
PERF_B="$BUILD_DIR/perf_b.json"
perf_smoke "$PERF_A"
perf_smoke "$PERF_B"
if command -v python3 > /dev/null 2>&1; then
  python3 - "$PERF_A" "$PERF_B" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
for mode in ("engine", "io", "stack"):
    ra, rb = a["results"][mode], b["results"][mode]
    for key in ("items", "sim_events", "sim_elapsed_ns"):
        assert ra[key] == rb[key], f"{mode}.{key}: {ra[key]} != {rb[key]}"
    assert ra["events_per_sec"] > 0 and ra["cycles_per_item"] > 0
print("perf smoke ok: simulated metrics identical across same-seed runs")
EOF
else
  grep -q '"bench":"nvsh_perf"' "$PERF_A"
  echo "perf smoke ok (python3 unavailable; key check only)"
fi
echo "ci_asan: all green"
