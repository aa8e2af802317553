#!/usr/bin/env bash
# Write the same-seed documents of one build into a directory, one file per
# cell. This script is the one list of cells, and the one command that
# regenerates the checked-in corpus after a deliberate change:
#
#   tools/same_seed_docs.sh build tests/golden
#
# The `golden` ctest (tools/check_golden.py) runs it into the build tree and
# compares the result with tests/golden/.
#
# Cells:
#  * the sanitizer cells: a fault-free run, the fault plans (chaos, CXL chaos
#    and damage, fatal reset, bit flips under PI, takeover), the IOMMU and
#    NVMe-oF --integrity paths, the local driver, multi-queue and WRR;
#  * the two known fault artifacts of docs/faults.md (both exit 1);
#  * deep_randread: ours-remote 4 KiB random reads at QD 32 x 4 channels,
#    whose `sim` counts (engine events, elided poll ticks) are the exact
#    simulator-cost check for the deep-queue submission path;
#  * verified random trims (dataset management) on ours-remote and
#    linux-local, and 128 KiB sequential reads at QD 8 x 4 channels on
#    ours-remote and nvmeof-remote;
#  * six stacks x {randrw, seqwrite 128 KiB} on both substrates (the CXL
#    pool supports neither the IOMMU data path nor host-side SQs, so those
#    four cells record exit 1 and no document);
#  * latency_breakdown --json, fig13_tenants --json, and fig10_latency and
#    fig11_scaling, which write no document;
#  * the FabricPin and ManagerPin documents (pin_*.json), which the pin tests
#    write into their working directory.
# Each cell also keeps its stdout (<cell>.out, with OUT_DIR spelled as the
# word OUT_DIR) and its exit code (<cell>.exit), so a cell that starts
# failing shows too. Cells run in parallel, one per CPU; two runs of one
# build write identical directories.
#
# Usage: tools/same_seed_docs.sh BUILD_DIR OUT_DIR
set -uo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
BUILD_DIR="$(cd "$1" && pwd)"
OUT_DIR="$2"
FIO="$BUILD_DIR/tools/nvsh_fio"
JOBS="$(nproc 2> /dev/null || echo 2)"
mkdir -p "$OUT_DIR"
rm -f "$OUT_DIR"/*.json "$OUT_DIR"/*.out "$OUT_DIR"/*.exit

# spawn CMD...: run CMD in the background, at most JOBS at a time.
spawn() {
  while [ "$(jobs -rp | wc -l)" -ge "$JOBS" ]; do wait -n; done
  "$@" &
}

# run_cell NAME CMD...: run CMD with stdout to NAME.out and record its exit code.
run_cell() {
  local name="$1"
  shift
  local rc=0
  "$@" 2> /dev/null | sed "s|$OUT_DIR|OUT_DIR|g" > "$OUT_DIR/$name.out" || rc=$?
  echo "$rc" > "$OUT_DIR/$name.exit"
}

# cell NAME CMD...: run_cell in the background.
cell() { spawn run_cell "$@"; }

# fio NAME ARGS...: one nvsh_fio document, NAME.json.
fio() {
  local name="$1"
  shift
  cell "$name" "$FIO" "$@" --json "$OUT_DIR/$name.json"
}

# run_pins TEST: a pin test binary, run in OUT_DIR so that it writes its
# documents there. It fails while the corpus is being rewritten; a pin that
# could not write its document shows as a missing file.
run_pins() { (cd "$OUT_DIR" && "$BUILD_DIR/tests/$1" > /dev/null 2>&1) || true; }

# --- sanitizer cells -------------------------------------------------------------
CHAOS_PLAN="seed=11;drop_posted_write:src=0,dst=1,nth=40,count=2;ntb_link_down:host=1,at=2ms,for=300us;ctrl_error:nth=100"
fio asan_smoke --scenario ours-remote --rw randrw --ops 2000 --seed 7
fio asan_cxl --scenario ours-remote --substrate cxl --rw randrw --ops 2000 --seed 7 \
  --region-blocks 4096 --verify
fio asan_cxl_chaos --scenario ours-remote --substrate cxl --rw randrw --ops 2000 --seed 7 \
  --faults "seed=13;drop_posted_write:src=1,nth=40,count=2;stale_read:src=0,nth=200;ntb_link_down:host=1,at=2ms,for=300us"
fio asan_cxl_damage --scenario ours-remote --substrate cxl --rw randrw --ops 2000 --seed 7 \
  --faults "seed=13;flip_dma_bits:src=0,class=dram,nth=300,count=2;torn_dma_write:src=0,class=dram,nth=500"
fio asan_chaos --scenario ours-remote --rw randrw --ops 2000 --seed 7 --faults "$CHAOS_PLAN"
fio asan_fatal --scenario ours-remote --rw randrw --qd 4 --ops 2000 --seed 7 \
  --faults "seed=11;ctrl_error:nth=300,fatal=1"
fio asan_iommu --scenario ours-remote --data-path iommu --integrity --faults "$CHAOS_PLAN" \
  --rw randrw --qd 4 --ops 2000 --seed 7
fio asan_nvmeof --scenario nvmeof-remote --integrity --faults "seed=5;drop_capsule:nth=50,count=3" \
  --rw randrw --qd 4 --ops 2000 --seed 7
fio asan_local --scenario linux-local --verify --rw randrw --qd 4 --ops 2000 --seed 7
fio asan_corrupt --scenario ours-remote --rw randrw --qd 4 --ops 3000 --seed 7 \
  --region-blocks 4096 --verify --integrity --faults "seed=5;flip_dma_bits:src=0,dst=1,nth=2000,count=6"
fio asan_multiqp --scenario ours-remote --rw randrw --qd 4 --channels 4 --ops 2000 --seed 7 \
  --faults "$CHAOS_PLAN"
fio asan_wrr --scenario ours-remote --rw randrw --qd 4 --ops 2000 --seed 7 --qos-class high \
  --qos-iops 50000 --faults "$CHAOS_PLAN"
fio asan_takeover --scenario ours-remote --rw randrw --qd 4 --channels 2 --runtime-ms 10 \
  --seed 7 --region-blocks 4096 --verify --standbys 1 \
  --faults "seed=23;host_crash:host=0,at=3ms;delay_posted_write:dst=1,extra=20us,prob=0.02,from=2ms,until=9ms"

# --- known fault artifacts (docs/faults.md) -------------------------------------
fio artifact_fatal_4ch --scenario ours-remote --rw randrw --qd 4 --ops 2000 --seed 7 --channels 4 \
  --faults "seed=11;ctrl_error:nth=300,fatal=1"
fio artifact_nvmeof_flip --scenario nvmeof-remote --rw randrw --qd 4 --ops 2000 --seed 7 \
  --faults "seed=5;flip_dma_bits:nth=300,count=3"

# --- deep-queue simulator cost ---------------------------------------------------
fio deep_randread --scenario ours-remote --rw randread --bs 4096 --qd 32 --channels 4 \
  --ops 20000 --seed 2024

# --- trims and bulk reads --------------------------------------------------------
for stack in ours-remote linux-local; do
  fio "${stack}_randtrim" --scenario "$stack" --rw randtrim --qd 4 --ops 2000 --seed 7 --verify
done
for stack in ours-remote nvmeof-remote; do
  fio "${stack}_seqread128k" --scenario "$stack" --rw seqread --bs 131072 --qd 8 --channels 4 \
    --seed 7
done

# --- stacks x loads x substrates -----------------------------------------------
STACKS=(
  "ours-remote:--scenario ours-remote"
  "ours-remote-iommu:--scenario ours-remote --data-path iommu"
  "ours-remote-hostsq:--scenario ours-remote --sq-placement host"
  "ours-local:--scenario ours-local"
  "linux-local:--scenario linux-local"
  "nvmeof-remote:--scenario nvmeof-remote"
)
LOADS=(
  "randrw:--rw randrw"
  "seqwrite128k:--rw seqwrite --bs 131072 --qd 8 --channels 4"
)
for substrate in ntb cxl; do
  for stack in "${STACKS[@]}"; do
    for load in "${LOADS[@]}"; do
      # Word splitting of the flag strings is intended.
      # shellcheck disable=SC2086
      fio "${stack%%:*}_${load%%:*}_$substrate" ${stack#*:} ${load#*:} --substrate "$substrate" \
        --seed 7
    done
  done
done

# --- benches -------------------------------------------------------------------
cell latency_breakdown "$BUILD_DIR/bench/latency_breakdown" --json "$OUT_DIR/latency_breakdown.json"
cell fig10_latency "$BUILD_DIR/bench/fig10_latency"
cell fig11_scaling "$BUILD_DIR/bench/fig11_scaling"
cell fig13_tenants "$BUILD_DIR/bench/fig13_tenants" --json "$OUT_DIR/fig13_tenants.json"

# --- golden pins -----------------------------------------------------------------
spawn run_pins fabric_pin_test
spawn run_pins manager_pin_test

wait
echo "same_seed_docs: $(find "$OUT_DIR" -name '*.json' | wc -l) documents in $OUT_DIR"
