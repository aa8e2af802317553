#!/usr/bin/env bash
# CI: performance gate for the event core and submission path.
#
# Builds Release, runs bench/nvsh_perf with --json, writes the fresh document
# to BENCH_perf.json in the build dir, and compares it per mode (engine, io,
# stack) against the checked-in baseline (BENCH_perf.json at the repo root):
#
#   - sim_events / items (simulator events per work item) must match the
#     baseline exactly. It does not depend on the machine, so any change is
#     a real change in the work the simulator does per I/O: either a bug or
#     an intended change that must refresh the baseline.
#   - wall_iops (work items per wall-clock second) must not fall more than
#     the tolerance (15%) below the baseline. It is machine-dependent,
#     hence the generous tolerance.
#
# Events/sec is reported but not gated: the ratio punishes removing work
# (a change that saves events per I/O looks like a slowdown).
#
# Refresh the baseline, by copying the build-dir document over the repo-root
# one, whenever the harness, the events per item, or the hardware class
# changes, not on every run. The modeled metrics (sim IOPS, latencies) are
# covered by the determinism checks in ci_asan.sh instead.
#
# Usage: tools/ci_perf.sh [build-dir]   (default: build-perf)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-perf}"
BASELINE="BENCH_perf.json"
TOLERANCE="0.15"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)"

FRESH="$BUILD_DIR/BENCH_perf.json"
"$BUILD_DIR/bench/nvsh_perf" --json "$FRESH"

if [ ! -f "$BASELINE" ]; then
  echo "ci_perf: no baseline at $BASELINE — copying fresh run as the baseline" >&2
  cp "$FRESH" "$BASELINE"
  exit 0
fi

if ! command -v python3 > /dev/null 2>&1; then
  echo "ci_perf: python3 unavailable; wrote $FRESH, skipping regression gate" >&2
  exit 0
fi

python3 - "$BASELINE" "$FRESH" "$TOLERANCE" <<'EOF'
import json, sys

base = json.load(open(sys.argv[1]))
fresh = json.load(open(sys.argv[2]))
tolerance = float(sys.argv[3])

failed = False
for mode in ("engine", "io", "stack"):
    b = base["results"][mode]
    f = fresh["results"][mode]
    # Exact: compare the integer ratios by cross-multiplying.
    same_events = f["sim_events"] * b["items"] == b["sim_events"] * f["items"]
    ratio = f["wall_iops"] / b["wall_iops"] if b["wall_iops"] else float("inf")
    verdict = "ok"
    if not same_events:
        verdict = "EVENTS/ITEM CHANGED"
    elif ratio < 1.0 - tolerance:
        verdict = "REGRESSION"
    print(f"{mode:>6}: events/item baseline {b['sim_events'] / b['items']:.4f} "
          f"fresh {f['sim_events'] / f['items']:.4f}  "
          f"wall IOPS baseline {b['wall_iops'] / 1e6:8.3f}M fresh {f['wall_iops'] / 1e6:8.3f}M "
          f"({ratio:.0%} of baseline)  [{f['events_per_sec'] / 1e6:.2f}M ev/s] {verdict}")
    if verdict != "ok":
        failed = True

if failed:
    print(f"ci_perf: events/item differ from the baseline or wall IOPS fell more than "
          f"{tolerance:.0%} below it", file=sys.stderr)
    sys.exit(1)
print("ci_perf: all modes within tolerance")
EOF
