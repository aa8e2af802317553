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
#   - allocs / items (global operator new calls per work item, counted by a
#     hook in nvsh_perf) must match the baseline exactly, for the same
#     reason: the steady-state I/O path is allocation-free, and a change
#     that adds a heap allocation per I/O shows up here.
#   - ticks_elided / items (poll rounds the engine skipped per work item)
#     must match the baseline exactly: the skipped rounds are fixed by the
#     simulated schedule, so a change here means a poller now runs rounds
#     it used to skip, or skips rounds it used to run.
#   - wall_iops (work items per wall-clock second) must not fall more than
#     the tolerance (15%) below the baseline. It is machine-dependent,
#     hence the generous tolerance.
#
# Exit status: 0 all gates pass; 1 an exact count (events/item,
# allocs/item or ticks_elided/item) differs or the run failed; 3 only wall IOPS fell below the
# tolerance. CI blocks on everything but 3, which it reports as a warning:
# shared runners are too noisy to gate wall-clock speed.
#
# Events/sec is reported but not gated: the ratio punishes removing work
# (a change that saves events per I/O looks like a slowdown).
#
# Refresh the baseline, by copying the build-dir document over the repo-root
# one, whenever the harness, the events, allocations or elided ticks per
# item, or the hardware class changes, not on every run. The modeled metrics (sim IOPS, latencies) are
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

count_changed = False
slower = False
for mode in ("engine", "io", "stack"):
    b = base["results"][mode]
    f = fresh["results"][mode]
    # Exact: compare the integer ratios by cross-multiplying. A baseline
    # without allocation or elided-tick counts predates those gates and must
    # be refreshed.
    same = lambda key: key in b and f[key] * b["items"] == b[key] * f["items"]
    same_events = same("sim_events")
    same_allocs = same("allocs")
    same_elided = same("ticks_elided")
    ratio = f["wall_iops"] / b["wall_iops"] if b["wall_iops"] else float("inf")
    verdict = "ok"
    if not same_events:
        verdict = "EVENTS/ITEM CHANGED"
    elif not same_allocs:
        verdict = "ALLOCS/ITEM CHANGED"
    elif not same_elided:
        verdict = "ELIDED/ITEM CHANGED"
    elif ratio < 1.0 - tolerance:
        verdict = "REGRESSION"
    per_item = lambda doc, key: f"{doc[key] / doc['items']:.4f}" if key in doc else "none"
    print(f"{mode:>6}: events/item baseline {per_item(b, 'sim_events')} "
          f"fresh {per_item(f, 'sim_events')}  "
          f"allocs/item baseline {per_item(b, 'allocs')} fresh {per_item(f, 'allocs')}  "
          f"elided/item baseline {per_item(b, 'ticks_elided')} "
          f"fresh {per_item(f, 'ticks_elided')}  "
          f"wall IOPS baseline {b['wall_iops'] / 1e6:8.3f}M fresh {f['wall_iops'] / 1e6:8.3f}M "
          f"({ratio:.0%} of baseline)  [{f['events_per_sec'] / 1e6:.2f}M ev/s] {verdict}")
    if verdict == "REGRESSION":
        slower = True
    elif verdict != "ok":
        count_changed = True

if count_changed:
    print("ci_perf: events/item, allocs/item or ticks_elided/item differ from the baseline",
          file=sys.stderr)
    sys.exit(1)
if slower:
    print(f"ci_perf: wall IOPS fell more than {tolerance:.0%} below the baseline",
          file=sys.stderr)
    sys.exit(3)
print("ci_perf: all modes within tolerance")
EOF
