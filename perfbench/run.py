#!/usr/bin/env python3
"""Build and run the repository benchmark; perfbench/README.md explains it.

From the repository root:

    python3 perfbench/run.py --workload paper_qd1 --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test --seconds 2

The first call builds the simulator libraries in src/ and the benchmark
binary with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls rebuild incrementally. Build output goes
to standard error. Each run is one single-threaded process, and the last line
of standard output is its result JSON.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_qd1", "deep_randrw", "bulk_seq", "tenants")
CALIBRATION_SEED = 2024
# A seed never used while the model or this benchmark was tuned.
HELD_OUT_SEED = 918273


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the simulator sources (src/) are not beside perfbench/")
    out = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench_sim", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_sim")


def command(binary, workload, seed, seconds, trace):
    trace_dir = os.path.join(build_root(), "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--trace-dir", trace_dir]


def run_captured(binary, workload, seed, seconds, trace):
    """One run; returns (result JSON or None, registry digest or None)."""
    proc = subprocess.run(command(binary, workload, seed, seconds, trace),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("registry_digest ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return result, digest


def self_test(binary, seconds):
    """Determinism, tracing and link-ceiling checks; prints the Fig. 10 error
    at the calibration seed and at the held-out seed."""
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    traced = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            (r1, d1), (r2, d2) = [run_captured(binary, workload, CALIBRATION_SEED, seconds, trace)
                                  for _ in range(2)]
            tag = f"{workload} --trace {trace}"
            expect(bool(r1 and r2 and r1["correct"] and r2["correct"]),
                   f"{tag}: both runs correct (data check, traced model.* == untraced)")
            if not (r1 and r2):
                continue
            m1, m2 = r1["metrics"], r2["metrics"]
            if trace == 0:
                exact = ["events_per_io", "allocs_per_io", "ceiling_ratio", "paper_delta_err_us"]
            else:
                exact = [k for k in m1 if k.startswith("model.")] + ["ceiling_excess"]
                traced[workload] = m1
                expect(m1["gen.share"]["value"] < 0.05,
                       f"{tag}: gen.share {m1['gen.share']['value']:.4f} < 0.05")
            differ = [k for k in exact if m1[k]["value"] != m2[k]["value"]]
            expect(not differ, f"{tag}: same-seed runs repeat {len(exact)} exact metrics"
                   + (f" (differ: {', '.join(differ)})" if differ else ""))
            expect(d1 is not None and d1 == d2, f"{tag}: registry digest {d1} repeats")
    if "bulk_seq" in traced:
        excess = traced["bulk_seq"]["ceiling_excess"]["value"]
        expect(excess > 0, f"bulk_seq: ceiling_excess {excess:.3f} > 0 (write path beats the link)")
    if "paper_qd1" in traced:
        excess = traced["paper_qd1"]["ceiling_excess"]["value"]
        expect(excess == 0, f"paper_qd1: ceiling_excess {excess} == 0")
    for seed in (CALIBRATION_SEED, HELD_OUT_SEED):
        result, _ = run_captured(binary, "paper_qd1", seed, seconds, 0)
        value = result["metrics"]["paper_delta_err_us"]["value"] if result else float("nan")
        print(f"paper_delta_err_us at seed {seed}: {value:.4f} us", flush=True)
    print("self-test: " + ("ok" if not failures else f"{len(failures)} check(s) failed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=CALIBRATION_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the determinism, tracing and link-ceiling checks")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary, args.seconds)
    return subprocess.run(command(binary, args.workload, args.seed, args.seconds,
                                  args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
