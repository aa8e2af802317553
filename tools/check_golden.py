#!/usr/bin/env python3
"""The golden check: rerun every same-seed cell and compare with the corpus.

Runs tools/same_seed_docs.sh BUILD_DIR OUT_DIR, then compares OUT_DIR with
the checked-in GOLDEN_DIR (tests/golden). Each difference is printed as the
changed JSON path with its old and new values, a changed exit code, a changed
stdout line, or a missing or extra file. Then checks CHECKS, what each cell
is there to show, on the new documents.

After a deliberate change to a modeled number, regenerate the corpus with
`tools/same_seed_docs.sh BUILD_DIR tests/golden` and commit the diff.

Usage: tools/check_golden.py BUILD_DIR GOLDEN_DIR OUT_DIR
"""
import json
import operator
import pathlib
import subprocess
import sys

# (cell, key, op, value). The key is "exit" (the cell's exit code), a counter
# name ("nvmeshare.*"), or a dotted path into the cell's document; a list or
# object compares by its length.
CHECKS = [
    ("asan_smoke", "exit", "==", 0),
    ("asan_smoke", "boxplots", ">=", 1),
    ("asan_smoke", "metrics.counters", ">=", 1),
    ("asan_cxl", "exit", "==", 0),
    ("asan_cxl", "config.substrate", "==", "cxl"),
    ("asan_cxl_chaos", "exit", "==", 0),
    ("asan_cxl_chaos", "nvmeshare.fault.posted_drops", ">=", 1),
    ("asan_cxl_chaos", "nvmeshare.fault.stale_reads", ">=", 1),
    ("asan_cxl_chaos", "nvmeshare.fault.link_downs", ">=", 1),
    # A flip that lands on a CQE status surfaces as an I/O error (exit 1).
    ("asan_cxl_damage", "exit", "<=", 1),
    ("asan_cxl_damage", "nvmeshare.fault.bit_flips", ">=", 1),
    ("asan_cxl_damage", "nvmeshare.fault.torn_writes", ">=", 1),
    ("asan_chaos", "exit", "==", 0),
    ("asan_chaos", "nvmeshare.fault.link_downs", "==", 1),
    ("asan_fatal", "exit", "==", 0),
    ("asan_fatal", "nvmeshare.manager.ctrl_resets", ">=", 1),
    ("asan_iommu", "exit", "==", 0),
    ("asan_iommu", "nvmeshare.client.iommu_maps", "==", 2000),
    ("asan_iommu", "nvmeshare.client.cmd_retries", ">=", 1),
    ("asan_nvmeof", "exit", "==", 0),
    ("asan_nvmeof", "nvmeshare.nvmeof_initiator.capsule_retries", ">=", 1),
    ("asan_local", "exit", "==", 0),
    ("asan_corrupt", "exit", "<=", 1),
    ("asan_corrupt", "nvmeshare.fault.bit_flips", "==", 6),
    ("asan_corrupt", "nvmeshare.integrity.pi_generated", ">=", 1),
    ("asan_corrupt", "nvmeshare.integrity.pi_verified", ">=", 1),
    ("asan_corrupt", "nvmeshare.integrity.blocks_scrubbed", ">=", 1),
    ("asan_multiqp", "exit", "==", 0),
    ("asan_multiqp", "config.channels", "==", "4"),
    ("asan_multiqp", "nvmeshare.engine.client.qp3.doorbell_writes", ">=", 1),
    ("asan_wrr", "exit", "==", 0),
    ("asan_wrr", "config.qos_class", "==", "high"),
    ("asan_wrr", "nvmeshare.engine.client.qos.deferred_cmds", ">=", 1),
    ("asan_takeover", "exit", "==", 0),
    ("asan_takeover", "config.standbys", "==", "1"),
    ("asan_takeover", "config.takeovers", "==", "1"),
    ("asan_takeover", "nvmeshare.manager.takeovers", "==", 1),
    ("asan_takeover", "nvmeshare.fault.host_crashes", "==", 1),
    ("deep_randread", "exit", "==", 0),
    ("fig10_latency", "exit", "==", 0),
    ("fig11_scaling", "exit", "==", 0),
    ("latency_breakdown", "exit", "==", 0),
    ("fig13_tenants", "exit", "==", 0),
    ("fig13_tenants", "config.tenants", "==", "155"),
    ("fig13_tenants", "nvmeshare.mux.completed_cmds", ">=", 1),
    ("fig13_tenants", "nvmeshare.mux.shard_sub_requests", ">=", 1),
    ("fig13_tenants", "nvmeshare.manager.shares_granted", ">=", 1),
]
OPS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le}


def flatten(value, path, out):
    """JSON path -> leaf value. A list of objects with a "label" is indexed by label."""
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        labeled = all(isinstance(i, dict) and "label" in i for i in value)
        for n, item in enumerate(value):
            flatten(item, f"{path}[{item['label'] if labeled else n}]", out)
    else:
        out[path] = value
    return out


def diff_json(name, old, new):
    try:
        a = flatten(json.loads(old), "", {})
        b = flatten(json.loads(new), "", {})
    except json.JSONDecodeError:
        return diff_lines(name, old, new)
    lines = []
    for path in list(a) + [p for p in b if p not in a]:
        if path not in b:
            lines.append(f"{name}  {path}: {a[path]!r} -> (gone)")
        elif path not in a:
            lines.append(f"{name}  {path}: (new) -> {b[path]!r}")
        elif a[path] != b[path] or type(a[path]) is not type(b[path]):
            lines.append(f"{name}  {path}: {a[path]!r} -> {b[path]!r}")
    return lines or [f"{name}  same values, different bytes (formatting or member order)"]


def diff_lines(name, old, new):
    a, b = old.splitlines(), new.splitlines()
    lines = []
    for n in range(max(len(a), len(b))):
        o = a[n] if n < len(a) else "(none)"
        w = b[n] if n < len(b) else "(none)"
        if o != w:
            lines.append(f"{name}  line {n + 1}: {o!r} -> {w!r}")
    return lines


def compare(golden, out):
    old = {p.name for p in golden.iterdir() if p.is_file()}
    new = {p.name for p in out.iterdir() if p.is_file()}
    lines = [f"{name}  missing: the run wrote no such file" for name in sorted(old - new)]
    lines += [f"{name}  new: not in the corpus" for name in sorted(new - old)]
    for name in sorted(old & new):
        a = (golden / name).read_text()
        b = (out / name).read_text()
        if a == b:
            continue
        if name.endswith(".json"):
            lines += diff_json(name, a, b)
        elif name.endswith(".exit"):
            lines.append(f"{name[:-5]}  exit {a.strip()} -> {b.strip()}")
        else:
            lines += diff_lines(name, a, b)
    return lines


def lookup(out, cell, key):
    if key == "exit":
        return int((out / f"{cell}.exit").read_text())
    doc = json.loads((out / f"{cell}.json").read_text())
    if key.startswith("nvmeshare."):
        return doc["metrics"]["counters"][key]
    for part in key.split("."):
        doc = doc[part]
    return len(doc) if isinstance(doc, (list, dict)) else doc


def check(out):
    lines = []
    for cell, key, op, want in CHECKS:
        try:
            got = lookup(out, cell, key)
        except (OSError, KeyError, ValueError) as e:
            lines.append(f"{cell}  {key}: unreadable ({e!r}), want {op} {want!r}")
            continue
        if not OPS[op](got, want):
            lines.append(f"{cell}  {key} = {got!r}, want {op} {want!r}")
    return lines


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    build, golden, out = (pathlib.Path(a) for a in sys.argv[1:])
    script = pathlib.Path(__file__).resolve().parent / "same_seed_docs.sh"
    subprocess.run([str(script), str(build), str(out)], check=True)
    changed = compare(golden, out)
    failed = check(out)
    for line in changed:
        print(f"changed: {line}")
    for line in failed:
        print(f"check failed: {line}")
    if changed:
        print(f"{out} differs from {golden}. After a deliberate change: "
              f"tools/same_seed_docs.sh BUILD_DIR tests/golden")
    if changed or failed:
        return 1
    print(f"golden: {len(list(golden.iterdir()))} files identical, {len(CHECKS)} checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
