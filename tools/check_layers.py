#!/usr/bin/env python3
"""Check the module layering of src/.

Every `#include "module/..."` in src/<module>/ names another module. This
fails when the module's `target_link_libraries` line (src/<module>/
CMakeLists.txt) does not declare that module's library directly, or when the
module graph has a cycle, and prints each offending edge or the cycle.

Usage: tools/check_layers.py [SRC_DIR]   (default: src next to this script)
"""
import pathlib
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([a-z_]+)/[^"]+"', re.MULTILINE)
LINKS = re.compile(r"target_link_libraries\(\s*nvs_(\w+)\s+(?:PUBLIC|PRIVATE|INTERFACE)?([^)]*)\)")


def declared_links(src):
    """module -> set of modules its library links directly."""
    links = {}
    for cmake in sorted(src.glob("*/CMakeLists.txt")):
        module = cmake.parent.name
        links[module] = set()
        for lib, deps in LINKS.findall(cmake.read_text()):
            if lib != module:
                sys.exit(f"{cmake}: links nvs_{lib}, expected nvs_{module}")
            links[module] |= {d[len("nvs_"):] for d in deps.split() if d.startswith("nvs_")}
    return links


def include_edges(src, modules):
    """(module, used module) -> first file that includes it."""
    edges = {}
    for path in sorted(src.glob("*/*.[ch]pp")):
        module = path.parent.name
        for used in INCLUDE.findall(path.read_text()):
            if used != module and used in modules:
                edges.setdefault((module, used), path.relative_to(src.parent))
    return edges


def find_cycle(graph):
    """One cycle of `graph` (module -> set of modules) as a list, or None."""
    state = {}

    def visit(node, stack):
        state[node] = "open"
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, stack)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node, [])
            if cycle:
                return cycle
    return None


def main():
    src = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent / "src")
    links = declared_links(src)
    edges = include_edges(src, links)
    bad = 0
    for (module, used), path in sorted(edges.items()):
        if used not in links[module]:
            print(f"{path}: includes {used}/ but nvs_{module} does not link nvs_{used}")
            bad += 1
    graph = {m: set(deps) for m, deps in links.items()}
    for module, used in edges:
        graph[module].add(used)
    cycle = find_cycle(graph)
    if cycle:
        print("cycle: " + " -> ".join(cycle))
        bad += 1
    if bad:
        return 1
    print(f"check_layers: {len(links)} modules, {len(edges)} include edges, all declared, no cycle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
