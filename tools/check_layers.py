#!/usr/bin/env python3
"""Check the module layering of src/, and that src/ grows no new singleton.

Every `#include "module/..."` in src/<module>/ names another module. This
fails when the module's `target_link_libraries` line (src/<module>/
CMakeLists.txt) does not declare that module's library directly, or when the
module graph has a cycle, and prints each offending edge or the cycle.

It also fails on a function that returns a reference to a non-const
function-local `static` (the `global()` / `stats()` singleton shape: state
shared by every simulation in the process) unless SINGLETONS lists it with
the reason it stays.

Usage: tools/check_layers.py [SRC_DIR]   (default: src next to this script)
"""
import pathlib
import re
import sys

# Process-global singletons still in src/, and why each stays for now.
SINGLETONS = {
    "obs::Registry::global": "perfbench reads the metrics registry",
    "obs::Tracer::global": "perfbench reads the span tracer",
    "integrity::stats": "the next one to move into the simulation (ROADMAP item 4)",
    "log::flight_ring": "log state is process-wide until the log time provider moves",
}

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


# `T& name(...) [const] [noexcept] {`: a function returning a reference.
REF_FUNCTION = re.compile(r"&\s*([A-Za-z_][\w:]*)\s*\([^;{}()]*\)\s*(?:const\s*)?(?:noexcept\s*)?\{")
LOCAL_STATIC = re.compile(r"^\s*static\s+(?!const\b|constexpr\b)[^;=()]*?\b(\w+)\s*[;({=]", re.MULTILINE)
NAMESPACE = re.compile(r"^namespace\s+nvmeshare::([\w:]+)\s*\{", re.MULTILINE)


def singletons(src):
    """Qualified name -> file of every function returning a function-local static."""
    found = {}
    for path in sorted(src.glob("*/*.[ch]pp")):
        text = path.read_text()
        for match in REF_FUNCTION.finditer(text):
            depth, end = 1, match.end()
            while depth and end < len(text):
                depth += {"{": 1, "}": -1}.get(text[end], 0)
                end += 1
            body = text[match.end():end]
            if not any(re.search(rf"\breturn\s+{var}\s*;", body)
                       for var in LOCAL_STATIC.findall(body)):
                continue
            spaces = NAMESPACE.findall(text, 0, match.start())
            scope = spaces[-1] + "::" if spaces else ""
            found[scope + match.group(1)] = path.relative_to(src.parent)
    return found


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
    found = singletons(src)
    for name, path in sorted(found.items()):
        if name not in SINGLETONS:
            print(f"{path}: {name}() returns a function-local static, a process-global "
                  "singleton; give the state an owner in the simulation")
            bad += 1
    for name in sorted(SINGLETONS.keys() - found.keys()):
        print(f"check_layers.py: SINGLETONS lists {name}, which src/ no longer defines")
        bad += 1
    if bad:
        return 1
    print(f"check_layers: {len(links)} modules, {len(edges)} include edges, all declared, "
          f"no cycle; {len(found)} allowlisted singletons")
    return 0


if __name__ == "__main__":
    sys.exit(main())
