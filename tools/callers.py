"""List the top-level definitions of src/chainwalk that nothing outside the unit
tests uses.

A definition is a top-level function, class or assigned name of a module in
src/chainwalk.  It counts as used when its name is read (a plain name or an
attribute) anywhere in src/, tools/, perfbench/ or tests/test_acceptance.py,
outside its own definition.  Imports are not uses, so an imported function
that no code calls is listed.  Names are matched
without their module, so a name defined in two modules counts as used by a
read of either.  A listed name that tests/test_acceptance.py imports is marked,
since that file's imports must keep resolving.

A definition in KEPT stays on purpose, and the table gives the reason; the
scan prints it under its own heading.  Every other definition that nothing
uses is listed under "unused", and those read only from definitions already
found, repeated until no more are found, under "used only by unused or kept
definitions": deleting the first would leave them unused too.  The scan exits
1 when it lists anything but kept definitions, or when a KEPT row is stale:
its definition is gone or now used, and the row is printed.  Run it from any
directory:

    python3 tools/callers.py

It reads the sources with ast and imports nothing from them.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chainwalk"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
SCOPE = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ACCEPTANCE,
]

# definitions that stay although nothing outside the unit tests reads them
KEPT = {
    "__init__.__version__": "the package version, read as chainwalk.__version__",
    "extraction.correct_interval": (
        "perfbench/tracing.py's TRACED table wraps it by name; the vector interval"
        " repair that test_levels.py's dummy-path and class-move differential tests"
        " compare levels.repair against"
    ),
    "extraction.hop": (
        "correct_interval's move; the vector hop of test_levels.py's walk-step"
        " differential test"
    ),
    "extraction.parse_token": "the token decoder of the padded-register differential test",
    "johnson.VertexData": "vertex_data's record",
    "johnson.neighbors": "the explicit Johnson graph the edge-list tests compare against",
    "johnson.vertex_data": "the per-vertex reference FamilyIndex's tables are tested against",
    "johnson.vertices": "the explicit Johnson graph the edge-list tests compare against",
    "law.occupancy_law": (
        "the exact law of the sampled collision counts, which test_stats.py's"
        " chi-square and exact-mean tests compare stats against"
    ),
    "statevector.states_close": "the phase-blind state comparison of the extraction tests",
    "statevector.uniform_state": "the reference state the amplification and extraction tests build",
    "stats.multicollision_size_bound": "the closed form behind criterion 5's 560/65536",
}


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def read_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def main() -> int:
    # (module.name, lines) of each definition, and the names each top-level
    # statement of the scope reads, keyed by the definition it is (or None)
    definitions: dict[str, tuple[str, int]] = {}
    reads: list[tuple[str | None, set[str]]] = []
    for path in SCOPE:
        tree = ast.parse(path.read_text(), filename=str(path))
        in_package = path.parent == PACKAGE
        for node in tree.body:
            names = defined_names(node)
            qualified = None
            if in_package and names:
                lines = node.end_lineno - node.lineno + 1
                for name in names:
                    qualified = f"{path.stem}.{name}"
                    definitions[qualified] = (name, lines)
            reads.append((qualified, read_names(node) - set(names)))

    acceptance_imports = {
        alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }

    def describe(qualified: str) -> str:
        name, lines = definitions[qualified]
        mark = ", imported by the acceptance tests" if name in acceptance_imports else ""
        return f"  {qualified} ({lines} lines{mark})"

    dead: list[str] = []
    while True:
        used = set().union(*(names for owner, names in reads if owner not in dead))
        found = sorted(q for q, (name, _) in definitions.items()
                       if q not in dead and name not in used)
        if not found:
            break
        unlisted = [q for q in found if q not in KEPT]
        if unlisted:
            print("unused:" if not dead else "used only by unused or kept definitions:")
            print("\n".join(describe(q) for q in unlisted))
        dead += found
    kept = [q for q in dead if q in KEPT]
    print("kept:")
    for qualified in sorted(kept):
        print(f"{describe(qualified)}: {KEPT[qualified]}")
    total = sum(definitions[q][1] for q in dead)
    print(f"{len(dead)} definitions, {total} lines, {len(kept)} of them kept")
    stale = sorted(set(KEPT) - set(kept))
    if stale:
        print("stale KEPT rows:")
        for qualified in stale:
            status = "now used" if qualified in definitions else "gone"
            print(f"  {qualified} ({status}): {KEPT[qualified]}")
    return 0 if len(kept) == len(dead) and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
