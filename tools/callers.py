"""List the top-level definitions of src/chainwalk that nothing outside the unit
tests uses.

A definition is a top-level function, class or assigned name of a module in
src/chainwalk.  It counts as used when its name is read (a plain name or an
attribute) anywhere in src/, tools/, perfbench/ or tests/test_acceptance.py,
outside its own definition.  Imports, re-exports and __all__ entries are not
uses, so an exported function that no code calls is listed.  Names are matched
without their module, so a name defined in two modules counts as used by a
read of either.  A listed name that tests/test_acceptance.py imports is marked,
since that file's imports must keep resolving.

The first list holds the definitions that nothing uses.  The second holds
those read only from definitions already listed, repeated until no more are
found: deleting the first list would leave them unused too.  Run it from any
directory:

    python3 tools/callers.py

It reads the sources with ast and imports nothing from them.
"""

from __future__ import annotations

import ast
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


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__all__"]
    return []


def read_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def main() -> None:
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
    dead: list[str] = []
    while True:
        used = set().union(*(names for owner, names in reads if owner not in dead))
        found = sorted(q for q, (name, _) in definitions.items()
                       if q not in dead and name not in used)
        if not found:
            break
        title = "unused" if not dead else "used only by the definitions above"
        print(f"{title}:")
        for qualified in found:
            name, lines = definitions[qualified]
            mark = ", imported by the acceptance tests" if name in acceptance_imports else ""
            print(f"  {qualified} ({lines} lines{mark})")
        dead += found
    total = sum(definitions[q][1] for q in dead)
    print(f"{len(dead)} definitions, {total} lines")


if __name__ == "__main__":
    main()
