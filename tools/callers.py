"""List the definitions of src/chainwalk that nothing outside the unit tests
uses.

A definition is a top-level function, class or assigned name of a module in
src/chainwalk, or a method, property or annotated field of such a class
(module.Class.name).  It counts as used when its name is read anywhere in
src/, tools/, perfbench/ or tests/test_acceptance.py, outside its own
definition, and what counts as a read depends on the definition.  A
top-level definition counts any read of its name, a plain name or an
attribute.  A field, a property, a classmethod or any other decorated method
counts only its name read or written as an attribute (x.name), so a local
variable or a keyword argument of that name is not a use.  A plain method,
one with no decorator, counts only where its name is called, so a method
that shares its name with an attribute read elsewhere (`out.preimages`) is
still listed.  Imports are not uses, so an imported function that no code
calls is listed.  Names are matched without their module or class, so a
name defined in two places counts as used by a read of either: every
fn.value(x) of a FunctionTable hid RestrictedFunction.value, which only unit
tests called.  A definition read only through getattr, vars(), a string or a
caller outside the scope is not seen.
Dunder methods are not scanned: len(), `in` and operators read them without
naming them.  A listed name that tests/test_acceptance.py imports is marked,
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
    "statevector.states_close": "the phase-blind state comparison of the extraction tests",
    # methods, properties and fields that only the unit tests, kept
    # definitions or callers outside the scope read
    "extraction.FamilyIndex.axis": (
        "the uniform axis that hop flips against, cached per index; the axis of"
        " the vector references in test_extraction.py and test_levels.py"
    ),
    "cli._Parser.error": (
        "argparse.ArgumentParser calls it on a usage error; the override exits 1"
    ),
    "johnson.WalkSpectrum.eigenphases": (
        "the measured spectrum that test_johnson.py's"
        " test_walk_spectrum_matches_dense_reference checks against a dense reference"
    ),
    "chain.CostLedger.predicted_total": (
        "every report writes it, through vars() of the ledger in report_json"
    ),
}


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def is_method(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def attribute_names(node: ast.AST) -> set[str]:
    """The names read or written as an attribute: name of each x.name."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def read_names(node: ast.AST) -> set[str]:
    """The plain names loaded and the attribute names."""
    return attribute_names(node) | {
        sub.id for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def called_names(node: ast.AST) -> set[str]:
    """The names called: f of each f(...) and x.f(...)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                names.add(sub.func.id)
            elif isinstance(sub.func, ast.Attribute):
                names.add(sub.func.attr)
    return names


# how each kind of definition counts a use: a top-level definition any read
# of its name, a field, property or decorated method an attribute, a plain
# method a call
USES = {"read": read_names, "attribute": attribute_names, "call": called_names}


def uses(nodes: list[ast.AST], own: set[str]) -> dict[str, set[str]]:
    """The names `nodes` use, by kind of use, less their own names."""
    return {kind: set().union(*map(find, nodes)) - own for kind, find in USES.items()}


def main() -> int:
    # (name, lines, kind of use that counts) of each definition, and the
    # names each top-level statement and each method of the scope uses, with
    # the definitions it lies in: a method lies in its class too
    definitions: dict[str, tuple[str, int, str]] = {}
    reads: list[tuple[tuple[str, ...], dict[str, set[str]]]] = []
    for path in SCOPE:
        tree = ast.parse(path.read_text(), filename=str(path))
        in_package = path.parent == PACKAGE
        for node in tree.body:
            names = defined_names(node)
            owners = tuple(f"{path.stem}.{name}" for name in names) if in_package else ()
            for qualified, name in zip(owners, names):
                definitions[qualified] = (name, node.end_lineno - node.lineno + 1, "read")
            methods = []
            if in_package and isinstance(node, ast.ClassDef):
                methods = [sub for sub in node.body if is_method(sub)]
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        qualified = f"{owners[0]}.{sub.target.id}"
                        lines = sub.end_lineno - sub.lineno + 1
                        definitions[qualified] = (sub.target.id, lines, "attribute")
            for method in methods:
                qualified = f"{owners[0]}.{method.name}"
                lines = method.end_lineno - method.lineno + 1
                kind = "attribute" if method.decorator_list else "call"
                definitions[qualified] = (method.name, lines, kind)
                reads.append(((*owners, qualified), uses([method], {method.name})))
            rest = [sub for sub in ast.iter_child_nodes(node) if sub not in methods]
            reads.append((owners, uses(rest, set(names))))

    acceptance_imports = {
        alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }

    def describe(qualified: str) -> str:
        name, lines, _ = definitions[qualified]
        mark = ", imported by the acceptance tests" if name in acceptance_imports else ""
        return f"  {qualified} ({lines} lines{mark})"

    dead: set[str] = set()
    while True:
        live = [named for owners, named in reads if not dead.intersection(owners)]
        used = {kind: set().union(*(named[kind] for named in live)) for kind in USES}
        found = sorted(q for q, (name, _, kind) in definitions.items()
                       if q not in dead and name not in used[kind])
        if not found:
            break
        unlisted = [q for q in found if q not in KEPT]
        if unlisted:
            print("unused:" if not dead else "used only by unused or kept definitions:")
            print("\n".join(describe(q) for q in unlisted))
        dead.update(found)
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
