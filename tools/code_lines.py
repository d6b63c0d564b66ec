"""Print the code lines of each module of src/chainwalk, and their total.

A code line is a line that holds a token of Python code: a line that only a
comment, a docstring or blank space fills does not count, and a line that
a string spanning several lines covers counts once for each line it
covers.  A docstring is the string literal that opens a module, a class or
a function body.  Modules are printed from the most code lines to the
fewest, ties by name.  Run it from any directory:

    python3 tools/code_lines.py

It reads the sources with tokenize and ast and imports nothing from them.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chainwalk"
# tokens that are not code: layout, comments and the end of the file
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every docstring of the module `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of the Python text `source`."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    counts = {path.stem: code_lines(path.read_text()) for path in PACKAGE.glob("*.py")}
    for name in sorted(counts, key=lambda name: (-counts[name], name)):
        print(f"{name:<12} {counts[name]:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
