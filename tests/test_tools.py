"""Tests for the scripts in tools/, and for the boundary of tests/reference.py."""

import ast
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
TESTS = ROOT / "tests"


def test_callers_finds_no_dead_code():
    # every top-level definition of src/chainwalk has a caller outside the
    # unit tests, or a reason in the scan's KEPT table
    scan = subprocess.run(
        [sys.executable, str(TOOLS / "callers.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert scan.returncode == 0, scan.stdout + scan.stderr


@pytest.fixture(scope="module")
def scan_tree(tmp_path_factory):
    """A copy of the scanned tree, on which the scan passes."""
    tree = tmp_path_factory.mktemp("scan")
    for part in ("src", "tools", "perfbench"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    (tree / "tests").mkdir()
    shutil.copy(TESTS / "test_acceptance.py", tree / "tests")
    scan = [sys.executable, str(tree / "tools" / "callers.py")]
    assert subprocess.run(scan, capture_output=True, timeout=60).returncode == 0
    return tree


def _scan_with(tree, *edits):
    """The scan of `tree` with each edit (module, anchor, added) putting the
    lines `added` before `anchor` in src/chainwalk/`module`; the edited
    files are restored afterwards."""
    originals = {}
    try:
        for module, anchor, added in edits:
            source = tree / "src" / "chainwalk" / module
            text = source.read_text()
            originals.setdefault(source, text)
            assert text.count(anchor) == 1
            source.write_text(text.replace(anchor, added + anchor))
        return subprocess.run([sys.executable, str(tree / "tools" / "callers.py")],
                              capture_output=True, text=True, timeout=60)
    finally:
        for source, text in originals.items():
            source.write_text(text)


def _scan_with_a_method(tree, name):
    """The scan with a plain method `name` added to levels.Levels."""
    return _scan_with(tree, ("levels.py", "    def support(self) -> int:\n",
                             f"    def {name}(self) -> int:\n        return 0\n\n"))


def test_callers_finds_an_unread_method(scan_tree):
    """With a method that nothing reads added to levels.Levels, the scan
    lists it and exits 1."""
    found = _scan_with_a_method(scan_tree, "never_read")
    assert found.returncode == 1
    assert "  levels.Levels.never_read (2 lines)" in found.stdout.splitlines()


def test_callers_counts_only_calls_of_a_plain_method(scan_tree):
    """chain.py reads `.preimages` as an attribute of an extraction outcome
    but calls nothing of that name, so a plain method Levels.preimages is
    listed as unused."""
    assert ".preimages" in (ROOT / "src" / "chainwalk" / "chain.py").read_text()
    found = _scan_with_a_method(scan_tree, "preimages")
    assert found.returncode == 1
    assert "  levels.Levels.preimages (2 lines)" in found.stdout.splitlines()


def test_callers_finds_an_unread_field(scan_tree):
    """With a field that nothing reads added to the dataclass
    amplify.FlipStats, the scan lists it and exits 1."""
    found = _scan_with(scan_tree, ("amplify.py", "    attempts: int = 0\n",
                                   "    never_read: int = 0\n"))
    assert found.returncode == 1
    assert "  amplify.FlipStats.never_read (1 lines)" in found.stdout.splitlines()


def test_callers_does_not_count_a_local_as_a_field(scan_tree):
    """A field weights of extraction.ExtractionOutcome, set by keyword in
    levels.extract_once from its local variable weights and read nowhere
    as an attribute, is listed: a local of the same name is not a read of
    the field."""
    found = _scan_with(
        scan_tree,
        ("extraction.py", "\n\ndef extract_once(", "    weights: Optional[list] = None\n"),
        ("levels.py", "            collapsed=collapsed, new_family=new_family,\n",
         "            weights=weights,\n"),
    )
    assert found.returncode == 1
    assert "  extraction.ExtractionOutcome.weights (1 lines)" in found.stdout.splitlines()


def _reads(tree: ast.AST) -> set:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(tree)
            if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
            or isinstance(sub, ast.Attribute)}


def test_every_reference_is_read_by_a_test():
    """tools/callers.py does not scan tests/, so a reference no test reads
    would go dead unseen: every top-level definition of tests/reference.py
    is read by some tests/test_*.py, or by a reference that is."""
    tree = ast.parse((TESTS / "reference.py").read_text())
    defined = {node.name: _reads(node) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined
    read = set().union(*(_reads(ast.parse(path.read_text()))
                         for path in sorted(TESTS.glob("test_*.py"))))
    reached = set(defined) & read
    while True:
        more = set(defined) & set().union(*(defined[name] for name in reached))
        if more <= reached:
            break
        reached |= more
    assert reached == set(defined), sorted(set(defined) - reached)


def test_sweep_reports_unchanged():
    # the report hash of every one of the sweep's 1,132 configurations
    sweep = subprocess.run(
        [sys.executable, str(TOOLS / "sweep_reports.py")],
        capture_output=True, timeout=600,
    )
    assert sweep.returncode == 0, sweep.stderr.decode()
    assert hashlib.sha256(sweep.stdout).hexdigest() == (
        "743b7ebabb1c1c84b6d65aed68ef3fee6d096c7643b5685c5cd936e3323b06da"
    )
