"""Run every cwl invocation of tools/cwl_cases.txt, one JSON line each.

Each case is run in this process through chainwalk.cli.main, and its line
holds the case's arguments, its exit code and the sha256 of what it wrote
to stdout and to stderr.  Two checkouts that print the same lines give the
same output on every case, so a change meant to keep cwl's output is
checked with

    python3 tools/cwl_cases.py > before.jsonl     # in the parent checkout
    python3 tools/cwl_cases.py > after.jsonl      # in the changed one
    diff before.jsonl after.jsonl

The script imports chainwalk from the src/ directory next to it, so each
checkout runs its own code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chainwalk import cli  # noqa: E402

CASES = ROOT / "tools" / "cwl_cases.txt"


def cases() -> list:
    """The argument lists of the case file, in its order."""
    lines = CASES.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def outcome(argv: list) -> dict:
    """cli.main(argv)'s exit code, a usage error's included, and the sha256
    of its stdout and of its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return {
        "args": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def main() -> None:
    for argv in cases():
        print(json.dumps(outcome(argv), sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
