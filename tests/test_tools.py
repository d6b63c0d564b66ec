"""Tests for the scripts in tools/."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_callers_finds_no_dead_code():
    # every top-level definition of src/chainwalk has a caller outside the
    # unit tests, or a reason in the scan's KEPT table
    scan = subprocess.run(
        [sys.executable, str(TOOLS / "callers.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert scan.returncode == 0, scan.stdout + scan.stderr
