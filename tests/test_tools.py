"""Tests for the scripts in tools/."""

import hashlib
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
