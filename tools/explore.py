"""Rerun the suite's hypothesis tests on fresh examples.

The suite draws every hypothesis test's examples from a seed fixed by the
test (the `derandomized` profile of tests/conftest.py), so a pass is
reproducible but never tries new examples.  This script runs the tests that
pytest marks `hypothesis` ROUNDS times, each round under the `explore`
profile and a fresh random seed: ROUNDS times each test's max_examples, none
of them read from or saved to an example database.  A failing round prints
hypothesis's falsifying example and its @reproduce_failure blob, and then the
command that replays the round, since a round's examples follow from its
seed alone.  The script exits 1 if any round fails.  Run it from any
directory:

    python3 tools/explore.py
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 5


def main() -> int:
    failed = []
    for round_number in range(1, ROUNDS + 1):
        seed = random.SystemRandom().getrandbits(64)
        command = [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-m", "hypothesis", "--hypothesis-profile=explore",
            f"--hypothesis-seed={seed}", "tests",
        ]
        print(f"round {round_number} of {ROUNDS}: seed {seed}", flush=True)
        if subprocess.run(command, cwd=ROOT).returncode != 0:
            failed.append(command)
    for command in failed:
        print(f"replay in {ROOT}: python3 {' '.join(command[1:])}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
