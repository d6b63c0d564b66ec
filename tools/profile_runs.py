"""Profile the 20 criterion-7 runs of tests/test_acceptance.py under cProfile.

Prints the wall time of the profiled runs, the total function-call count and
the top 25 entries by cumulative time.  Run it from any directory:

    python3 tools/profile_runs.py

The script imports chainwalk from the src/ directory next to it, so each
checkout profiles its own code, and takes the configurations from
tools/sweep_reports.py.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sweep_reports import CRITERION_7  # noqa: E402  (also puts src/ on the path)

from chainwalk.chain import ChainConfig, run  # noqa: E402
from chainwalk.oracle import Params  # noqa: E402


def criterion_7_runs() -> None:
    for m, seed, k in CRITERION_7:
        run(ChainConfig(params=Params(n=4, m=m, k=k), ell=3, seed=seed,
                        max_outer_iterations=64))


def main() -> None:
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.runcall(criterion_7_runs)
    wall = time.perf_counter() - start
    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    print(f"wall {wall:.3f} s, {stats.total_calls} function calls")
    stats.sort_stats("cumulative").print_stats(25)
    print(out.getvalue())


if __name__ == "__main__":
    main()
