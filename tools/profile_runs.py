"""Profile three acceptance workloads of tests/test_acceptance.py under cProfile.

The first block covers the 20 criterion-7 runs, the second the 45 criterion-3
graphs (spectral_gap and walk_operator_spectrum of each), the third criterion
4's Monte-Carlo sampling (calibration and both interval hits at each of its
three (R, M)).  Each block prints the wall time of the profiled calls, the
total function-call count and the top 25 entries by cumulative time.  The
criterion-7 block writes each run's report_json(), as `cwl simulate` does,
and also prints how many LawIndexes were built and how many family laws
they computed, each counted by its code object (LawIndex.__init__,
law.family_law): a child takes its sizes off its parent's holder row and
computes its own law only when its tuples are read, so the child left by a
run's last tuple computes none; how many class-state flips ran, counted by
the code object of levels.flip, beside the Grover rounds they rotated by,
the runs' ledger check_calls, which sum the flips'
FlipStats.iterations_used; report_json's calls and cumulative time, found
by its code object; and the process's peak resident set (ru_maxrss) after
it, so an index that outlives its run shows as memory.  The criterion-3 block also prints the peak of the memory that tracemalloc traces
(numpy's arrays among it) over one more, unprofiled call of the 45 spectra,
so the tracing does not touch the profiled wall time.  The criterion-4
block also prints the samples drawn per second of wall time, on the worker
count CWL_THREADS sets (1 when it is unset).  Run it from any directory:

    python3 tools/profile_runs.py

The script imports chainwalk from the src/ directory next to it, so each
checkout profiles its own code, and takes the criterion-7 configurations
from tools/sweep_reports.py.
"""

from __future__ import annotations

import cProfile
import io
import math
import pstats
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sweep_reports import CRITERION_7  # noqa: E402  (also puts src/ on the path)

from chainwalk.chain import ChainConfig, ChainResult, run  # noqa: E402
from chainwalk.johnson import JohnsonGraph, spectral_gap, walk_operator_spectrum  # noqa: E402
from chainwalk.law import LawIndex, family_law  # noqa: E402
from chainwalk.levels import flip  # noqa: E402
from chainwalk.oracle import Params  # noqa: E402
from chainwalk.stats import calibrate_constant, interval_hit_probability  # noqa: E402

# criterion 3's shape: every J(N, R) with N <= 10 and C(N, R) <= 300
CRITERION_3 = [(n, r) for n in range(2, 11) for r in range(1, n) if math.comb(n, r) <= 300]
# criterion 4's (R, M) cases and the sample count of each of its three calls
CRITERION_4 = ((16, 256), (32, 1024), (32, 4096))
CRITERION_4_SAMPLES = 100_000


def criterion_7_runs() -> int:
    """The 20 runs, each writing its report as `cwl simulate` does; returns
    the Grover rounds they charge (check_calls)."""
    rounds = 0
    for m, seed, k in CRITERION_7:
        result = run(ChainConfig(params=Params(n=4, m=m, k=k), ell=3, seed=seed,
                                 max_outer_iterations=64))
        result.report_json()
        rounds += result.ledger.check_calls
    return rounds


def criterion_3_spectra() -> None:
    for n, r in CRITERION_3:
        graph = JohnsonGraph(ground_set=tuple(range(n)), subset_size=r)
        spectral_gap(graph)
        walk_operator_spectrum(graph)


def criterion_4_sampling() -> None:
    for big_r, bins in CRITERION_4:
        rng = np.random.default_rng([0, big_r, bins])
        cal = calibrate_constant(big_r, bins, CRITERION_4_SAMPLES, rng)
        for which in ("upper", "lower"):
            interval_hit_probability(big_r, bins, cal.c, which, CRITERION_4_SAMPLES, rng)


def profile(workload) -> tuple[pstats.Stats, float, object]:
    """The profile, the wall time and the return value of one call."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    result = profiler.runcall(workload)
    wall = time.perf_counter() - start
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    print(f"{workload.__name__}: wall {wall:.3f} s, {stats.total_calls} function calls")
    stats.sort_stats("cumulative").print_stats(25)
    print(out.getvalue())
    return stats, wall, result


def traced_peak_mib(workload) -> float:
    """The tracemalloc peak of one unprofiled call of `workload`, in MiB."""
    tracemalloc.start()
    try:
        workload()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def calls_and_time(stats: pstats.Stats, function) -> tuple[int, float]:
    """The profile's call count and cumulative time of `function`, found by
    its code object."""
    code = function.__code__
    _, ncalls, _, cumulative, _ = stats.stats.get(
        (code.co_filename, code.co_firstlineno, code.co_name), (0, 0, 0.0, 0.0, None))
    return ncalls, cumulative


def main() -> None:
    stats, _, rounds = profile(criterion_7_runs)
    print(f"LawIndex builds: {calls_and_time(stats, LawIndex.__init__)[0]}, "
          f"family_law calls: {calls_and_time(stats, family_law)[0]}")
    print(f"levels.flip calls: {calls_and_time(stats, flip)[0]}, "
          f"rotating by {rounds} Grover rounds in all (ledger check_calls)")
    reports, report_s = calls_and_time(stats, ChainResult.report_json)
    print(f"ChainResult.report_json calls: {reports}, cumulative {report_s:.3f} s")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ru_maxrss after criterion_7_runs: {peak:.1f} MiB\n")
    profile(criterion_3_spectra)
    print(f"tracemalloc peak of criterion_3_spectra: "
          f"{traced_peak_mib(criterion_3_spectra):.1f} MiB\n")
    _, wall, _ = profile(criterion_4_sampling)
    samples = 3 * len(CRITERION_4) * CRITERION_4_SAMPLES
    print(f"criterion_4_sampling: {samples} samples, {samples / wall:,.0f} samples/s")


if __name__ == "__main__":
    main()
