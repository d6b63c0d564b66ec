"""Run chain.run() over a fixed set of configurations, one JSON line each.

Each line names the configuration and holds either the sha256 of its
report_json() or the type and message of the exception it raised.  Two
checkouts that give the same output file behave the same on the whole set,
so a change meant to keep behaviour is checked with

    python3 tools/sweep_reports.py > before.jsonl     # in the parent checkout
    python3 tools/sweep_reports.py > after.jsonl      # in the changed one
    diff before.jsonl after.jsonl

The script imports chainwalk from the src/ directory next to it, so each
checkout runs its own code.  The set holds 1,132 configurations:

* every n=4-5 shape (m from n to 2n, k <= min(2, 2n - m), ell 1-3) at seeds
  0-5, each with the default loop bound and with max_outer_iterations=64;
* (7, 8, 0, 1) at seeds 0-9, with both bounds;
* (6, 10, k, 6) with k <= 2 at seeds 0-19, with both bounds;
* the 20 criterion-7 runs of tests/test_acceptance.py, with a bound of 64.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chainwalk.chain import ChainConfig, run  # noqa: E402
from chainwalk.oracle import Params  # noqa: E402

CRITERION_7 = (
    [(4, seed, 1) for seed in (4, 17, 49, 76, 77, 88, 117, 120, 174, 195)]
    + [(5, seed, k) for seed, k in
       ((0, 1), (2, 0), (3, 1), (4, 1), (5, 1), (7, 1), (9, 1), (16, 1), (17, 0), (18, 1))]
)


def configurations():
    """(n, m, k, ell, seed, max_outer_iterations) in a fixed order."""
    for n in (4, 5):
        for m in range(n, 2 * n + 1):
            for k in range(min(2, 2 * n - m) + 1):
                for ell in (1, 2, 3):
                    for seed in range(6):
                        for bound in (None, 64):
                            yield n, m, k, ell, seed, bound
    for seed in range(10):
        for bound in (None, 64):
            yield 7, 8, 0, 1, seed, bound
    for k in range(3):
        for seed in range(20):
            for bound in (None, 64):
                yield 6, 10, k, 6, seed, bound
    for m, seed, k in CRITERION_7:
        yield 4, m, k, 3, seed, 64


def outcome(n, m, k, ell, seed, bound) -> dict:
    try:
        config = ChainConfig(params=Params(n=n, m=m, k=k), ell=ell, seed=seed,
                             max_outer_iterations=bound)
        report = run(config).report_json()
    except Exception as exc:  # every exception is part of the behaviour
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"sha256": hashlib.sha256(report.encode()).hexdigest()}


def main() -> None:
    for n, m, k, ell, seed, bound in configurations():
        line = {"config": [n, m, k, ell, seed, bound]}
        line.update(outcome(n, m, k, ell, seed, bound))
        print(json.dumps(line, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
