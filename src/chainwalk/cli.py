"""Command line front end.

Subcommands:
  regimes       write the improved-region grid as CSV
  simulate      run the chained-walk simulator and write a JSON report
  verify-stats  Monte-Carlo collision statistics for one (R, M) point
  spectrum      spectral gap check for one neighbor-exchange graph
  tradeoff      print the memory-time curve as CSV

Exit codes: 0 on success, 2 when a flagged instance was skipped, 1 on any
other error.  Commands that draw randomness require an explicit --seed so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np

from . import chain, johnson, regimes, stats
from .errors import FlaggedInstanceError, SimulationError
from .oracle import Params


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _thread_count(text: str) -> int:
    """A --threads value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return _fmt(value) if isinstance(value, float) else str(value)


def _write_csv(path: Optional[str], header: str, rows) -> None:
    """Write `header` and one comma-joined line per row: a bool as true or
    false, a float through _fmt and any other cell through str."""
    lines = [header] + [",".join(_cell(value) for value in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _cmd_regimes(args) -> int:
    rows = regimes.region_grid(args.step)
    _write_csv(args.out, "m_hat,k_hat,prior_best,this_paper,improved", rows)
    return 0


def _cmd_simulate(args) -> int:
    config = chain.ChainConfig(
        params=Params(n=args.n, m=args.m, k=args.k),
        ell=args.ell,
        seed=args.seed,
        max_outer_iterations=args.max_outer,
    )
    result = chain.run(config)
    _write_text(args.out, result.report_json())
    return 0


def _cmd_verify_stats(args) -> int:
    rng = np.random.default_rng(args.seed)
    report = stats.verify_stats_report(
        args.big_r, args.big_m, args.samples, rng, threads=args.threads
    )
    header = "R,M,samples,mean_Z,var_Z,c_hat,p_upper,p_lower"
    _write_csv(args.out, header, [[report[key] for key in header.split(",")]])
    return 0


def _cmd_spectrum(args) -> int:
    graph = johnson.JohnsonGraph(tuple(range(args.big_n)), args.big_r)
    delta_closed = johnson.closed_form_gap(args.big_n, args.big_r)
    spectrum = johnson.walk_operator_spectrum(graph)
    row = [args.big_n, args.big_r, spectrum.delta, delta_closed, spectrum.phase_gap,
           math.sqrt(max(delta_closed, 0.0))]
    _write_csv(args.out, "N,R,delta_eigen,delta_closed,phase_gap,sqrt_delta", [row])
    return 0


def _cmd_tradeoff(args) -> int:
    points = regimes.tradeoff_curve(args.mhat, args.khat, args.steps)
    rows = [(point.ell_hat, point.time_exponent) for point in points]
    _write_csv(args.out, "ell_hat,time_exponent", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cwl",
        description="Exact desk-scale simulator for chained-walk collision search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reg = sub.add_parser("regimes", help="improved-region grid as CSV")
    p_reg.add_argument("--step", type=float, default=0.01)
    p_reg.add_argument("--out", default=None, help="output path (default stdout)")
    p_reg.set_defaults(func=_cmd_regimes)

    p_sim = sub.add_parser("simulate", help="run the simulator, write JSON report")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument("--ell", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--max-outer", type=int, default=None)
    p_sim.add_argument("--out", default=None, help="output path (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_vs = sub.add_parser("verify-stats", help="Monte-Carlo collision statistics")
    p_vs.add_argument("--R", dest="big_r", type=int, required=True)
    p_vs.add_argument("--M", dest="big_m", type=int, required=True)
    p_vs.add_argument("--samples", type=int, default=100000)
    p_vs.add_argument("--seed", type=int, required=True)
    p_vs.add_argument("--threads", type=_thread_count, default=None,
                      help="worker threads (default: CWL_THREADS, else 1)")
    p_vs.add_argument("--out", default=None, help="output path (default stdout)")
    p_vs.set_defaults(func=_cmd_verify_stats)

    p_sp = sub.add_parser("spectrum", help="graph and walk spectral gaps")
    p_sp.add_argument("--N", dest="big_n", type=int, required=True)
    p_sp.add_argument("--R", dest="big_r", type=int, required=True)
    p_sp.add_argument("--out", default=None, help="output path (default stdout)")
    p_sp.set_defaults(func=_cmd_spectrum)

    p_tr = sub.add_parser("tradeoff", help="memory-time curve as CSV")
    p_tr.add_argument("--mhat", type=float, required=True)
    p_tr.add_argument("--khat", type=float, required=True)
    p_tr.add_argument("--steps", type=int, default=50)
    p_tr.add_argument("--out", default=None, help="output path (default stdout)")
    p_tr.set_defaults(func=_cmd_tradeoff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlaggedInstanceError as exc:
        sys.stderr.write(f"flagged instance skipped: {exc}\n")
        return 2
    except (SimulationError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
