"""Inputs, operations and output checks of the benchmark workloads.

Every workload is a list of operations built from the workload seed.  An
operation is one call into chainwalk's public API (the timed part) plus a
check of what came back (never timed).  The default seed reproduces the
pinned instance lists; any other seed draws fresh instances of the same
shape, without looking at their outcome, so a claim can be re-checked on a
seed its author never saw.

Why these workloads:

* chain-narrow: the acceptance contract's end-to-end run (criterion 7).  The
  12,870-vertex family is rebuilt after every extraction, so FamilyIndex
  construction dominates and the state reflections are minor.
* chain-wide: ell=1 runs on the 8,128-vertex n=7 family.  One index build,
  then about a dozen Grover iterations over one large state, so the
  reflections dominate and FamilyIndex is minor: the same two layers the other
  way round.
* checks: the Monte-Carlo and spectral tooling with no chain work, and the
  workload with the largest peak memory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from chainwalk import chain, errors, johnson, regimes, stats
from chainwalk.oracle import Params, generate_function

DEFAULT_SEED = 0
WORKLOADS = ("chain-narrow", "chain-wide", "checks")
# Seconds per pass on the machine in record.json when the benchmark was
# defined.  A run makes --seconds / NOMINAL_PASS_S passes whatever the
# program's speed, so two commits are timed on the same ops, and latency
# percentiles are taken over the same number of samples.
NOMINAL_PASS_S = {"chain-narrow": 15.0, "chain-wide": 7.5, "checks": 10.0}

# The 20 criterion-7 instances of tests/test_acceptance.py as (m, seed, k),
# all at n=4, ell=3.
ACCEPTANCE_INSTANCES = (
    [(4, seed, 1) for seed in (4, 17, 49, 76, 77, 88, 117, 120, 174, 195)]
    + [(5, seed, k) for seed, k in
       ((0, 1), (2, 0), (3, 1), (4, 1), (5, 1), (7, 1), (9, 1), (16, 1), (17, 0), (18, 1))]
)
# chain-wide: WIDE_OPS runs of shape (n, m, k, ell).  A drawn function has
# about 32 colliding pairs among the 8,128 vertices, and the Grover iteration
# count, and with it the op time, varies by about 10% from one function to the
# next.  Many short ops (about 0.45 s each) keep op_p50_s from depending on
# which few functions a seed draws: with 4 ops of n=8 it spread 0.16-0.28 of
# its median over seeds.  m=10 would raise the reflections' share of the pass
# from 67% to 80%, but it made ops 0.6-0.9 s, runs 45-54 s long, and op_tail_s
# spread 0.17 of its median over five seeds.
WIDE_SHAPE = (7, 8, 0, 1)
WIDE_OPS = 16
MAX_OUTER = 64

# Outcomes the simulator documents; none of them is a failed operation.
DOCUMENTED_STATUSES = frozenset(
    {"completed", "sparse_fallback", "max_iterations", "capacity", "flagged"}
)
LEDGER_COUNTS = ("setup_calls", "update_calls", "check_calls",
                 "oracle_queries", "extraction_events")

# (R, M, ops): each case draws 2^20 samples, split over `ops` ops (streams) so
# that every op takes about the same time (0.2-0.35 s on the VM of record.json).
# Ops of one size keep op_p50_s and op_tail_s inside one cluster of latencies:
# with two ops per case they ranged 0.4-1.3 s, and op_tail_s, the second-slowest
# R=32 op, spread 0.18 of its median over seeds.
STATS_CASES = ((16, 256, 4), (32, 1024, 4), (32, 4096, 4), (64, 4096, 8))
STATS_SAMPLES_PER_CASE = 1 << 20
MEAN_Z_SE = 6.0         # standard errors by which mean_Z may miss E[Z]
# One worker thread: on the 2-vCPU VM of record.json the p10-p90 spread of one
# verify_stats_report(32, 1024, 2^19) op was 0.54 of its median with 2
# threads against 0.26 with 1, which left op_p50_s on checks unsteady.
STATS_THREADS = 1
SPECTRUM_CAP = 300      # graphs with C(N, R) <= 300: the 45 of criterion 3
GRID_STEP = 0.01
CLOSED_FORM_TOL = 1e-9


def digest(value) -> str:
    """sha256 of the canonical JSON spelling of `value`."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Verdict:
    """What the check of one op output found."""

    problem: Optional[str]          # None when the output is correct
    fingerprint: Optional[str]      # None for outputs not bitwise reproducible
    sim: dict = field(default_factory=dict)   # ledger counts for the sim_* metrics


@dataclass
class Op:
    op_id: str
    call: Callable[[], object]
    verify: Callable[[object], Verdict]
    pin: Optional[str] = None


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    warm_up: Callable[[], None]
    nominal_pass_s: float   # pass time when the benchmark was defined


# ---------------------------------------------------------------- chain ops

def _chain_specs(name: str, seed: int, quick: bool):
    """(n, m, k, ell, function seed) per op."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "chain-narrow":
        if seed == DEFAULT_SEED:
            specs = [(4, m, k, 3, s) for m, s, k in ACCEPTANCE_INSTANCES]
        else:
            specs = [(4, m, k, 3, int(rng.integers(1 << 31)))
                     for m, _, k in ACCEPTANCE_INSTANCES]
    else:
        specs = [WIDE_SHAPE + (int(rng.integers(1 << 31)),)
                 for _ in range(WIDE_OPS)]
    return specs[:1] if quick else specs


def _check_chain(report, truth, target) -> Verdict:
    if report == "flagged":
        return Verdict(None, digest({"status": "flagged"}))
    doc = json.loads(report)
    status = doc["status"]
    tuples = [[t["image"], t["preimages"]] for t in doc["tuples"]]
    ledger = {key: doc["ledger"][key] for key in LEDGER_COUNTS}
    sim = {
        "sim_update_calls": ledger["update_calls"],
        "sim_oracle_queries": ledger["oracle_queries"],
        "tuples_found": len(tuples),
    }
    fingerprint = digest({
        "status": status,
        "tuples": tuples,
        "ledger": ledger,
        "outer_iterations": doc["outer_iterations"],
    })
    return Verdict(_chain_problem(status, tuples, truth, target), fingerprint, sim)


def _chain_problem(status, tuples, truth, target) -> Optional[str]:
    if status not in DOCUMENTED_STATUSES:
        return f"undocumented status {status!r}"
    if status == "completed" and len(tuples) != target:
        return f"completed with {len(tuples)} of {target} tuples"
    seen, images = set(), set()
    for image, pres in tuples:
        if len(pres) < 2 or any(truth.value(x) != image for x in pres):
            return f"tuple {image}:{pres} is not a collision of f"
        if seen.intersection(pres) or image in images:
            return f"tuple {image}:{pres} overlaps an earlier tuple"
        seen.update(pres)
        images.add(image)
    return None


def _chain_op(n, m, k, ell, fseed, pins) -> Op:
    config = chain.ChainConfig(params=Params(n=n, m=m, k=k), ell=ell,
                               seed=fseed, max_outer_iterations=MAX_OUTER)
    truth = generate_function(config.params, fseed)

    def call():
        try:
            return chain.run(config).report_json()
        except errors.FlaggedInstanceError:
            return "flagged"

    op_id = f"n{n}-m{m}-k{k}-ell{ell}-seed{fseed}"
    return Op(op_id, call, lambda out: _check_chain(out, truth, config.target),
              pins.get(op_id))


def _chain_warm_up() -> None:
    chain.run(chain.ChainConfig(params=Params(n=4, m=5, k=0), ell=1, seed=0))


# --------------------------------------------------------------- checks ops

def _stats_op(big_r, bins, samples, index, stream, pins) -> Op:
    def call():
        return stats.verify_stats_report(
            big_r, bins, samples, np.random.default_rng(stream),
            threads=STATS_THREADS)

    # E[Z]: M times the chance that a bin is hit at least twice.  Criterion
    # 4's lower bracket, 0.9 R^2 / 2M = 0.45 at (16, 256), lies 0.4% below
    # it, within two standard errors of a 2^18-sample mean, so the check
    # compares with E[Z] itself.
    miss = 1.0 - 1.0 / bins
    expected = bins * (1.0 - miss ** big_r - big_r / bins * miss ** (big_r - 1))

    def verify(row) -> Verdict:
        problem = None
        tolerance = MEAN_Z_SE * math.sqrt(row["var_Z"] / samples)
        if (row["R"], row["M"], row["samples"]) != (big_r, bins, samples):
            problem = f"report echoes the wrong case {row}"
        elif abs(row["mean_Z"] - expected) > tolerance:
            problem = f"mean_Z {row['mean_Z']} not within {tolerance} of E[Z] = {expected}"
        elif row["var_Z"] > 1.05 * row["mean_Z"]:
            problem = f"var_Z {row['var_Z']} above 1.05 mean_Z"
        elif not all(0.0 <= row[p] <= 1.0 for p in ("p_upper", "p_lower")):
            problem = f"hit probability outside [0, 1] in {row}"
        return Verdict(problem, digest(row))

    op_id = f"stats-R{big_r}-M{bins}-s{index}"
    return Op(op_id, call, verify, pins.get(op_id))


def _spectra_op(sizes) -> Op:
    """Both spectra of J(N, R) for each N in `sizes` and C(N, R) <= 300."""
    graphs = [(n, r) for n in sizes for r in range(1, n)
              if math.comb(n, r) <= SPECTRUM_CAP]

    def call():
        out = []
        for n, r in graphs:
            graph = johnson.JohnsonGraph(ground_set=tuple(range(n)), subset_size=r)
            out.append((johnson.spectral_gap(graph),
                        johnson.walk_operator_spectrum(graph).phase_gap))
        return out

    def verify(out) -> Verdict:
        problem = None
        for (n, r), (gap, phase_gap) in zip(graphs, out):
            delta = johnson.closed_form_gap(n, r)
            if abs(gap - delta) > CLOSED_FORM_TOL:
                problem = f"J({n},{r}) gap {gap} vs closed form {delta}"
            elif phase_gap < math.sqrt(delta) - CLOSED_FORM_TOL:
                problem = f"J({n},{r}) phase gap {phase_gap} below sqrt(delta)"
        if len(out) != len(graphs):
            problem = f"{len(out)} spectra for {len(graphs)} graphs"
        # eigensolver output is not bitwise reproducible: no fingerprint
        return Verdict(problem, None)

    return Op(f"spectra-N{sizes[0]}-{sizes[-1]}", call, verify)


def _grid_op(pins) -> Op:
    def verify(rows) -> Verdict:
        return Verdict(None, digest([list(row) for row in rows]))

    op_id = f"region_grid-{GRID_STEP}"
    return Op(op_id, lambda: regimes.region_grid(GRID_STEP), verify, pins.get(op_id))


def _checks_ops(seed, pins, quick):
    seeded_pins = pins if seed == DEFAULT_SEED else {}
    grid = _grid_op(pins)  # seedless, so pinned at every seed
    if quick:
        return [grid]
    rng = np.random.default_rng([seed, WORKLOADS.index("checks")])
    ops = [_stats_op(big_r, bins, STATS_SAMPLES_PER_CASE // count, index,
                     int(rng.integers(1 << 31)), seeded_pins)
           for big_r, bins, count in STATS_CASES for index in range(count)]
    # criterion 3's 45 graphs as two ops of about 0.7 s and 2.5 s
    return ops + [_spectra_op(range(2, 10)), _spectra_op(range(10, 11)), grid]


def _checks_warm_up() -> None:
    stats.verify_stats_report(16, 256, 4096, np.random.default_rng(0),
                              threads=STATS_THREADS)
    johnson.walk_operator_spectrum(johnson.JohnsonGraph(tuple(range(4)), 2))
    regimes.region_grid(0.1)


def build(name: str, seed: int, pins: dict, quick: bool = False) -> Workload:
    """The workload's ops for `seed`; `quick` keeps one small op."""
    pins = pins.get(name, {})
    if name == "checks":
        return Workload(name, seed, _checks_ops(seed, pins, quick), _checks_warm_up,
                        NOMINAL_PASS_S[name])
    chain_pins = pins if seed == DEFAULT_SEED else {}
    ops = [_chain_op(*spec, chain_pins) for spec in _chain_specs(name, seed, quick)]
    return Workload(name, seed, ops, _chain_warm_up, NOMINAL_PASS_S[name])
