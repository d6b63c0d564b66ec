"""chainwalk benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload chain-narrow --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from src/ of the checkout that
holds this file.  With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.
Earlier stdout lines say what was measured (pass and op counts, the error
rate, which percentile op_tail_s is, the simulated cost); failed checks are
listed on stderr.

End-to-end metrics are measured untraced.  setup_s is the median, over
several fresh processes, of the time from process start to the first timed
op: importing chainwalk, building the inputs and a warm-up call.  A run makes
--seconds / (the workload's nominal pass time) passes over its op list, at
least two: about --seconds at the program's speed when the benchmark was
defined.  pass_s sums each op's median latency over the passes; op_p50_s and
op_tail_s are taken over all op latencies.  Every op output is checked after
its pass, outside the timed region; a check that fails or an unexpected
exception counts the op as failed.

pass_s, op_p50_s and op_tail_s are in seconds at a reference host speed.  The
benchmark shares a few cores of a host whose speed drifts by 10-50% over
seconds to minutes, in CPU time as well as in wall time, so the raw times of
ten runs of one commit spread by up to 0.4 of their median.  Before every timed
op the run times a fixed probe that never calls chainwalk (HostSpeed), and
those three times are scaled by REFERENCE_PROBE_S / (the run's median probe
time).  Both sides of a comparison run the same probe, so a change to
chainwalk moves the scaled times as it moves the raw ones.  setup_s is raw:
its probes run in other processes, before the timed ops.  The raw times and
the scale are printed above the result line.

The traced run makes one untraced pass and two traced passes.  Per-layer
self times are the mean of the two traced passes, counts come from the
first, and the two must give identical counts.  trace.overhead_s is the
traced pass time minus the untraced one.  Spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
SETUP_PROBES = 3
MIN_PASSES = 2
PROBE_SORTS = 8         # per HostSpeed.sample
PROBE_REFLECTIONS = 2   # per HostSpeed.sample
# Median time of HostSpeed.sample on the machine in record.json when the
# benchmark was defined.
REFERENCE_PROBE_S = 0.008

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, source): "self" and "calls" read the span
# summary of the named function, "count" an exact work counter.
PER_LAYER = {
    "extraction.FamilyIndex.self_s": ("s", "self"),
    "extraction.FamilyIndex.builds": ("count", "count"),
    "extraction.FamilyIndex.vertices": ("count", "count"),
    "extraction.extract_once.self_s": ("s", "self"),
    "extraction.extract_once.calls": ("count", "calls"),
    "extraction.correct_interval.self_s": ("s", "self"),
    "extraction.correct_interval.calls": ("count", "calls"),
    "extraction.tuples_per_attempt": ("ratio", "derived"),
    "statevector.reflect_about_state.self_s": ("s", "self"),
    "statevector.reflect_about_state.calls": ("count", "calls"),
    "statevector.reflect_about_state.keys": ("count", "count"),
    "statevector.reflect_about_predicate.self_s": ("s", "self"),
    "statevector.measure.self_s": ("s", "self"),
    "statevector.measure.calls": ("count", "calls"),
    "amplify.flip.self_s": ("s", "self"),
    "amplify.flip.calls": ("count", "calls"),
    "amplify.flip.iterations": ("count", "count"),
    "amplify.flip.restarts": ("count", "count"),
    "amplify.flip.success_ratio": ("ratio", "derived"),
    "oracle.generate_function.self_s": ("s", "self"),
    "oracle.restrict.self_s": ("s", "self"),
    "oracle.restrict.calls": ("count", "calls"),
    "chain.run.self_s": ("s", "self"),
    "stats.sample_collision_counts.self_s": ("s", "self"),
    "stats.sample_collision_counts.samples": ("count", "count"),
    "stats.samples_per_s": ("1/s", "derived"),
    "stats.verify_stats_report.self_s": ("s", "self"),
    "johnson.spectral_gap.self_s": ("s", "self"),
    "johnson.walk_operator_spectrum.self_s": ("s", "self"),
    "johnson.walk_operator_spectrum.edges": ("count", "count"),
    "regimes.region_grid.self_s": ("s", "self"),
    "sim_update_calls": ("count", "sim"),
    "sim_oracle_queries": ("count", "sim"),
    "tuples_found": ("count", "sim"),
    "trace.pass_s": ("s", "derived"),
    "trace.overhead_s": ("s", "derived"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain-narrow", "chain-wide", "checks"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one small op per workload, one setup probe")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args):
    """Import chainwalk, build the workload's inputs and warm it up."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    pins = json.loads(PINS.read_text(encoding="utf-8"))
    workload = workloads.build(args.workload, args.seed, pins, args.quick)
    workload.warm_up()
    return workload


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process to its first timed op."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with code {code}")
    return elapsed


class Checker:
    """Verdicts on op outputs, pins, and output stability across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_fingerprint = {}

    def fail(self, op_id, problem):
        self.failed += 1
        self.problems.append(f"{op_id}: {problem}")

    def record(self, op, output, error):
        """Check one op output; returns its simulated-cost counts."""
        self.attempted += 1
        if error is not None:
            self.fail(op.op_id, error)
            return {}
        try:
            verdict = op.verify(output)
        except Exception:  # a malformed output is a failed op, not a crash
            self.fail(op.op_id, traceback.format_exc(limit=1).strip())
            return {}
        problem = verdict.problem
        seen = self.first_fingerprint.setdefault(op.op_id, verdict.fingerprint)
        if problem is None and op.pin is not None and verdict.fingerprint != op.pin:
            problem = f"fingerprint {verdict.fingerprint} differs from pin {op.pin}"
        if problem is None and verdict.fingerprint != seen:
            problem = "output differs from the op's first pass"
        if problem is not None:
            self.fail(op.op_id, problem)
        return verdict.sim


class HostSpeed:
    """Times a fixed piece of work that never calls chainwalk, to follow the
    host's speed through a run.

    The work is numpy sorts of a 50,000-element array, which follow the numpy
    layers, plus rebuilding an 8,192-entry dict the way a state reflection
    does, which follows the interpreter-bound ones.  Five probes were timed
    before every op in six fresh 25-s processes per workload: interpreter
    arithmetic, the sorts, dict lookups that miss the cache, numpy sampling
    like stats, and the dict rebuild.  The processes' median op latency ranged
    (max - min over median) 0.08-0.24 raw; divided by the median of sorts plus
    rebuild it ranged 0.02-0.14, by the sorts alone 0.03-0.17, by the lookups
    0.16-0.22.
    """

    def __init__(self):
        import numpy as np

        self.array = np.random.default_rng(0).random(50_000)
        self.state = {(i, 7 * i): 1.0 / (i + 1) for i in range(8_192)}
        self.samples = []

    def sample(self):
        start = time.perf_counter()
        for _ in range(PROBE_SORTS):
            self.array.copy().sort()
        state = self.state
        for _ in range(PROBE_REFLECTIONS):
            mean = sum(state.values()) / len(state)
            state = {key: 2.0 * mean - value for key, value in state.items()}
        self.samples.append(time.perf_counter() - start)

    def scale(self):
        return REFERENCE_PROBE_S / statistics.median(self.samples)


def run_pass(ops, checker, tracer=None, host=None):
    """One pass over the ops: (wall seconds, op latencies, summed sim counts)."""
    outputs, latencies = [], []
    pass_start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op_id = op.op_id
        if host is not None:
            host.sample()
        error, output = None, None
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception:  # keep measuring; the op is counted as failed
            error = traceback.format_exc(limit=2).strip()
        latencies.append(time.perf_counter() - start)
        outputs.append((output, error))
    wall = time.perf_counter() - pass_start
    sim = Counter()
    for op, (output, error) in zip(ops, outputs):
        sim.update(checker.record(op, output, error))
    return wall, latencies, sim


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, and its value.

    Below 20 samples that percentile would not lie above the median, so the
    maximum (p100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def timed_run(workload, passes, checker):
    host = HostSpeed()
    by_op, sims = [], []
    for _ in range(passes):
        _, latencies, sim = run_pass(workload.ops, checker, host=host)
        by_op.append(latencies)
        sims.append(sim)
    latencies = [lat for pass_latencies in by_op for lat in pass_latencies]
    percentile, tail_value = tail(latencies)
    print(f"{passes} passes of {len(workload.ops)} ops; "
          f"op_tail_s is p{percentile:.1f} of {len(latencies)} op latencies")
    if sims[0]:
        print("simulated cost per pass: " + ", ".join(f"{k} {v}" for k, v in sims[0].items()))
    raw = {
        # a typical pass: each op at its median over the passes, so a burst of
        # host load during one op of one pass does not move it
        "pass_s": sum(statistics.median(op) for op in zip(*by_op)),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
    }
    scale = host.scale()
    print(f"host speed: median probe {statistics.median(host.samples):.6f} s of "
          f"{len(host.samples)}, times scaled by {scale:.4f}; raw "
          + ", ".join(f"{name} {value:.4f}" for name, value in raw.items()))
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def traced_run(workload, checker):
    import tracing

    untraced_wall, _, _ = run_pass(workload.ops, checker)
    summaries, walls = [], []
    with tracing.Tracer() as tracer:
        for _ in range(2):
            mark = tracer.mark()
            wall, _, sim = run_pass(workload.ops, checker, tracer)
            summaries.append(tracer.summary(mark) + (sim,))
            walls.append(wall)
    out = HERE / "out" / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(out)
    (self_a, calls_a, counts_a, sim_a), (self_b, calls_b, counts_b, sim_b) = summaries
    if (calls_a, counts_a, sim_a) != (calls_b, counts_b, sim_b):
        checker.fail("trace", "the two traced passes gave different counts")
    print(f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}")

    traced_wall = statistics.mean(walls)
    metrics = {}
    for name, (_, source) in PER_LAYER.items():
        function, _, _ = name.rpartition(".")
        if source == "self":
            metrics[name] = (self_a.get(function, 0.0) + self_b.get(function, 0.0)) / 2
        elif source == "calls":
            metrics[name] = calls_a.get(function, 0)
        elif source == "count":
            metrics[name] = counts_a.get(name, 0)
        elif source == "sim":
            metrics[name] = sim_a[name]
    flips = calls_a.get("amplify.flip", 0)
    attempts = counts_a.get("amplify.flip.attempts", 0)
    extractions = calls_a.get("extraction.extract_once", 0)
    sampling_s = metrics["stats.sample_collision_counts.self_s"]
    metrics.update({
        "extraction.tuples_per_attempt":
            counts_a.get("extraction.extract_once.tuples", 0) / extractions if extractions else 0.0,
        "amplify.flip.success_ratio": flips / attempts if attempts else 0.0,
        "stats.samples_per_s":
            metrics["stats.sample_collision_counts.samples"] / sampling_s if sampling_s else 0.0,
        "trace.pass_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # Load is one process doing its work on one thread.  A second BLAS thread
    # made the N=10 spectra slower (3.8-4.9 s against 2.9-3.5 s on a 2-core
    # VM) and noisier.  An explicit setting wins; numpy is first imported
    # after this line.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not (ROOT / "src" / "chainwalk" / "__init__.py").is_file():
        print(f"perfbench: no chainwalk sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0
    if args.trace:
        checker = Checker()
        values = traced_run(set_up(args), checker)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        setup_times = [probe_setup(args) for _ in range(1 if args.quick else SETUP_PROBES)]
        checker = Checker()
        workload = set_up(args)
        passes = 1 if args.quick else round(args.seconds / workload.nominal_pass_s)
        values = timed_run(workload, max(MIN_PASSES, passes), checker)
        values["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"error_rate {checker.failed / checker.attempted} "
          f"({checker.failed} of {checker.attempted} ops failed)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
