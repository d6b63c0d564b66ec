"""Spans and exact work counters around chainwalk's public functions.

The tracer wraps each traced function at every binding its callers use
(`from .x import y` copies a function into the importing module, so patching
only the defining module would miss most calls), records one span per call,
and restores every binding on exit.  Functions called 10^4 or more times per
pass, such as johnson.vertex_data and FamilyIndex.count_of, are not wrapped:
their work shows up in the enclosing span.  Spans are kept in memory and
written out once, when the run ends.  Only the calling thread is traced; no
traced function is called from chainwalk's worker threads.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _count_index(counters, args, result):
    counters["extraction.FamilyIndex.builds"] += 1
    counters["extraction.FamilyIndex.vertices"] += args[0].total


def _count_reflection(counters, args, result):
    state, axis = args
    counters["statevector.reflect_about_state.keys"] += len(state) + len(axis)


def _count_flip(counters, args, result):
    flip_stats = result[1]
    counters["amplify.flip.iterations"] += flip_stats.iterations_used
    counters["amplify.flip.restarts"] += flip_stats.restarts
    counters["amplify.flip.attempts"] += flip_stats.attempts


def _count_extraction(counters, args, result):
    counters["extraction.extract_once.tuples"] += result.kind == "tuple"


def _count_samples(counters, args, result):
    counters["stats.sample_collision_counts.samples"] += len(result)


def _count_edges(counters, args, result):
    graph = args[0]
    counters["johnson.walk_operator_spectrum.edges"] += graph.vertex_count * graph.degree


# span name -> (module, attribute holding the original, work counter or None)
TRACED = {
    "oracle.generate_function": ("chainwalk.oracle", "generate_function", None),
    "oracle.restrict": ("chainwalk.oracle", "restrict", None),
    "extraction.FamilyIndex": ("chainwalk.extraction", "FamilyIndex.__init__", _count_index),
    "extraction.extract_once": ("chainwalk.extraction", "extract_once", _count_extraction),
    "extraction.correct_interval": ("chainwalk.extraction", "correct_interval", None),
    "statevector.reflect_about_state": ("chainwalk.statevector", "reflect_about_state",
                                        _count_reflection),
    "statevector.reflect_about_predicate": ("chainwalk.statevector",
                                            "reflect_about_predicate", None),
    "statevector.measure": ("chainwalk.statevector", "measure", None),
    "amplify.flip": ("chainwalk.amplify", "flip", _count_flip),
    "chain.run": ("chainwalk.chain", "run", None),
    "stats.sample_collision_counts": ("chainwalk.stats", "sample_collision_counts",
                                      _count_samples),
    "stats.verify_stats_report": ("chainwalk.stats", "verify_stats_report", None),
    "johnson.spectral_gap": ("chainwalk.johnson", "spectral_gap", None),
    "johnson.walk_operator_spectrum": ("chainwalk.johnson", "walk_operator_spectrum",
                                       _count_edges),
    "regimes.region_grid": ("chainwalk.regimes", "region_grid", None),
}


class Tracer:
    """Context manager that patches the TRACED functions while it is open.

    A span is (name, start, end, parent index, op id); its self time is its
    duration minus the durations of its children, which run nested inside it
    on the same thread.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.op_id = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, original, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.op_id])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def __enter__(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "chainwalk" or key.startswith("chainwalk.")]
        for name, (module, attr, count) in TRACED.items():
            if attr == "FamilyIndex.__init__":
                cls = sys.modules[module].FamilyIndex
                self._patch(cls, "__init__", self._wrap(name, cls.__init__, count))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def mark(self):
        """Position to aggregate from: (span count, counter snapshot)."""
        return len(self.spans), dict(self.counters)

    def summary(self, mark):
        """Self seconds and call counts per span name, plus counter deltas,
        for the spans recorded since `mark`."""
        first, before = mark
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s, calls = defaultdict(float), defaultdict(int)
        for offset, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += (end - start) - child_time[first + offset]
            calls[name] += 1
        counts = {key: value - before.get(key, 0) for key, value in self.counters.items()}
        return dict(self_s), dict(calls), counts

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id,
                }) + "\n")
