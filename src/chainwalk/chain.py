"""The chained collision-finding loop with its cost ledger.

A run starts from the uniform superposition over all R-subsets of the domain
and alternates walk phases (amplitude amplification toward collision-bearing
vertices, charged as quantum-walk updates) with extraction phases (padded
measurements that pull one multicollision tuple out and shrink the domain).
The residual state is reused from step to step without re-preparation; after
every phase the run checks that the live state is exactly uniform over its
declared vertex family.  States are held as levels.Levels, a class of vertex
counts over the family's law.LawIndex, whose class sizes and tuple holders
come from the family's exact law, so no phase builds a vector over the
vertices and no index enumerates one.

run() is one loop of walk and extraction phases under one of two interval
policies.  The window policy (the dense regime) holds an IntervalPlan: each
vertex is expected to hold E >= 2 tuples, the run first projects onto
[E, E+T], and each iteration runs extraction_step (T tuples out, interval
down to [E-T, E]) and then walk_step (back up to [E+1, E+T]).  It starts only
when 8R < M and E >= 2, which at desk scale means R = N: a single vertex.
Once the recomputed E drops below 2, the run measures the exact count and
switches to the count policy (the sparse regime): walk onto vertices holding
a tuple when the current class holds none, measure the exact count z, and
extract one tuple from [z, z] per iteration.  Results carry the status reached
and the regime: "dense", "sparse" or "mixed" (dense, then switched).

Costs follow the walk accounting: Setup charges R oracle queries, each
diffusion iteration charges ceil(1/sqrt(delta)) Update calls and one Check
call, and each extracted tuple is verified with r counted queries.  The
closed-form prediction R + 2^k 2^(m/2)/sqrt(R) rides along for comparison.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Tuple

from ._stream import Stream, Uniform
from .amplify import MAX_TRANSITIONS, FlipStats, Want
from .errors import (
    CapacityError,
    ContractViolationError,
    FlaggedInstanceError,
    ParameterError,
)
from .extraction import VertexFamily, in_range
from .johnson import closed_form_gap
from .law import LawIndex
from .oracle import (
    CollisionTable,
    FunctionTable,
    Params,
    generate_function,
    require_int,
    require_real,
    restrict,
)
from .levels import Levels, check_class, extract_tuple, flip, hop_until, measure
from .stats import IntervalPlan, window

_ELL_SLACK = 4
# c in the window policy's expected tuple count E = round(c R^2 / M)
_CALIBRATION_C = 7.0 / 12.0


class ChainStatus(Enum):
    COMPLETED = "completed"
    CAPACITY = "capacity"
    MAX_ITERATIONS = "max_iterations"
    SPARSE_FALLBACK = "sparse_fallback"


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one chained run.

    ell sets the initial vertex size R = 2^ell, and the run stops once it
    holds 2^k tuples.  max_outer_iterations defaults to the loop bound
    ceil(2^k 2^(m/2) / R); desk-scale sparse runs extract one tuple per
    iteration, so tests that need the full collision set raise the bound
    explicitly.  ell, seed and max_outer_iterations must be integers (not
    bools), and are stored as Python ints; anything else raises
    ParameterError.
    """

    params: Params
    ell: int
    seed: int
    max_outer_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        ints = {"ell": self.ell, "seed": self.seed}
        if self.max_outer_iterations is not None:
            ints["max_outer_iterations"] = self.max_outer_iterations
        require_int(**ints)
        for name, value in ints.items():
            object.__setattr__(self, name, operator.index(value))
        if self.ell < 1:
            raise ParameterError("ell must be at least 1 (R >= 2)")
        bound = (2 * self.params.k + self.params.m) / 3.0 + _ELL_SLACK
        if self.ell > bound:
            raise ParameterError(
                f"ell={self.ell} beyond the sanity bound {bound:.2f}"
            )
        if self.max_outer_iterations is not None and self.max_outer_iterations < 1:
            raise ParameterError("max_outer_iterations must be positive")

    @property
    def vertex_size(self) -> int:
        return 1 << self.ell

    @property
    def target(self) -> int:
        return 1 << self.params.k

    @property
    def outer_bound(self) -> int:
        if self.max_outer_iterations is not None:
            return self.max_outer_iterations
        p = self.params
        return max(1, math.ceil((1 << p.k) * 2.0 ** (p.m / 2.0) / self.vertex_size))


@dataclass
class CostLedger:
    """Walk-accounting counters plus the closed-form prediction."""

    setup_calls: int = 0
    update_calls: int = 0
    check_calls: int = 0
    oracle_queries: int = 0
    extraction_events: int = 0
    predicted_total: float = 0.0

    def charge_flip(self, stats: FlipStats, delta: float) -> None:
        """One amplification run: each iteration is one diffusion plus one check."""
        per_diffusion = max(1, math.ceil(1.0 / math.sqrt(delta)))
        self.update_calls += stats.iterations_used * per_diffusion
        self.check_calls += stats.iterations_used


@dataclass(frozen=True)
class CostPrediction:
    """Closed-form query count R + 2^k 2^(m/2) / sqrt(R), as its setup and
    walk terms."""

    setup_term: float
    walk_term: float

    @property
    def total(self) -> float:
        return self.setup_term + self.walk_term


def predict_cost(params: Params, ell: float, regime: str) -> CostPrediction:
    """The cost terms at R = 2^ell.  The prior regime (R <= 2^(m/2)) and the
    new one (R >= 2^(m/2)) share this form, so `regime` must be "new"; any
    other value raises ParameterError, as does an ell that is not a positive
    finite real or whose terms overflow a float."""
    if regime != "new":
        raise ParameterError(f"regime must be 'new', got {regime!r}")
    require_real(ell=ell)
    if not 0 < ell < math.inf:
        raise ParameterError(f"ell must be a positive finite number, got {ell!r}")
    try:
        setup = 2.0 ** ell
        walk = 2.0 ** (params.k + params.m / 2.0 - ell / 2.0)
    except OverflowError:
        raise ParameterError(f"cost terms at ell={ell} overflow a float") from None
    return CostPrediction(setup_term=setup, walk_term=walk)


def optimal_ell(params: Params) -> float:
    """Memory exponent balancing setup against walk cost: (2k + m) / 3."""
    return (2.0 * params.k + params.m) / 3.0


@dataclass
class ChainResult:
    config: ChainConfig
    collision_table: CollisionTable
    ledger: CostLedger
    outer_iterations: int
    status: ChainStatus
    regime: str
    per_step_trace: List[dict] = field(default_factory=list)

    def report_json(self) -> str:
        """The run as the text of json.dumps(doc, sort_keys=True, indent=2)
        and a newline, byte for byte, written by _append_json: an indent
        sends json.dumps past CPython's C encoder, which cannot indent, to
        its pure-Python generator encoder, which took about twice as long."""
        p = self.config.params
        doc = {
            "params": {"n": p.n, "m": p.m, "k": p.k},
            "ell": self.config.ell,
            "seed": self.config.seed,
            "status": self.status.value,
            "regime": self.regime,
            "tuples": [
                {"image": image, "preimages": list(pres)}
                for image, pres in self.collision_table.items()
            ],
            "ledger": vars(self.ledger),
            "outer_iterations": self.outer_iterations,
            "per_step_trace": self.per_step_trace,
        }
        out: List[str] = []
        _append_json(doc, "\n", out)
        out.append("\n")
        return "".join(out)


_INFINITY = float("inf")
# '"key": ' of every key written so far: a report has a few dozen distinct keys
_KEY_HEADS: dict = {}


def _float_text(value: float) -> str:
    """json's text of a float: its repr, or NaN, Infinity or -Infinity."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# json's text of a leaf, by its exact type
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda flag: "true" if flag else "false",
    type(None): lambda _: "null",
}


def _key_head(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"report keys must be str, not {type(key).__name__}")
    head = _KEY_HEADS[key] = encode_basestring_ascii(key) + ": "
    return head


def _append_json(value, pad: str, out: List[str]) -> None:
    """Append the text json.dumps(value, sort_keys=True, indent=2) gives
    `value` to `out`, `pad` being a newline and the indent of value's level.

    Dicts, lists and the leaves of _LEAF_TEXT, the types a report holds,
    are told apart by exact type.  Any other value raises json's TypeError,
    also a tuple or a subclass such as IntEnum or np.float64, which json
    would write; so does a key that is not a str, where json would write an
    int, float, bool or None key as a string.
    """
    cls = type(value)
    if cls is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            head = _KEY_HEADS.get(key) or _key_head(key)
            item = value[key]
            text = _LEAF_TEXT.get(type(item))
            if text is None:
                out.append(sep + head)
                _append_json(item, inner, out)
            else:
                out.append(sep + head + text(item))
            sep = "," + inner
        out.append(pad + "}")
    elif cls is list:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            text = _LEAF_TEXT.get(type(item))
            if text is None:
                out.append(sep)
                _append_json(item, inner, out)
            else:
                out.append(sep + text(item))
            sep = "," + inner
        out.append(pad + "]")
    elif cls in _LEAF_TEXT:
        out.append(_LEAF_TEXT[cls](value))
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _delta_for(family: VertexFamily) -> float:
    if family.restriction.domain_size > family.big_r:
        return closed_form_gap(family.restriction.domain_size, family.big_r)
    return 1.0


def _verify_tuple(
    fn: FunctionTable, ledger: CostLedger, image: int, preimages: Tuple[int, ...]
) -> None:
    """Classical confirmation of a measured tuple, with counted queries."""
    if len(set(preimages)) != len(preimages) or len(preimages) < 2:
        raise ContractViolationError("measured tuple is not a valid collision")
    for x in preimages:
        ledger.oracle_queries += 1
        if fn.query(x) != image:
            raise ContractViolationError(
                f"measured preimage {x} does not map to image {image}"
            )


def _extract_one(state, family, rng, ledger, fn, trace):
    """Extract one tuple, charge and verify it, and check the residual against
    the index of the shrunken family (`index.child`: the law of the domain
    less the tuple's class, at R - |P|).

    Returns (tuple, state, family); state is None once the extraction has
    emptied the vertex (R' = 0).
    """
    delta = _delta_for(family)
    out, fs = extract_tuple(state, family, rng, trace)
    ledger.extraction_events += 1
    ledger.charge_flip(fs, delta)
    found = (out.image, out.preimages)
    _verify_tuple(fn, ledger, *found)
    if out.collapsed is not None:
        check_class(out.collapsed, out.new_family)
    return found, out.collapsed, out.new_family


def _flip_charged(state, family, good, want, rng, ledger) -> Levels:
    """Amplify toward (GOOD) or away from (BAD) the counts where good holds."""
    state, fs = flip(state, good, want, rng)
    ledger.charge_flip(fs, _delta_for(family))
    return state


def _measure_count(state, family, rng):
    """Measure the exact tuple count z and narrow the family to [z, z]."""
    count, state = measure(state, lambda c: c, rng)
    family = replace(family, lo=count, hi=count)
    check_class(state, family)
    return state, family


def _project_window(state, family, plan, rng, ledger):
    """Window-policy entry: amplify onto the vertices holding [E, E+T] tuples."""
    lo, hi = plan.expected_now, plan.expected_now + plan.width
    if state.index.class_size(lo, hi) == 0:
        raise FlaggedInstanceError(f"no vertices hold [{lo}, {hi}] tuples.")
    state = _flip_charged(state, family, in_range(lo, hi), Want.GOOD, rng, ledger)
    family = replace(family, lo=lo, hi=hi)
    check_class(state, family)
    return state, family


def _count_walk(state, family, rng, ledger):
    """Count-policy walk: amplify onto vertices holding a tuple, measure z."""
    if family.hi is None:
        good, want = in_range(1, None), Want.GOOD
    else:
        good, want = in_range(0, family.hi), Want.BAD
    state = _flip_charged(state, family, good, want, rng, ledger)
    return _measure_count(state, family, rng)


def extraction_step(
    state: Levels,
    family: VertexFamily,
    plan: IntervalPlan,
    rng: Uniform,
    ledger: CostLedger,
    fn: FunctionTable,
    trace: List[dict],
):
    """Dense-regime extraction: T tuples, then a few more to re-center.

    Starting from a state over [x, y], extracts plan.width tuples (interval
    slides to [x-T, y-T]) and keeps extracting while the upper bound still
    exceeds the recomputed expectation for the shrunken subset size.  Returns
    (tuples, state, family, refreshed plan); state is None once the vertex
    is emptied.
    """
    if plan.expected_now < 2:
        raise FlaggedInstanceError(f"dense extraction needs E >= 2, got {plan.expected_now}.")
    tuples = []
    for _ in range(plan.width):
        found, state, family = _extract_one(state, family, rng, ledger, fn, trace)
        tuples.append(found)
    while family.hi > window(plan.c, family.big_r, family.restriction.codomain_size)[0]:
        if family.lo < 1:
            raise FlaggedInstanceError("interval re-centering ran out of extractable tuples.")
        found, state, family = _extract_one(state, family, rng, ledger, fn, trace)
        tuples.append(found)
    new_plan = plan.refreshed(family.big_r, family.restriction.codomain_size)
    return tuples, state, family, new_plan


def walk_step(
    state: Levels,
    family: VertexFamily,
    plan: IntervalPlan,
    rng: Uniform,
    ledger: CostLedger,
):
    """Dense-regime walk: push the interval from [E-T, E] up to [E+1, E+T].

    The count cells are [0, E-T-1], [E-T, E], [E+1, E+T] and [E+T+1, inf).
    The state is uniform over the family's class, which the premise puts in
    the second cell, so the walk starts from that class without measuring
    and hops (levels.hop_until) from the class to a cell of its complement
    until the third cell comes up.  The hops' iterations are charged as
    diffusions, once, from their merged work record.  Returns (state,
    family over [E+1, E+T], stats).
    """
    e_now, width = plan.expected_now, plan.width
    lo_cell = max(0, e_now - width)
    if not (lo_cell <= family.lo and family.hi is not None and family.hi <= e_now):
        raise ParameterError(
            f"walk step expects a state inside [{lo_cell}, {e_now}], "
            f"got {family.interval_label()}"
        )
    if state.index.class_size(e_now + 1, e_now + width) == 0:
        raise FlaggedInstanceError(f"target cell [{e_now + 1}, {e_now + width}] is empty.")

    def cell_of(count: int) -> int:
        if count < lo_cell:
            return 0
        if count <= e_now:
            return 1
        if count <= e_now + width:
            return 2
        return 3

    state, stats = hop_until(
        state, lambda _: cell_of, lambda current: cell_of(min(current.counts)) == 2, rng,
        f"walk step did not reach the target cell in {MAX_TRANSITIONS} hops",
    )
    ledger.charge_flip(stats, _delta_for(family))
    new_family = replace(family, lo=e_now + 1, hi=e_now + width)
    check_class(state, new_family)
    return state, new_family, stats


def _record(result_trace, step, phase, family, support, **extra) -> None:
    entry = {
        "iteration": step,
        "phase": phase,
        "interval": family.interval_label(),
        "subset_size": family.big_r,
        "support_size": support,
        "uniform_ok": True,
    }
    entry.update(extra)
    result_trace.append(entry)


def run(config: ChainConfig) -> ChainResult:
    """Execute the chained loop end to end on a freshly generated function.

    The function table derives from config.seed, as does the measurement
    stream, so identical configs give identical results.  Each outer iteration
    pairs an extraction phase with a walk phase of the interval policy in
    force (module docstring): the count policy walks first, and only when the
    class holds no tuple; the window policy walks after extracting.
    Statuses: COMPLETED (target reached), CAPACITY (exclusion closure hit half
    the domain), MAX_ITERATIONS (loop bound), SPARSE_FALLBACK (no vertex holds
    a tuple, or the vertex was emptied).
    """
    params = config.params
    fn = generate_function(params, config.seed)
    rng = Stream([config.seed, 1])
    ledger = CostLedger(
        predicted_total=predict_cost(params, float(config.ell), "new").total
    )
    restriction = restrict(fn, CollisionTable())
    big_r = config.vertex_size
    # LawIndex refuses an R above the domain, as every family index does
    # (law.family_total)
    state = Levels.uniform(LawIndex(restriction, big_r))
    family = VertexFamily(restriction, big_r, 0, None)
    ledger.setup_calls = 1
    fn.charge(big_r)
    ledger.oracle_queries += big_r

    trace: List[dict] = []
    _record(trace, 0, "setup", family, state.support())

    m_size = restriction.codomain_size
    plan: Optional[IntervalPlan] = None
    if 8 * big_r < m_size and window(_CALIBRATION_C, big_r, m_size)[0] >= 2:
        plan = IntervalPlan.build(big_r, m_size, _CALIBRATION_C)
        state, family = _project_window(state, family, plan, rng, ledger)
        _record(trace, 0, "project", family, state.support())
    regime = "sparse" if plan is None else "dense"

    status = ChainStatus.MAX_ITERATIONS
    outer = 0
    try:
        while (
            outer < config.outer_bound
            and len(family.restriction.table) < config.target
        ):
            outer += 1
            if plan is None:
                if family.lo < 1:
                    if family.big_r < 2 or state.index.class_size(1, None) == 0:
                        status = ChainStatus.SPARSE_FALLBACK
                        break
                    state, family = _count_walk(state, family, rng, ledger)
                    _record(trace, outer, "walk", family, state.support())
                _, state, family = _extract_one(state, family, rng, ledger, fn, trace)
            else:
                _, state, family, plan = extraction_step(
                    state, family, plan, rng, trace=trace, ledger=ledger, fn=fn,
                )
            if family.big_r < 1:
                status = ChainStatus.SPARSE_FALLBACK
                break
            _record(
                trace, outer, "extraction", family, state.support(),
                tuples_total=len(family.restriction.table),
            )
            if plan is None or len(family.restriction.table) >= config.target:
                continue
            if plan.expected_now < 2:
                plan, regime = None, "mixed"
                state, family = _measure_count(state, family, rng)
                _record(trace, outer, "regime-switch", family, state.support())
            else:
                state, family, _ = walk_step(state, family, plan, rng, ledger=ledger)
                _record(trace, outer, "walk", family, state.support())
    except CapacityError:
        status = ChainStatus.CAPACITY

    table = family.restriction.table
    if len(table) >= config.target:
        status = ChainStatus.COMPLETED
    if ledger.oracle_queries != fn.query_count:
        raise ContractViolationError(
            f"ledger mismatch: {ledger.oracle_queries} recorded vs "
            f"{fn.query_count} counted oracle queries"
        )
    return ChainResult(
        config=config,
        collision_table=table,
        ledger=ledger,
        outer_iterations=outer,
        status=status,
        regime=regime,
        per_step_trace=trace,
    )
