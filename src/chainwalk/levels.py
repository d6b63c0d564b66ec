"""A run's states held as one amplitude per vertex count.

Every state chain.run holds depends on a vertex only through its tuple count
z.  The run starts uniform over the family, and each operator it applies
keeps a state of the form sum_c a_c 1[z = c]: the reflection about the
uniform axis, the sign flips and measurements on count predicates, and the
padded register, whose dummy outcomes keep a count range and whose tuple
outcomes keep every holder of the tuple, which is the whole child index with
each count one less.  This is Grover's invariant subspace (Boyer, Brassard,
Hoyer and Tapp 1998).  So a Levels state is a family index and one float64
amplitude per count 0..max_count, and each operation is arithmetic on those
amplitudes and the class sizes |V_c|, with no vector over the vertices.  The
index is read only through law.CountIndex's count-level questions: the sizes
and their total, class sizes, per-count labels, the held tuples with their
holders per count (tuple_holders) and the child after a tuple (child).  A run
holds law.LawIndex, which answers them from the family's exact law without a
vertex; extraction.FamilyIndex answers them off its enumerated vertices, and
the differential tests drive both.

The form is exact: the vector path computes each vertex's amplitude by the
same elementwise arithmetic from the same operands as every other vertex of
its class, so the amplitude a class holds here is, bit for bit, the one each
of its vertices holds there, wherever the reductions agree.  One reduction is
reproduced bit for bit, because a boundary sits exactly on it: flip's good
mass, the running sum of |G| equal weights (1/sqrt V)^2 that
State.probability takes (_running_sum).  At |G| = V/2 it decides both the
alpha > 1/sqrt(2) branch and iteration_count.

Every other weight is a closed form: a count class's is |V_c| a_c^2, a tuple
label's in the padded register is its holders per count against each
count's branch weight (holders @ power), and the Grover round's inner
product is sum_c |V_c| a_c^2.  Each can differ from the vector's sum in the
last bits; a draw can then differ only when it lands that close to a label
boundary.  Both kinds of index give the same integers, so a run draws the
same on either.
Outcomes are read through np.array([...]).tolist(), as the vector path reads
them, so a bool label stays a bool and a count an int.

Each operation ends with the vector path's checks: amplitudes of magnitude
PRUNE_EPS or below become exact zeros and norm^2 = sum_c |V_c| a_c^2 must be
within NORM_TOL of 1 (_settled).  check_class is check_uniform_class with an
index: the support is the family's whole count class and every amplitude is
within 1e-9 of uniform.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .amplify import _HALF, _ZERO_AMP, FlipStats, Want, iteration_count, split
from .errors import (
    FlaggedInstanceError,
    ImpossibleTargetError,
    ParameterError,
    SimulationError,
    ValidationError,
)
from .extraction import (
    _UNIFORM_TOL,
    MAX_TRANSITIONS,
    ExtractionOutcome,
    VertexFamily,
    _row_tuple,
    in_range,
)
from .law import CountIndex
from .oracle import restrict
from .statevector import NORM_TOL, PRUNE_EPS, State, _draw_label


class Levels:
    """Amplitude amps[c] on every vertex of `index` whose count is c.

    `amps` is float64, one entry per count 0..index.max_count(), settled on
    construction (see _settled); a count no vertex has holds 0.
    """

    __slots__ = ("index", "amps")

    def __init__(self, index: CountIndex, amps: np.ndarray) -> None:
        self.index = index
        self.amps = _settled(amps, index.sizes)

    @classmethod
    def uniform(cls, index: CountIndex, lo: int = 0, hi: Optional[int] = None) -> "Levels":
        """Uniform over the vertices with count in [lo, hi]: the diffusion
        axis by default, FamilyIndex.class_state's state otherwise."""
        size = index.class_size(lo, hi)
        if not size:
            raise ImpossibleTargetError(f"no vertices with count in [{lo}, {hi}]")
        inside = index.per_count(in_range(lo, hi))
        return cls(index, np.where(inside, 1.0 / np.sqrt(size), 0.0))

    def __len__(self) -> int:
        """The support size: the vertices of nonzero amplitude."""
        return int(self.index.sizes[self.amps != 0].sum())

    def as_state(self) -> State:
        """The same state as a vector over the index's basis (a
        FamilyIndex's: a LawIndex holds no vertices to lay it over)."""
        return State.over(self.index.basis, self.amps[self.index.counts])


def _settled(amps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """statevector._settled on count amplitudes, in place: prune, then check
    norm^2 = sum_c |V_c| a_c^2.  A count no vertex has is set to 0."""
    amps[(np.abs(amps) <= PRUNE_EPS) | (sizes == 0)] = 0
    norm2 = float(sizes @ (amps * amps))
    if not norm2:
        raise ValidationError("state has no support")
    if abs(norm2 - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm^2 = {norm2!r}, outside tolerance")
    return amps


def _running_sum(weight: float, count: int) -> float:
    """0.0 plus `weight` `count` times, rounded after each addition: the last
    entry of np.cumsum over `count` copies of `weight`.

    While the sum stays in one binade, whose floats are the multiples of one
    ulp, each addition rounds weight to a multiple of that ulp the same way,
    except that a tie rounds to an even significand, which can change the
    rounding once.  So two equal rises within a binade repeat until near the
    binade's top, and the sum jumps over them in one exact product.  That is
    O(log count) additions.
    """
    if not count:
        return 0.0
    total, count = weight, count - 1
    while count:
        top = math.ldexp(1.0, math.frexp(total)[1])
        rise = None
        while count:
            nxt = total + weight
            count -= 1
            if nxt >= top:
                total = nxt
                break
            step, total = nxt - total, nxt
            if not step:
                return total
            if step == rise:
                jumps = min(count, int((top - total) / rise) - 3)
                if jumps > 0:
                    total += jumps * rise
                    count -= jumps
            rise = step
    return total


def _measure(state: Levels, table: np.ndarray, rng: np.random.Generator):
    live = np.flatnonzero(state.amps)
    distinct, ids = np.unique(table[live], return_inverse=True)
    weights = np.bincount(
        ids, state.index.sizes[live] * state.amps[live] ** 2, len(distinct)
    ).tolist()
    chosen = _draw_label(weights, rng)
    keep = live[ids == chosen]
    amps = np.zeros_like(state.amps)
    amps[keep] = state.amps[keep] * (1.0 / np.sqrt(weights[chosen]))
    return distinct.tolist()[chosen], Levels(state.index, amps)


def measure(state: Levels, label: Callable[[int], object], rng: np.random.Generator):
    """statevector.measure of the register label(count): (outcome, collapsed)."""
    return _measure(state, state.index.per_count(label), rng)


def _grover(state: Levels, flags: np.ndarray, count: int) -> Levels:
    """amplify.grover_iterate: count rounds of (Ref_axis . Ref_flip), each
    negating the counts off `flags` and adding (-2 <u, w>) u."""
    sizes = state.index.sizes
    axis = np.where(sizes > 0, 1.0 / np.sqrt(state.index.total), 0.0)
    weighted = sizes * axis

    def round_of(amps):
        reflected = np.where(flags, amps, -amps)
        reflected += (-2.0 * (weighted @ reflected)) * axis
        return reflected

    amps = state.amps
    for _ in range(count - 1):
        amps = _settled(round_of(amps), sizes)
    return Levels(state.index, round_of(amps))


def flip(
    state: Levels,
    good: Callable[[int], bool],
    want: Want,
    rng: np.random.Generator,
) -> Tuple[Levels, FlipStats]:
    """amplify.flip against the index's uniform axis, good(count) marking the
    good vertices: rounds of iterate-then-measure until the flag measurement
    lands on `want`, or fresh axis measurements when the good side is wanted
    and holds more than half the axis."""
    index = state.index
    flags = index.per_count(good).astype(bool, copy=False)
    unit = 1.0 / np.sqrt(index.total)
    dec = split(_running_sum(unit * unit, int(index.sizes[flags].sum())))
    target_amp = dec.alpha if want is Want.GOOD else dec.beta
    if target_amp <= _ZERO_AMP:
        raise ImpossibleTargetError(f"axis has no {want.value} component")
    stats = FlipStats()
    wanted_label = want is Want.GOOD

    if want is Want.GOOD and dec.alpha > _HALF:
        axis = Levels.uniform(index)
        while True:
            stats.attempts += 1
            outcome, collapsed = _measure(axis, flags, rng)
            if outcome == wanted_label:
                return collapsed, stats
            stats.restarts += 1

    count = iteration_count(dec.alpha) if dec.alpha > _ZERO_AMP else 1
    if want is Want.BAD:
        count = max(1, count)
    current = state
    while True:
        stats.attempts += 1
        current = _grover(current, flags, count)
        stats.iterations_used += count
        outcome, current = _measure(current, flags, rng)
        if outcome == wanted_label:
            return current, stats
        stats.restarts += 1


def check_class(state: Levels, family: VertexFamily) -> None:
    """extraction.check_uniform_class with the state's index: raise
    ValidationError unless the support is the family's whole count class and
    every amplitude is within 1e-9 of uniform over it."""
    sizes, amps = state.index.sizes, state.amps
    live = np.flatnonzero(amps)
    top = len(sizes) - 1 if family.hi is None else family.hi
    members = family.lo + np.flatnonzero(sizes[family.lo:top + 1])
    if not np.array_equal(live, members):
        raise ValidationError(
            f"state support does not match family {family.interval_label()}"
        )
    target = 1.0 / math.sqrt(len(state))
    if np.any(np.abs(np.abs(amps[live]) - target) > _UNIFORM_TOL):
        raise ValidationError("state is not uniform over its support")


def hop_out(
    state: Levels,
    cls: frozenset,
    cell: Callable[[int], object],
    rng: np.random.Generator,
) -> Tuple[Levels, frozenset, FlipStats]:
    """extraction.hop: flip a state uniform over the count class cls off it,
    then measure cell(count).  Returns the state, the class of counts outside
    cls in the measured cell, and the flip's work record."""
    state, stats = flip(state, cls.__contains__, Want.BAD, rng)
    outcome, state = measure(state, cell, rng)
    rest = frozenset(range(len(state.index.sizes))) - cls
    return state, frozenset(c for c in rest if cell(c) == outcome), stats


def repair(
    state: Levels,
    family: VertexFamily,
    target_hi: int,
    rng: np.random.Generator,
) -> Tuple[Levels, FlipStats]:
    """extraction.correct_interval: widen a state over [lo, b] back to
    [lo, target_hi] by hops, splitting the complement at lo while it holds
    counts below lo and at target_hi + 1 otherwise.  The classes [lo,
    target_hi], [0, lo-1] and [target_hi+1, inf) must be nonempty."""
    x = family.lo
    b = family.hi
    if b is None or target_hi < x or b > target_hi:
        raise ParameterError(
            f"cannot correct interval [{x}, {b}] to [{x}, {target_hi}]"
        )
    if b == target_hi:
        return state, FlipStats()
    y = target_hi
    index = state.index
    low_size = index.class_size(0, x - 1) if x >= 1 else 0
    mid_size = index.class_size(x, y)
    top_size = index.class_size(y + 1, None)
    if mid_size == 0:
        raise ImpossibleTargetError(
            f"target class [{x}, {y}] holds no vertices"
        )
    if low_size == 0 or top_size == 0:
        raise FlaggedInstanceError(
            "The instance violates a statistical premise; it is skipped, "
            f"not patched: classes below {x} and above {y} must be nonempty "
            f"(sizes {low_size}, {top_size})."
        )
    stats = FlipStats()
    cls, target = frozenset(range(x, b + 1)), frozenset(range(x, y + 1))
    for _ in range(MAX_TRANSITIONS):
        if cls == target:
            return state, stats
        split_at = y + 1 if cls.issuperset(range(x)) else x
        state, cls, fs = hop_out(state, cls, lambda c: c >= split_at, rng)
        stats.absorb(fs)
    raise SimulationError(
        f"interval correction did not converge in {MAX_TRANSITIONS} transitions"
    )


def extract_once(
    state: Levels, family: VertexFamily, rng: np.random.Generator
) -> ExtractionOutcome:
    """extraction.extract_once on a state uniform over the family's class.

    The dummy d_i's weight is the closed form over the counts below i; each
    tuple's is its holders per count against each count's branch weight.  A
    tuple outcome leaves the holders, which make up the index's child, each
    one count lower; when the cut empties the vertex (R' = 0), collapsed and
    new_index are None.  A dummy outcome d_i keeps the counts below i.
    """
    if family.hi is None:
        raise ParameterError(
            "extraction needs a finite upper bound; reframe the family first"
        )
    y = family.hi
    if y < 1:
        raise ParameterError("cannot extract from a family with hi = 0")
    check_class(state, family)
    index, amps = state.index, state.amps
    found, holders = index.tuple_holders(amps != 0)
    inv = 1.0 / math.sqrt(y)
    power = (amps * inv) ** 2
    held = holders @ power
    below = np.cumsum(index.sizes * power)
    dummies = below.take(np.minimum(np.arange(y), len(below) - 1))
    weights = dummies.tolist() + held.tolist()
    outcome = _draw_label(weights, rng)
    scale = 1.0 / np.sqrt(weights[outcome])
    if outcome >= y:
        image, preimages = _row_tuple(found[outcome - y].tolist())
        table = family.restriction.table.insert(family.restriction.base, image, preimages)
        new_family = VertexFamily(
            restriction=restrict(family.restriction.base, table),
            big_r=family.big_r - len(preimages),
            lo=max(0, family.lo - 1),
            hi=y - 1,
        )
        if new_family.big_r:
            new_index = index.child(new_family.restriction, new_family.big_r)
            # a holder of count c is a child vertex of count c - 1
            child = amps[1:len(new_index.sizes) + 1] * inv * scale
            collapsed: Optional[Levels] = Levels(new_index, child)
        else:
            # the tuple was the one collapsed vertex, of count 1
            _settled(amps[1:2] * inv * scale, np.ones(1, dtype=np.int64))
            new_index, collapsed = None, None
        return ExtractionOutcome(
            kind="tuple", image=image, preimages=preimages, dummy_index=None,
            collapsed=collapsed, new_family=new_family, new_index=new_index,
        )
    kept = np.zeros_like(amps)
    kept[:outcome + 1] = amps[:outcome + 1] * inv * scale
    return ExtractionOutcome(
        kind="dummy", image=None, preimages=None, dummy_index=outcome + 1,
        collapsed=Levels(index, kept), new_family=replace(family, hi=outcome),
        new_index=index,
    )


def extract_tuple(
    state: Levels,
    family: VertexFamily,
    rng: np.random.Generator,
    trace: Optional[List[dict]] = None,
) -> Tuple[ExtractionOutcome, FlipStats]:
    """Repeat padded measurements until a tuple comes out.

    Dummy outcomes are repaired back to the full interval before retrying,
    so the expected number of measurement rounds is at most y/lo plus O(1).
    Returns the tuple outcome and the work record.  Trace entries, when a
    list is supplied, record each event; for a dummy event interval_after is
    the narrowed interval before repair and iterations is the repair's
    diffusion-iteration count.
    """
    if family.lo < 1:
        raise ParameterError(
            "tuple extraction requires every vertex to hold a tuple (lo >= 1)"
        )
    if family.hi is None:
        raise ParameterError("tuple extraction requires a finite upper bound")
    stats = FlipStats()
    for _ in range(MAX_TRANSITIONS):
        out = extract_once(state, family, rng)
        stats.attempts += 1
        fs = FlipStats()
        if out.kind == "dummy":
            state, fs = repair(out.collapsed, out.new_family, family.hi, rng)
            stats.absorb(fs)
        if trace is not None:
            trace.append({
                "event": out.kind,
                "image": out.image,
                "preimages": None if out.preimages is None else list(out.preimages),
                "interval_before": [family.lo, family.hi],
                "interval_after": [out.new_family.lo, out.new_family.hi],
                "iterations": fs.iterations_used,
            })
        if out.kind == "tuple":
            return out, stats
    raise SimulationError(
        f"no tuple outcome after {MAX_TRANSITIONS} padded measurements"
    )
