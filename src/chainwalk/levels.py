"""A run's states held as count classes.

Every state chain.run holds depends on a vertex only through its tuple count
z, and between operations it is, up to a global sign, the uniform state over
the vertices whose counts lie in one set, its class.  The run starts uniform
over the family.  A flip's rounds, the reflections about the uniform axis
and about a count predicate, keep the state in Grover's plane, spanned by
the uniform states over the good and the bad vertices (Boyer, Brassard,
Hoyer and Tapp 1998), and the flag measurement that ends each attempt
leaves one side of it.  A count or cell measurement keeps the counts of the
outcome, the padded register's dummy d_i the counts below i, and a tuple
outcome its holders, which make up the child index with each count one
less.  So a Levels state is (index, counts): a family index and the
frozenset of the counts of its class that hold vertices, and each operation
maps a class to a class, with no vector over the vertices, no amplitude and
no sign.  A flip lands with chance cos^2 phi, of period pi, and no count,
cell or padded draw reads a global sign.

Every outcome is drawn by _stream.choose, the package's one draw rule,
over integer weights.  From a class state every outcome of a measurement
has one: a count label's is the sum of |V_c| over its counts in the class,
the padded register's dummy d_i's the class's vertices below i and a
tuple's its holders in the class, over y times the class's size, so
classes past 2^63 vertices draw like small ones.  A flip's t rounds turn a
state of Grover's plane at angle phi, sin phi on the good-uniform state and
cos phi on the bad-uniform one, by 2 t theta, sin^2 theta = |G|/V, and its
flag then lands bad with the closed-form float chance cos^2 phi, drawn as
the weights (p, q - p) of that float's exact ratio p / q; a flip with no
rounds lands with weights (|B|, |G|).  A class that is neither the axis nor
one side of the flags lies off that plane and is refused.  That attempt is
all levels.flip writes: the loop, its plan, its bound and its refusal of an
empty wanted side are amplify.flip_until's, which the vector flip runs too,
on the axis's good share |G|/V.  That share is one correctly rounded
division of exact ints, so it reads 1/3 at |G| = V/3, exactly 1/2 at
|G| = V/2 and exactly 0 or 1 when a side is empty, however large V is; the
vector flip's share reads the same float on a uniform axis.  The axis's
angle is read off |G|/V and |B|/V too, which a float holds where V past
2^1024 would not.

The index is read only through law.CountIndex's count-level questions: the
sizes and their total, class sizes, per-count labels, the held tuples as
(image, preimages) pairs with their holders per count (tuple_holders) and
the child after a tuple (child).  A run holds law.LawIndex, which answers
them from the family's exact law without a vertex; extraction.FamilyIndex
answers them off its enumerated vertices, and the differential tests drive
both.

Only the state arithmetic is written here.  The decisions both paths take
on the same numbers are written once beside the vector path: a flip's loop
and plan in amplify (flip_until, flip_plan), interval repair's premises
and its target class in extraction.repair_classes, the cell each repair
hop measures in extraction.repair_cell and its give-up text,
extraction.REPAIR_STALLED, and extraction's padding width and the family a
tuple outcome leaves on VertexFamily (padding_width, after_tuple).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Iterable, List, Optional, Tuple

from ._stream import Uniform, choose
from .amplify import MAX_TRANSITIONS, FlipStats, Want, flip_until
from .errors import ImpossibleTargetError, ParameterError, SimulationError, ValidationError
from .extraction import (
    REPAIR_STALLED, ExtractionOutcome, VertexFamily, in_range, repair_cell, repair_classes,
)
from .law import CountIndex


class Levels:
    """1 / sqrt(support()), up to a global sign, on every vertex of `index`
    whose count is in `counts`, counts that hold vertices; 0 on every other
    vertex.  No counts raise ValidationError, and a count that holds no
    vertex of the index ParameterError."""

    __slots__ = ("index", "counts")

    def __init__(self, index: CountIndex, counts: Iterable[int]) -> None:
        self.index, self.counts = index, frozenset(counts)
        if not self.counts:
            raise ValidationError("state has no support")
        if not self.counts <= index.occupied:
            raise ParameterError("state holds a count with no vertex")

    @classmethod
    def uniform(cls, index: CountIndex, lo: int = 0, hi: Optional[int] = None) -> "Levels":
        """Uniform over the vertices with count in [lo, hi]: the diffusion
        axis by default, FamilyIndex.class_state's state otherwise."""
        counts = frozenset(filter(in_range(lo, hi), index.occupied))
        if not counts:
            raise ImpossibleTargetError(f"no vertices with count in [{lo}, {hi}]")
        return cls(index, counts)

    def support(self) -> int:
        """The support size: the vertices of the class, an exact int."""
        return sum(self.index.sizes[c] for c in self.counts)


def measure(state: Levels, label: Callable[[int], object], rng: Uniform):
    """statevector.measure of the register label(count): (outcome, collapsed)."""
    table, sizes = state.index.per_count(label), state.index.sizes
    weights: dict = {}
    for c in state.counts:
        weights[table[c]] = weights.get(table[c], 0) + sizes[c]
    distinct = sorted(weights)
    chosen = distinct[choose([weights[label] for label in distinct], rng)]
    kept = [c for c in state.counts if table[c] == chosen]
    return chosen, Levels(state.index, kept)


def flip(
    state: Levels,
    good: Callable[[int], bool],
    want: Want,
    rng: Uniform,
) -> Tuple[Levels, FlipStats]:
    """amplify.flip against the index's uniform axis, good(count) marking the
    good vertices: amplify.flip_until on the axis's good share |G|/V, each
    attempt turning the state's class in Grover's plane by the plan's rounds
    and drawing where the flag lands, or drawing a fresh axis's flag when
    the plan is None.  A state off Grover's plane raises ValidationError."""
    index = state.index
    axis = index.occupied
    sides = {True: frozenset(filter(good, axis))}
    sides[False] = axis - sides[True]
    good_size = sum(index.sizes[c] for c in sides[True])
    bad_size = index.total - good_size
    good_share = good_size / index.total
    # (sin phi, cos phi) of each class of Grover's plane, up to a positive
    # factor, read off the shares, which a float holds where the sizes past
    # 2^1024 would not; with no good vertex the axis is the bad side
    plane = {axis: (math.sqrt(good_share), math.sqrt(bad_size / index.total)),
             sides[True]: (1, 0), sides[False]: (0, 1)}
    theta = math.asin(math.sqrt(good_share))

    def attempt(state: Levels, rounds: Optional[int]) -> Tuple[bool, Levels]:
        if rounds is None:
            weights = [bad_size, good_size]
        else:
            if state.counts not in plane:
                raise ValidationError("state's class is neither the axis nor a side of the flip")
            phi = math.atan2(*plane[state.counts]) + 2 * rounds * theta
            bad, whole = (math.cos(phi) ** 2).as_integer_ratio()
            weights = [bad, whole - bad]
        landed = bool(choose(weights, rng))
        return landed, Levels(index, sides[landed])

    return flip_until(state, good_share, want, attempt)


def check_class(state: Levels, family: VertexFamily) -> None:
    """extraction.check_uniform_class with the state's index: raise
    ValidationError unless the state's class is the family's whole count
    class."""
    if state.counts != frozenset(filter(in_range(family.lo, family.hi), state.index.occupied)):
        raise ValidationError(
            f"state support does not match family {family.interval_label()}"
        )


def hop_until(
    state: Levels,
    cells: Callable[[Levels], Callable[[int], object]],
    done: Callable[[Levels], bool],
    rng: Uniform,
    failure: str,
) -> Tuple[Levels, FlipStats]:
    """The hops of extraction.correct_interval and of a walk step, until
    done(state) holds: each flips a class state off its class, then
    measures cells(state)(count), cells reading the state before the hop.
    Returns the state, uniform over the counts outside the last class in
    the measured cell, and the hops' merged work record; SimulationError,
    saying `failure`, follows MAX_TRANSITIONS hops that never reach done."""
    stats, hops = FlipStats(), 0
    while not done(state):
        if hops == MAX_TRANSITIONS:
            raise SimulationError(failure)
        hops += 1
        cell = cells(state)
        state, fs = flip(state, state.counts.__contains__, Want.BAD, rng)
        stats.absorb(fs)
        _, state = measure(state, cell, rng)
    return state, stats


def repair(
    state: Levels,
    family: VertexFamily,
    target_hi: int,
    rng: Uniform,
) -> Tuple[Levels, FlipStats]:
    """extraction.correct_interval: widen a state over [lo, b] back to
    [lo, target_hi], on the premises extraction.repair_classes checks and
    to the counts of its target class that hold vertices, by hops that
    measure extraction.repair_cell's cell for the class."""
    target = repair_classes(state.index, family, target_hi)[1] & state.index.occupied
    return hop_until(
        state, lambda current: repair_cell(current.counts, family, target_hi),
        lambda current: current.counts == target, rng,
        REPAIR_STALLED.format(MAX_TRANSITIONS),
    )


def extract_once(
    state: Levels, family: VertexFamily, rng: Uniform
) -> ExtractionOutcome:
    """extraction.extract_once on a state uniform over the family's class.

    The weights are integers over y times the class's size: the dummy
    d_i's the class's vertices below i, each tuple's, an (image, preimages)
    pair of the index's tuple_holders, its holders in the class.  A tuple
    outcome leaves the holders, which make up the index's child, each one
    count lower; when the cut empties the vertex (R' = 0), collapsed is
    None.  A dummy outcome d_i keeps the counts below i.
    """
    y = family.padding_width()
    check_class(state, family)
    index, counts = state.index, state.counts
    found, holders = index.tuple_holders(index.per_count(counts.__contains__))
    weights = [sum(index.sizes[c] for c in counts if c <= i) for i in range(y)]
    weights += [sum(row) for row in holders]
    outcome = choose(weights, rng)
    if outcome >= y:
        image, preimages = found[outcome - y]
        new_family = family.after_tuple(image, preimages)
        collapsed = None
        if new_family.big_r:
            child = index.child(new_family.restriction, new_family.big_r)
            # a holder of count c is a child vertex of count c - 1
            collapsed = Levels(child, child.occupied & {c - 1 for c in counts})
        return ExtractionOutcome(
            kind="tuple", image=image, preimages=preimages,
            collapsed=collapsed, new_family=new_family,
        )
    return ExtractionOutcome(
        kind="dummy", image=None, preimages=None,
        collapsed=Levels(index, [c for c in counts if c <= outcome]),
        new_family=replace(family, hi=outcome),
    )


def extract_tuple(
    state: Levels,
    family: VertexFamily,
    rng: Uniform,
    trace: List[dict],
) -> Tuple[ExtractionOutcome, FlipStats]:
    """Repeat padded measurements until a tuple comes out.

    Dummy outcomes are repaired back to the full interval before retrying,
    so the expected number of measurement rounds is at most y/lo plus O(1).
    Returns the tuple outcome and the work record.  Each event is appended
    to `trace`; for a dummy event interval_after is the narrowed interval
    before repair and iterations is the repair's diffusion-iteration count.
    A family with lo < 1 is refused here, and one without a finite upper
    bound by the first extract_once (VertexFamily.padding_width).
    """
    if family.lo < 1:
        raise ParameterError(
            "tuple extraction requires every vertex to hold a tuple (lo >= 1)"
        )
    stats = FlipStats()
    for _ in range(MAX_TRANSITIONS):
        out = extract_once(state, family, rng)
        stats.attempts += 1
        fs = FlipStats()
        if out.kind == "dummy":
            state, fs = repair(out.collapsed, out.new_family, family.hi, rng)
            stats.absorb(fs)
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
