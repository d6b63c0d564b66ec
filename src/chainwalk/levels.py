"""A run's states held as one amplitude per vertex count.

Every state chain.run holds depends on a vertex only through its tuple count
z.  The run starts uniform over the family, and each operator it applies
keeps a state of the form sum_c a_c 1[z = c]: the reflection about the
uniform axis, the sign flips and measurements on count predicates, and the
padded register, whose dummy outcomes keep a count range and whose tuple
outcomes keep every holder of the tuple, which is the whole child index with
each count one less.  This is Grover's invariant subspace (Boyer, Brassard,
Hoyer and Tapp 1998).  So a Levels state is a family index and one amplitude
per count 0..max_count, and each operation is arithmetic on those amplitudes
and the class sizes |V_c|, with no vector over the vertices.  They are a few
entries each, so the amplitudes are a list of Python floats, the sizes exact
Python ints, and every operation a loop over them: numpy's per-call cost
would outweigh the arithmetic, and exact ints take sizes past 2^63.  The
index is read only through law.CountIndex's count-level questions: the sizes
and their total, class sizes, per-count labels, the held tuples as (image,
preimages) pairs with their holders per count (tuple_holders) and the child
after a tuple (child).  A run holds law.LawIndex, which answers them from the
family's exact law without a vertex; extraction.FamilyIndex answers them off
its enumerated vertices, and the differential tests drive both.

The form is exact: the vector path computes each vertex's amplitude by the
same elementwise arithmetic from the same operands as every other vertex of
its class, so the amplitude a class holds here is, bit for bit, the one each
of its vertices holds there, wherever the reductions agree.  Only one
reduction is reproduced bit for bit, because a boundary sits exactly on it:
flip's good mass, the running sum of |G| equal weights (1/sqrt V)^2 that
State.probability takes (_running_sum).  amplify.flip_rounds plans both
paths' flips from that mass, and at |G| = V/2 it decides both the
alpha > 1/sqrt(2) branch and iteration_count.

Every other weight is a closed form: a count class's is |V_c| a_c^2, and a
tuple label's in the padded register is its holders per count against each
count's branch weight (holders @ power).  Each can differ from the vector's
sum in the last bits; a draw can then differ only when it lands that close
to a label boundary.  Both kinds of index give the same integers, so a run
draws the same on either.  Every such sum is an explicit left-to-right fold
in count order, with each product rounded before it is added: the same value
on every Python and every machine, where builtin sum() compensates from
Python 3.12 on and a BLAS dot or matrix-vector product may fuse or reorder
its terms.  Squares are x * x, and labels are sorted as sorted() sorts them,
so a bool label stays a bool and a count an int.

A flip's rounds are a closed form too.  Every state a flip starts from is
uniform on each side of its flags, so it lies in Grover's plane, and t
rounds turn it by 2 t theta, sin^2 theta = |G|/V, in one rotation (_grover,
which refuses a state off that plane).  Its amplitudes agree with the
vector path's rounds within rounding, not bit for bit, and a flip costs the
same whatever its round count.

Only the state arithmetic is written here.  The decisions both paths take
on the same numbers are written once beside the vector path: a flip's plan
in amplify.flip_rounds, interval repair's premises and its start and target
classes in extraction.repair_classes, and extraction's padding width and the
family a tuple outcome leaves on VertexFamily (padding_width, after_tuple).

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

from ._stream import Uniform
from .amplify import MAX_TRANSITIONS, FlipStats, Want, flip_attempts, flip_rounds
from .errors import ImpossibleTargetError, ParameterError, SimulationError, ValidationError
from .extraction import (
    _UNIFORM_TOL,
    ExtractionOutcome,
    VertexFamily,
    in_range,
    repair_classes,
)
from .law import CountIndex
from .statevector import NORM_TOL, PRUNE_EPS, State, _draw_label


class Levels:
    """Amplitude amps[c] on every vertex of `index` whose count is c.

    `amps` is a list of Python floats, one per count 0..index.max_count(),
    settled on construction (see _settled); a count no vertex has holds 0.
    """

    __slots__ = ("index", "amps")

    def __init__(self, index: CountIndex, amps: List[float]) -> None:
        self.index = index
        self.amps = _settled(amps, index.sizes)

    @classmethod
    def uniform(cls, index: CountIndex, lo: int = 0, hi: Optional[int] = None) -> "Levels":
        """Uniform over the vertices with count in [lo, hi]: the diffusion
        axis by default, FamilyIndex.class_state's state otherwise."""
        size = index.class_size(lo, hi)
        if not size:
            raise ImpossibleTargetError(f"no vertices with count in [{lo}, {hi}]")
        amp, inside = 1.0 / math.sqrt(size), in_range(lo, hi)
        return cls(index, [amp if inside(c) else 0.0 for c in range(len(index.sizes))])

    def __len__(self) -> int:
        """The support size: the vertices of nonzero amplitude."""
        return sum(size for size, a in zip(self.index.sizes, self.amps) if a)

    def as_state(self) -> State:
        """The same state as a vector over the index's basis (a
        FamilyIndex's: a LawIndex holds no vertices to lay it over)."""
        return State.over(self.index.basis, np.array(self.amps)[self.index.counts])


def _settled(amps: List[float], sizes: List[int]) -> List[float]:
    """statevector._settled on count amplitudes, in place: prune, then check
    norm^2 = sum_c |V_c| a_c^2, folded left to right.  A count no vertex has
    is set to 0; a NaN is kept, and fails the check."""
    if len(amps) != len(sizes):
        raise ValidationError(f"{len(amps)} amplitudes for {len(sizes)} counts")
    norm2 = 0.0
    for c, size in enumerate(sizes):
        a = amps[c]
        if not size or abs(a) <= PRUNE_EPS:
            amps[c] = 0.0
        else:
            norm2 += size * (a * a)
    if not norm2:
        raise ValidationError("state has no support")
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise ValidationError(f"state norm^2 = {norm2!r}, outside tolerance")
    return amps


def _running_sum(weight: float, count: int) -> float:
    """0.0 plus `weight` `count` times, rounded after each addition: the last
    entry of np.cumsum over `count` copies of `weight`.

    While the sum stays in one binade, whose floats are the multiples of one
    ulp, each addition rounds weight to a multiple of that ulp the same way,
    except that a tie rounds to an even significand, which can change the
    rounding once.  So two equal rises within a binade repeat until near the
    binade's top, and the sum jumps over them in one exact product: j rises
    with j the floored quotient (top - total) / rise less 1, so that
    j * rise < top - total (both are whole ulps below 2^52 of them, so the
    float quotient floors to the exact one).  That is O(log count) additions.
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
                jumps = min(count, int((top - total) / rise) - 1)
                if jumps > 0:
                    total += jumps * rise
                    count -= jumps
            rise = step
    return total


def _measure(state: Levels, table: list, rng: Uniform):
    amps, sizes = state.amps, state.index.sizes
    # a label's weight summed in count order, as _collapse's np.bincount
    # sums a label's entries in order
    weights: dict = {}
    for c, a in enumerate(amps):
        if a:
            label = table[c]
            weights[label] = weights.get(label, 0.0) + sizes[c] * (a * a)
    distinct = sorted(weights)
    chosen = distinct[_draw_label([weights[label] for label in distinct], rng)]
    scale = 1.0 / math.sqrt(weights[chosen])
    kept = [a * scale if a and table[c] == chosen else 0.0 for c, a in enumerate(amps)]
    return chosen, Levels(state.index, kept)


def measure(state: Levels, label: Callable[[int], object], rng: Uniform):
    """statevector.measure of the register label(count): (outcome, collapsed)."""
    return _measure(state, state.index.per_count(label), rng)


def _grover(state: Levels, flags: List[bool], count: int) -> Levels:
    """amplify.grover_iterate in closed form: count rounds of (Ref_axis .
    Ref_flip) turn a state of Grover's plane, sqrt|G| a_good on the
    good-uniform and sqrt|B| a_bad on the bad-uniform state, by 2 count theta
    with sin^2 theta = |G|/V.  A state not uniform on each side of `flags`
    lies off that plane and raises ValidationError."""
    total, good, side = state.index.total, 0, {}
    for a, size, flag in zip(state.amps, state.index.sizes, flags):
        if size:
            good += size if flag else 0
            if side.setdefault(flag, a) != a:
                raise ValidationError("state is not uniform on each side of the flip")
    bad = total - good
    g, b = math.sqrt(good) * side.get(True, 0.0), math.sqrt(bad) * side.get(False, 0.0)
    phi = math.atan2(g, b) + 2 * count * math.asin(math.sqrt(good / total))
    good_amp = math.sin(phi) / math.sqrt(good) if good else 0.0
    bad_amp = math.cos(phi) / math.sqrt(bad) if bad else 0.0
    return Levels(state.index, [good_amp if flag else bad_amp for flag in flags])


def flip(
    state: Levels,
    good: Callable[[int], bool],
    want: Want,
    rng: Uniform,
) -> Tuple[Levels, FlipStats]:
    """amplify.flip against the index's uniform axis, good(count) marking the
    good vertices, on amplify.flip_rounds' plan for the axis's good mass:
    rounds of iterate-then-measure until the flag measurement lands on
    `want`, or fresh axis measurements when the plan is None.  A wanted side
    with no vertex raises ImpossibleTargetError, whatever the mass rounds to,
    and SimulationError follows amplify.flip_attempts' attempts that all
    miss."""
    index = state.index
    flags = [bool(good(c)) for c in range(len(index.sizes))]
    unit = 1.0 / math.sqrt(index.total)
    good_size = sum(size for size, flag in zip(index.sizes, flags) if flag)
    if good_size == (0 if want is Want.GOOD else index.total):
        raise ImpossibleTargetError(f"axis has no {want.value} component")
    good_mass = _running_sum(unit * unit, good_size)
    rounds = flip_rounds(good_mass, want)
    attempts = flip_attempts(good_mass, rounds)
    stats = FlipStats()
    for _ in range(attempts):
        stats.attempts += 1
        if rounds is None:
            state = Levels.uniform(index)
        else:
            state = _grover(state, flags, rounds)
            stats.iterations_used += rounds
        outcome, state = _measure(state, flags, rng)
        if outcome == (want is Want.GOOD):
            return state, stats
        stats.restarts += 1
    raise SimulationError(
        f"flip did not land on {want.value} in {attempts} measurements"
    )


def check_class(state: Levels, family: VertexFamily) -> None:
    """extraction.check_uniform_class with the state's index: raise
    ValidationError unless the support is the family's whole count class and
    every amplitude is within 1e-9 of uniform over it."""
    sizes, amps = state.index.sizes, state.amps
    live = [c for c, a in enumerate(amps) if a]
    top = len(sizes) - 1 if family.hi is None else family.hi
    members = [c for c, size in enumerate(sizes[family.lo:top + 1], family.lo) if size]
    if live != members:
        raise ValidationError(
            f"state support does not match family {family.interval_label()}"
        )
    target = 1.0 / math.sqrt(len(state))
    if any(abs(abs(amps[c]) - target) > _UNIFORM_TOL for c in live):
        raise ValidationError("state is not uniform over its support")


def hop_out(
    state: Levels,
    cls: frozenset,
    cell: Callable[[int], object],
    rng: Uniform,
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
    rng: Uniform,
) -> Tuple[Levels, FlipStats]:
    """extraction.correct_interval: widen a state over [lo, b] back to
    [lo, target_hi] by hops from the classes extraction.repair_classes
    gives, splitting the complement at lo while it holds counts below lo and
    at target_hi + 1 otherwise."""
    cls, target = repair_classes(state.index, family, target_hi)
    stats = FlipStats()
    for _ in range(MAX_TRANSITIONS):
        if cls == target:
            return state, stats
        split_at = target_hi + 1 if cls.issuperset(range(family.lo)) else family.lo
        state, cls, fs = hop_out(state, cls, lambda c: c >= split_at, rng)
        stats.absorb(fs)
    raise SimulationError(
        f"interval correction did not converge in {MAX_TRANSITIONS} transitions"
    )


def extract_once(
    state: Levels, family: VertexFamily, rng: Uniform
) -> ExtractionOutcome:
    """extraction.extract_once on a state uniform over the family's class.

    The dummy d_i's weight is the closed form over the counts below i; each
    tuple's, an (image, preimages) pair of the index's tuple_holders, is its
    holders per count against each count's branch weight.  A tuple outcome
    leaves the holders, which make up the index's child, each one count
    lower; when the cut empties the vertex (R' = 0), collapsed and new_index
    are None.  A dummy outcome d_i keeps the counts below i.
    """
    y = family.padding_width()
    check_class(state, family)
    index, amps = state.index, state.amps
    found, holders = index.tuple_holders([a != 0 for a in amps])
    inv = 1.0 / math.sqrt(y)
    scaled = [a * inv for a in amps]
    power = [s * s for s in scaled]
    # every weight a left fold in count order: dummy d_i's over the counts
    # below i, a tuple's over its holders per count
    below, acc = [], 0.0
    for size, p in zip(index.sizes, power):
        acc += size * p
        below.append(acc)
    weights = [below[min(i, len(below) - 1)] for i in range(y)]
    for row in holders:
        acc = 0.0
        for h, p in zip(row, power):
            acc += h * p
        weights.append(acc)
    outcome = _draw_label(weights, rng)
    scale = 1.0 / math.sqrt(weights[outcome])
    if outcome >= y:
        image, preimages = found[outcome - y]
        new_family = family.after_tuple(image, preimages)
        if new_family.big_r:
            new_index = index.child(new_family.restriction, new_family.big_r)
            # a holder of count c is a child vertex of count c - 1
            child = [s * scale for s in scaled[1:len(new_index.sizes) + 1]]
            collapsed: Optional[Levels] = Levels(new_index, child)
        else:
            # the tuple was the one collapsed vertex, of count 1
            _settled([s * scale for s in scaled[1:2]], [1])
            new_index, collapsed = None, None
        return ExtractionOutcome(
            kind="tuple", image=image, preimages=preimages, dummy_index=None,
            collapsed=collapsed, new_family=new_family, new_index=new_index,
        )
    kept = [s * scale for s in scaled[:outcome + 1]]
    kept += [0.0] * (len(amps) - len(kept))
    return ExtractionOutcome(
        kind="dummy", image=None, preimages=None, dummy_index=outcome + 1,
        collapsed=Levels(index, kept), new_family=replace(family, hi=outcome),
        new_index=index,
    )


def extract_tuple(
    state: Levels,
    family: VertexFamily,
    rng: Uniform,
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
