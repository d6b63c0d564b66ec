"""Amplitude amplification with exact rotation accounting.

Relative to a fixed axis state u and a good-key predicate, write
u = beta*B + alpha*G where G and B are the normalized good and bad
components of u.  One amplification round applies (Ref_u . Ref_flip) where
Ref_flip negates the good amplitudes; in the plane spanned by B and G this is
a rotation by 2*asin(alpha), so a state at angle phi moves to phi + 2*theta.
`grover_iterate` applies each round as the state layer's two reflections,
each of which prunes and checks the norm.

`flip` drives rounds of iterate-then-measure until the projective flag
measurement lands on the wanted side, for at most `flip_attempts` attempts.
Inputs are expected to lie in span{B, G} (uniform class states always do);
the returned state is then exactly the renormalized wanted projection of the
axis.  A flip first refuses an axis with no key on the wanted side, counted
exactly, since a float mass can round short of 0 or 1 there and the flip
would never land.  It then plans from its axis's good share (`_good_share`):
the good squared norm over the whole, each summed exactly and divided once,
so that a uniform axis reads the correctly rounded |G|/V that levels.flip
reads off its exact class sizes.  What a flip does with that share, whether
the wanted amplitude is too small, whether to measure fresh axes and how
many rounds to rotate by, is decided in one place, `flip_rounds`, and how
many attempts to make in `flip_attempts`; levels.flip reads both.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from ._stream import Uniform
from .errors import ImpossibleTargetError, ParameterError, SimulationError
from .statevector import (
    Labels,
    State,
    measure,
    reflect_about_predicate,
    reflect_about_state,
)

_HALF = 1.0 / math.sqrt(2.0)
# Bound on measure-and-flip rounds in any flip, extraction, repair or walk loop.
MAX_TRANSITIONS = 10_000


class Want(Enum):
    GOOD = "good"
    BAD = "bad"


@dataclass(frozen=True)
class AmplitudeDecomposition:
    """Good/bad split of a state: alpha^2 + beta^2 = 1, theta = asin(alpha)."""

    alpha: float
    beta: float
    theta: float


@dataclass
class FlipStats:
    """Work record for one `flip` (or a merged sequence of them)."""

    iterations_used: int = 0
    restarts: int = 0
    attempts: int = 0

    def absorb(self, other: "FlipStats") -> None:
        self.iterations_used += other.iterations_used
        self.restarts += other.restarts
        self.attempts += other.attempts


def decompose(state: State, good: Labels) -> AmplitudeDecomposition:
    """Exact amplitude split of `state` along the good predicate."""
    return split(state.probability(good))


def split(good_mass: float) -> AmplitudeDecomposition:
    """The amplitude split of a state whose good side carries `good_mass`."""
    good_mass = min(1.0, max(0.0, good_mass))
    alpha = math.sqrt(good_mass)
    beta = math.sqrt(max(0.0, 1.0 - good_mass))
    return AmplitudeDecomposition(alpha=alpha, beta=beta, theta=math.asin(min(1.0, alpha)))


def grover_iterate(state: State, good: Labels, axis: State, count: int) -> State:
    """Apply (Ref_axis . Ref_flip)^count, one exact rotation per application.

    `good` is a key callback, read once per key of the axis or the state
    (_good_keys): every key the rounds can reach.  Each round is
    reflect_about_predicate then reflect_about_state, so each ends with
    their prune and norm check.
    """
    if count < 0:
        raise ParameterError("iteration count must be nonnegative")
    flags = _good_keys(good, state, axis).__contains__
    for _ in range(count):
        state = reflect_about_state(reflect_about_predicate(state, flags), axis)
    return state


def _good_keys(good: Labels, state: State, axis: State) -> frozenset:
    """The keys of the axis and of the state where `good` holds, each read
    once.  The rounds and measurements of an iteration from `state` reach
    no other key."""
    return frozenset(filter(good, {**axis.amplitudes, **state.amplitudes}))


def iteration_count(alpha: float) -> int:
    """Rounds of rotation aimed at a quarter turn: round(pi/(4*asin a) - 1/2).

    Rounding is half-up, so the count is floor(pi/(4*asin a)), which for
    alpha <= 1/sqrt(2) is at least 1.
    """
    if alpha <= 0.0:
        raise ImpossibleTargetError("cannot size iterations for zero amplitude")
    theta = math.asin(min(1.0, alpha))
    return math.floor(math.pi / (4.0 * theta))


def flip_rounds(good_mass: float, want: Want) -> Optional[int]:
    """The plan of a flip whose axis carries `good_mass` on its good side.

    Raises ImpossibleTargetError when the axis's wanted amplitude is 0: a
    share that rounds to a positive float, however small, is planned.
    Returns None when the good side is wanted and its amplitude
    exceeds 1/sqrt(2): rotation is too coarse to help there, so each attempt
    measures a fresh copy of the axis, and lands with probability above 1/2.
    Otherwise returns the rounds each attempt rotates by before it measures:
    iteration_count(alpha), at least 1, and 1 when alpha is 0 (a BAD flip
    off an axis with no good side).
    """
    dec = split(good_mass)
    if (dec.alpha if want is Want.GOOD else dec.beta) <= 0.0:
        raise ImpossibleTargetError(f"axis has no {want.value} component")
    if want is Want.GOOD and dec.alpha > _HALF:
        return None
    return max(1, iteration_count(dec.alpha)) if dec.alpha > 0.0 else 1


def flip_attempts(good_mass: float, rounds: Optional[int]) -> int:
    """The attempts a flip on flip_rounds' plan makes before it gives up:
    MAX_TRANSITIONS over the chance p that one attempt lands after a miss,
    so that a flip on a uniform stream misses them all with probability
    (1 - p)^(MAX_TRANSITIONS / p) < e^-MAX_TRANSITIONS.

    A miss leaves the state on the unwanted side, at angle 0 (a missed GOOD)
    or pi/2 (a missed BAD) in Grover's plane, and the plan's rounds turn it
    by 2 rounds theta, so p = sin^2(2 rounds theta) whichever side is
    wanted; under a None plan every attempt measures a fresh axis, so p is
    the good mass.  A BAD flip one round from an almost wholly good axis has
    p about 4 times the bad mass, as small as 1.6e-5 on a family at the
    enumeration cap.  At p = 0, a BAD flip on an axis with no good mass,
    every state in the plane is bad, the first attempt lands, and the bound
    is MAX_TRANSITIONS.
    """
    if rounds is None:
        land = good_mass
    else:
        land = math.sin(2 * rounds * split(good_mass).theta) ** 2
    return math.ceil(MAX_TRANSITIONS / land) if land > 0.0 else MAX_TRANSITIONS


def _good_share(axis: State, good: frozenset) -> float:
    """The axis's good squared norm over its whole squared norm, `good`
    holding the axis's good keys: each an exact sum over the distinct
    amplitudes of their weight times their multiplicity, divided once and
    rounded once, so a uniform axis over V keys with |G| good reads |G|/V."""
    def exact_sum(amplitudes) -> Fraction:
        counted = Counter(amplitudes).items()
        return sum((Fraction(a * a) * c for a, c in counted), Fraction(0))

    good_sum = exact_sum(map(axis.amplitudes.__getitem__, good))
    return float(good_sum / exact_sum(axis.amplitudes.values()))


def flip(
    state: State,
    good: Labels,
    axis: State,
    want: Want,
    rng: Uniform,
) -> tuple[State, FlipStats]:
    """Iterate and project until the flag measurement lands on `want`.

    `good` is a key callback, read once per key of the axis or the state
    into the set of good keys (_good_keys) that the plan, the iterations and
    every flag measurement use; the plan reads those on the axis.
    The plan is flip_rounds' on the axis's good share (_good_share): each
    attempt rotates the state by its rounds, or measures a fresh copy of the
    axis when it is None.  An axis with no key on the wanted side raises
    ImpossibleTargetError, whatever its share rounds to, and SimulationError
    follows flip_attempts' attempts that all miss.
    """
    good = _good_keys(good, state, axis)
    on_axis = good.intersection(axis.amplitudes)
    if (len(on_axis) if want is Want.GOOD else len(axis) - len(on_axis)) == 0:
        raise ImpossibleTargetError(f"axis has no {want.value} component")
    share = _good_share(axis, on_axis)
    rounds = flip_rounds(share, want)
    attempts = flip_attempts(share, rounds)
    stats = FlipStats()
    for _ in range(attempts):
        stats.attempts += 1
        if rounds is None:
            state = axis
        else:
            state = grover_iterate(state, good.__contains__, axis, rounds)
            stats.iterations_used += rounds
        outcome, state = measure(state, good.__contains__, rng)
        if outcome == (want is Want.GOOD):
            return state, stats
        stats.restarts += 1
    raise SimulationError(
        f"flip did not land on {want.value} in {attempts} measurements"
    )
