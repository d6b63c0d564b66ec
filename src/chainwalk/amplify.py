"""Amplitude amplification with exact rotation accounting.

Relative to a fixed axis state u and a good-key predicate, write
u = beta*B + alpha*G where G and B are the normalized good and bad
components of u.  One amplification round applies (Ref_u . Ref_flip) where
Ref_flip negates the good amplitudes; in the plane spanned by B and G this is
a rotation by 2*asin(alpha), so a state at angle phi moves to phi + 2*theta.
`grover_iterate` applies each round as the state layer's two reflections,
each of which prunes and checks the norm.

A flip drives attempts of iterate-then-measure until the projective flag
measurement lands on the wanted side, for at most the plan's attempts.
Both state paths run that loop, `flip_until`, each with its own attempt:
`flip` here rotates a vector by `grover_iterate` and measures it, and
levels.flip turns a count class in closed form and draws its landing.
Inputs are expected to lie in span{B, G} (uniform class states always do);
the returned state is then exactly the renormalized wanted projection of the
axis.  The loop plans from the axis's good share: here `_good_share`, the
good squared norm over the whole, each summed exactly and divided once, so
that a uniform axis reads the correctly rounded |G|/V that levels.flip
reads off its exact class sizes.  Both shares are exact, so an axis with no
key on the wanted side reads exactly 0 or 1, however large it is.  What a
flip does with its share, whether the wanted amplitude is 0 (refused),
whether to measure fresh axes, how many rounds to rotate by and how many
attempts to make, is decided in one place, `flip_plan`, from one split of
the share.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from ._stream import Uniform
from .errors import ImpossibleTargetError, ParameterError, SimulationError
from .oracle import require_int, require_real
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
# A flip's state: a State on the vector path, a levels.Levels on the class path.
S = TypeVar("S")


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
    """The amplitude split of a state whose good side carries `good_mass`,
    clamped to [0, 1]; a NaN mass raises ParameterError."""
    if math.isnan(good_mass):
        raise ParameterError("good mass is not a number")
    good_mass = min(1.0, max(0.0, good_mass))
    alpha = math.sqrt(good_mass)
    beta = math.sqrt(1.0 - good_mass)
    return AmplitudeDecomposition(alpha=alpha, beta=beta, theta=math.asin(alpha))


def grover_iterate(state: State, good: Labels, axis: State, count: int) -> State:
    """Apply (Ref_axis . Ref_flip)^count, one exact rotation per application.

    `good` is a key callback, read once per key of the axis or the state
    (_good_keys): every key the rounds can reach.  Each round is
    reflect_about_predicate then reflect_about_state, so each ends with
    their prune and norm check.
    """
    require_int(count=count)
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


def flip_plan(share: float, want: Want) -> tuple[Optional[int], int]:
    """The plan of a flip whose axis carries `share` of its squared norm on
    its good side: (rounds, attempts), the rounds each attempt rotates by
    before it measures and the attempts it makes before it gives up.

    A share that is not a real number in [0, 1], NaN included, raises
    ParameterError, and one with no wanted amplitude ImpossibleTargetError:
    a share that rounds to a positive float, however small, is planned.
    When the good side is wanted and its amplitude exceeds 1/sqrt(2),
    rotation is too coarse to help, so rounds is None: each attempt
    measures a fresh copy of the axis, and lands with chance p = share.
    Otherwise rounds is floor(pi/(4 theta)), at least 1, and 1 when alpha is
    0 (a BAD flip off an axis with no good side).  A miss leaves the state
    on the unwanted side, at angle 0 (a missed GOOD) or pi/2 (a missed BAD)
    in Grover's plane, and the rounds turn it by 2 rounds theta, so an
    attempt after a miss lands with chance p = sin^2(2 rounds theta)
    whichever side is wanted.  A BAD flip one round from an almost wholly
    good axis has p about 4 times the bad mass, as small as 1.6e-5 on a
    family at the enumeration cap.

    attempts is MAX_TRANSITIONS / p, rounded up, so that a flip on a
    uniform stream misses them all with probability
    (1 - p)^(MAX_TRANSITIONS / p) < e^-MAX_TRANSITIONS.  At p = 0, a BAD
    flip on an axis with no good mass, every state in the plane is bad, the
    first attempt lands, and attempts is MAX_TRANSITIONS.
    """
    require_real(share=share)
    if not 0.0 <= share <= 1.0:
        raise ParameterError(f"share must lie in [0, 1], got {share!r}")
    dec = split(share)
    if (dec.alpha if want is Want.GOOD else dec.beta) <= 0.0:
        raise ImpossibleTargetError(f"axis has no {want.value} component")
    if want is Want.GOOD and dec.alpha > _HALF:
        return None, math.ceil(MAX_TRANSITIONS / share)
    rounds = max(1, math.floor(math.pi / (4.0 * dec.theta))) if dec.alpha > 0.0 else 1
    land = math.sin(2 * rounds * dec.theta) ** 2
    return rounds, math.ceil(MAX_TRANSITIONS / land) if land > 0.0 else MAX_TRANSITIONS


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


def flip_until(
    state: S, share: float, want: Want, attempt: Callable[[S, Optional[int]], tuple[bool, S]]
) -> tuple[S, FlipStats]:
    """The attempt loop both flips run, on flip_plan's plan for an axis
    whose good side carries `share`: attempt(state, rounds) rotates the
    state by the plan's rounds, or takes a fresh axis when they are None,
    measures the flag and returns (landed good, state).  Returns the first
    state that lands on `want`, with the attempts, restarts and rounds
    spent.  flip_plan refuses a share with no wanted amplitude before any
    attempt, and SimulationError follows the plan's attempts that all miss.
    """
    rounds, attempts = flip_plan(share, want)
    stats = FlipStats()
    for _ in range(attempts):
        stats.attempts += 1
        stats.iterations_used += rounds or 0
        landed, state = attempt(state, rounds)
        if landed == (want is Want.GOOD):
            return state, stats
        stats.restarts += 1
    raise SimulationError(f"flip did not land on {want.value} in {attempts} measurements")


def flip(
    state: State,
    good: Labels,
    axis: State,
    want: Want,
    rng: Uniform,
) -> tuple[State, FlipStats]:
    """flip_until on the axis's good share (_good_share), each attempt
    rotating the state by grover_iterate, or taking the axis under a None
    plan, then measuring the flag.

    `good` is a key callback, read once per key of the axis or the state
    into the set of good keys (_good_keys) that the share, the iterations
    and every flag measurement use.  The share is exact, so an axis with no
    key on the wanted side reads exactly 0 or 1, which flip_plan refuses.
    """
    good = _good_keys(good, state, axis)
    flags = good.__contains__

    def attempt(state: State, rounds: Optional[int]) -> tuple[bool, State]:
        state = axis if rounds is None else grover_iterate(state, flags, axis, rounds)
        return measure(state, flags, rng)

    return flip_until(state, _good_share(axis, good.intersection(axis.amplitudes)), want, attempt)
