"""Tests for the amplitude amplification layer.

The dense oracle used throughout: the iterate acts on the two dimensional
plane spanned by the bad and good components of the axis as a rotation by
2*theta, theta = asin(alpha).  With real coefficients written as
(sin phi, cos phi) in the (good, bad) basis, c rounds take phi to
phi + 2*c*theta.
"""

import math

import numpy as np
import pytest

from chainwalk import amplify
from chainwalk.errors import ImpossibleTargetError, SimulationError
from chainwalk.extraction import FamilyIndex
from chainwalk.oracle import CollisionTable, Params, generate_function, restrict
from chainwalk.statevector import State, states_close
from reference import uniform_state
from chainwalk.amplify import (
    MAX_TRANSITIONS,
    FlipStats,
    Want,
    decompose,
    flip,
    flip_plan,
    flip_until,
    grover_iterate,
    hop_until,
)

GOOD_KEY = b"g"
BAD_KEY = b"b"


def plane_axis(alpha):
    return State({GOOD_KEY: alpha, BAD_KEY: math.sqrt(1.0 - alpha * alpha)})


def is_good(key):
    return key == GOOD_KEY


def test_decompose_matches_direct_projection():
    rng = np.random.default_rng(2)
    keys = [bytes([i]) for i in range(8)]
    good = lambda key: key[0] < 3
    for _ in range(25):
        amps = rng.normal(size=8)
        st = State(dict(zip(keys, amps)), normalize=True)
        dec = decompose(st, good)
        direct_alpha = math.sqrt(st.probability(good))
        assert abs(dec.alpha - direct_alpha) < 1e-12
        assert abs(dec.alpha**2 + dec.beta**2 - 1.0) < 1e-12
        assert abs(dec.theta - math.asin(min(1.0, dec.alpha))) < 1e-12


def test_iterate_count_zero_is_identity():
    st = plane_axis(0.3)
    out = grover_iterate(st, is_good, st, 0)
    assert states_close(out, st)


def test_iterate_half_alpha_exact_quarter_turn():
    # alpha = sin(pi/6): one round from the axis lands exactly on good
    axis = plane_axis(0.5)
    out = grover_iterate(axis, is_good, axis, 1)
    assert abs(abs(out.amplitude(GOOD_KEY)) - 1.0) < 1e-12


def test_iterate_matches_rotation_law():
    rng = np.random.default_rng(31)
    for _ in range(60):
        alpha = rng.uniform(0.02, 1 / math.sqrt(2))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        count = int(rng.integers(0, 25))
        theta = math.asin(alpha)
        axis = plane_axis(alpha)
        st = State({GOOD_KEY: math.sin(phi), BAD_KEY: math.cos(phi)}, normalize=True)
        out = grover_iterate(st, is_good, axis, count)
        target = phi + 2.0 * count * theta
        assert abs(out.amplitude(GOOD_KEY).real - math.sin(target)) < 1e-9
        assert abs(out.amplitude(BAD_KEY).real - math.cos(target)) < 1e-9


def test_iteration_count_values():
    """flip_plan's rounds for a GOOD flip at good amplitude alpha, that is
    at share alpha^2."""
    # alpha = 1/2: pi/(4 asin) - 1/2 is exactly 1, and one round suffices
    assert flip_plan(0.5 ** 2, Want.GOOD)[0] == 1
    # the share whose amplitude is 1/sqrt(2), the float below 1/2
    assert math.sqrt(math.nextafter(0.5, 0.0)) == 1 / math.sqrt(2)
    assert flip_plan(math.nextafter(0.5, 0.0), Want.GOOD)[0] == 1
    # small alpha behaves like round(pi / (4 alpha) - 1/2)
    for alpha in (0.01, 0.02, 0.05):
        theta = math.asin(alpha)
        want = int(math.floor(math.pi / (4 * theta) - 0.5 + 0.5))
        assert flip_plan(alpha * alpha, Want.GOOD)[0] == want


def test_flip_returns_exact_class_uniform():
    keys = [bytes([i]) for i in range(100)]
    good = lambda key: key[0] < 7
    axis = uniform_state(keys)
    psi_b = uniform_state([k for k in keys if not good(k)])
    rng = np.random.default_rng(44)
    out, stats = flip(psi_b, good, axis, Want.GOOD, rng)
    assert out.support() == tuple(sorted(k for k in keys if good(k)))
    amp = 1.0 / math.sqrt(7)
    for key in out.support():
        assert abs(out.amplitude(key) - amp) < 1e-9
    assert stats.attempts >= 1
    assert stats.iterations_used >= 1


def test_flip_mean_iterations_single_good_of_100():
    keys = [bytes([i]) for i in range(100)]
    good = lambda key: key == keys[0]
    axis = uniform_state(keys)
    psi_b = uniform_state(keys[1:])
    rng = np.random.default_rng(9)
    used = []
    for _ in range(1000):
        _, stats = flip(psi_b, good, axis, Want.GOOD, rng)
        used.append(stats.iterations_used)
    assert np.mean(used) <= 40.0


def test_flip_to_bad_mean_iterations():
    keys = [bytes([i]) for i in range(64)]
    good = lambda key: key[0] < 4
    alpha = math.sqrt(4 / 64)
    axis = uniform_state(keys)
    psi_g = uniform_state(keys[:4])
    rng = np.random.default_rng(10)
    used = []
    for _ in range(1000):
        out, stats = flip(psi_g, good, axis, Want.BAD, rng)
        used.append(stats.iterations_used)
        assert all(not good(k) for k in out.support())
    assert np.mean(used) <= 4.0 / alpha


def test_flip_round_trip_is_exact():
    keys = [bytes([i]) for i in range(30)]
    good = lambda key: key[0] % 5 == 0
    axis = uniform_state(keys)
    psi_b = uniform_state([k for k in keys if not good(k)])
    rng = np.random.default_rng(77)
    up, _ = flip(psi_b, good, axis, Want.GOOD, rng)
    back, _ = flip(up, good, axis, Want.BAD, rng)
    assert states_close(back, psi_b, tol=1e-9)


def test_flip_large_alpha_measures_fresh_axis():
    keys = [bytes([i]) for i in range(10)]
    good = lambda key: key[0] < 9
    axis = uniform_state(keys)
    psi_b = uniform_state(keys[9:])
    rng = np.random.default_rng(3)
    restarts = []
    for _ in range(400):
        out, stats = flip(psi_b, good, axis, Want.GOOD, rng)
        assert stats.iterations_used == 0
        assert out.support() == tuple(sorted(keys[:9]))
        restarts.append(stats.restarts)
    # geometric with success 0.9
    assert np.mean(restarts) < 0.5


def test_flip_empty_target():
    axis = State({GOOD_KEY: 1.0})
    with pytest.raises(ImpossibleTargetError):
        flip(axis, is_good, axis, Want.BAD, np.random.default_rng(0))


class _ScriptedAttempt:
    """An attempt that misses `misses` times and then lands on `want`,
    recording the (state, rounds) of each call; each attempt returns the
    call count as its state."""

    def __init__(self, misses, want):
        self.misses, self.good, self.calls = misses, want is Want.GOOD, []

    def __call__(self, state, rounds):
        self.calls.append((state, rounds))
        landed = len(self.calls) > self.misses
        return landed == self.good, len(self.calls)


@pytest.mark.parametrize("share, want, rounds", [
    (0.01, Want.GOOD, 7),    # rotates floor(pi / (4 asin 0.1)) rounds
    (0.75, Want.BAD, 1),
    (0.6, Want.GOOD, None),  # measures fresh axes: no iteration counted
    (0.0, Want.BAD, 1),      # no good side: every state is bad
])
@pytest.mark.parametrize("misses", [0, 1, 4])
def test_flip_until_counts_each_attempt(share, want, rounds, misses):
    """k misses then a landing: (k + 1) rounds iterations, k restarts and
    k + 1 attempts, each attempt handed the last one's state and the plan's
    rounds, and the landing's state returned."""
    attempt = _ScriptedAttempt(misses, want)
    assert flip_plan(share, want)[0] == rounds
    state, stats = flip_until("start", share, want, attempt)
    assert state == misses + 1
    assert attempt.calls == [("start", rounds)] + [(i, rounds) for i in range(1, misses + 1)]
    assert stats.iterations_used == (misses + 1) * (rounds or 0)
    assert stats.restarts == misses
    assert stats.attempts == misses + 1


@pytest.mark.parametrize("share, want", [(0.0, Want.GOOD), (1.0, Want.BAD)])
def test_flip_until_refuses_an_empty_side_before_any_attempt(share, want):
    attempt = _ScriptedAttempt(0, want)
    with pytest.raises(ImpossibleTargetError, match=f"axis has no {want.value} component"):
        flip_until("start", share, want, attempt)
    assert attempt.calls == []


def test_flip_until_gives_up_after_flip_attempts():
    """An attempt that never lands is called flip_plan's bound of times,
    and the give-up names that bound."""
    share, want = 0.6, Want.GOOD
    _, bound = flip_plan(share, want)
    assert bound == math.ceil(MAX_TRANSITIONS / 0.6) == 16_667
    attempt = _ScriptedAttempt(bound, want)
    with pytest.raises(SimulationError, match=f"flip did not land on good in {bound} measurements"):
        flip_until("start", share, want, attempt)
    assert len(attempt.calls) == bound


class _ScriptedHop:
    """A hop from state i to i + 1 whose work record is i + 1 iterations,
    one restart and two attempts, recording the state of each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, state):
        self.calls.append(state)
        return state + 1, FlipStats(iterations_used=state + 1, restarts=1, attempts=2)


def test_hop_until_makes_no_hop_when_done_at_entry():
    hop = _ScriptedHop()
    assert hop_until(5, hop, lambda state: True, "never {}") == (5, FlipStats())
    assert hop.calls == []


@pytest.mark.parametrize("hops", [1, 2, 5])
def test_hop_until_merges_each_hop(hops):
    """k hops: each handed the last one's state, their records merged into
    one, and done read before each hop and after the last."""
    hop, read = _ScriptedHop(), []

    def done(state):
        read.append(state)
        return state == hops

    state, stats = hop_until(0, hop, done, "never {}")
    assert state == hops
    assert hop.calls == list(range(hops))
    assert read == list(range(hops + 1))
    assert stats == FlipStats(iterations_used=hops * (hops + 1) // 2, restarts=hops,
                              attempts=2 * hops)


def test_hop_until_gives_up_after_the_bound(monkeypatch):
    """Under a bound of 3, a state that is done after the third hop is
    returned, and one that never is raises the caller's text formatted
    with the bound, after 3 hops."""
    monkeypatch.setattr(amplify, "MAX_TRANSITIONS", 3)
    assert hop_until(0, _ScriptedHop(), lambda state: state == 3, "never {}")[0] == 3
    hop = _ScriptedHop()
    with pytest.raises(SimulationError) as failed:
        hop_until(0, hop, lambda state: False, "walk step did not reach the target cell in {} hops")
    assert str(failed.value) == "walk step did not reach the target cell in 3 hops"
    assert hop.calls == [0, 1, 2]


def test_flip_rounds_edges():
    """flip_plan's rounds at each of its edges.  Mass 1/2 measures fresh
    axes only through rounding: in binary64 sqrt(0.5) = 0.7071067811865476
    exceeds _HALF = 0.7071067811865475, the float just below it, so the tie
    |G| = V/2 takes the axis branch while the next mass down rotates once.
    Only an exact 0 on the wanted side is refused: a share of 1e-24 or
    1e-30 is planned, a BAD flip included."""
    assert flip_plan(0.5, Want.GOOD)[0] is None
    assert math.sqrt(math.nextafter(0.5, 0.0)) == 1.0 / math.sqrt(2.0)
    assert flip_plan(math.nextafter(0.5, 0.0), Want.GOOD)[0] == 1
    assert flip_plan(0.0, Want.BAD)[0] == 1
    assert flip_plan(0.75, Want.BAD)[0] == 1
    # the round count is read off, not run
    assert flip_plan(1e-20, Want.GOOD)[0] == 7_853_981_633
    assert flip_plan(1e-24, Want.GOOD)[0] == 785_398_163_397
    assert flip_plan(1e-30, Want.BAD)[0] == flip_plan(1e-30, Want.GOOD)[0] == 785_398_163_397_448
    for mass, want in [(0.0, Want.GOOD), (1.0, Want.BAD)]:
        with pytest.raises(ImpossibleTargetError, match=f"axis has no {want.value} component"):
            flip_plan(mass, want)


def test_flip_attempts_follow_the_landing_chance():
    """flip_plan's attempts: MAX_TRANSITIONS over the chance that an attempt
    lands after a miss, the good mass when fresh axes are measured,
    sin^2(2 rounds theta) when the plan rotates, and MAX_TRANSITIONS when
    that chance is 0."""
    assert flip_plan(0.6, Want.GOOD) == (None, math.ceil(MAX_TRANSITIONS / 0.6))
    # one round from mass 3/4: theta = pi/3, sin^2(2 pi/3) = 3/4
    assert flip_plan(0.75, Want.BAD) == (1, 13_334)
    # one round from mass 1 - q lands with chance 4q(1 - q)
    q = 1.0 / 130816
    assert flip_plan(1.0 - q, Want.BAD) == (1, 327_042_501)
    assert flip_plan(0.0, Want.BAD) == (1, MAX_TRANSITIONS)
    for mass in (0.01, 0.1, 0.3, 0.49):
        for want in Want:
            assert flip_plan(mass, want)[1] < 2 * MAX_TRANSITIONS


@pytest.mark.parametrize(
    "size, good_below, want, seed",
    [
        (100, 7, Want.GOOD, 44),     # rotation toward a small good side
        (100, 1, Want.GOOD, 9),      # one good key of 100
        (64, 4, Want.BAD, 10),       # rotation away from the good side
        (10, 9, Want.GOOD, 3),       # alpha > 1/sqrt(2): fresh axis measurements
        (30, 6, Want.BAD, 77),
    ],
)
def test_flip_with_a_vector_matches_the_callback(size, good_below, want, seed):
    """The same predicate as a key callback and as a boolean vector over the
    axis's keys, a dict from key to flag read by key, gives the same state,
    FlipStats and generator stream."""
    keys = [bytes([i]) for i in range(size)]
    good = lambda key: key[0] < good_below
    axis = uniform_state(keys)
    start = uniform_state([k for k in keys if good(k) != (want is Want.GOOD)])
    flags = {key: good(key) for key in axis.keys()}.__getitem__
    for _ in range(5):
        rng, vec_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out, stats = flip(start, good, axis, want, rng)
        vec_out, vec_stats = flip(start, flags, axis, want, vec_rng)
        assert vec_out.items() == out.items()
        assert vec_stats == stats
        assert vec_rng.random() == rng.random()
        seed += 1


def test_flip_reads_a_key_callback_once_per_key():
    """One set of good keys, read once on every key of the axis, serves the
    plan, the iterations and every flag measurement of a flip."""
    fn = generate_function(Params(n=4, m=5, k=0), 0)
    index = FamilyIndex(restrict(fn, CollisionTable()), 8)
    assert index.total == 12870
    axis = index.axis
    for want in (Want.GOOD, Want.BAD):
        calls = []

        def good(key):
            calls.append(key)
            return len(index.tuples[key]) >= 1

        out, _ = flip(axis, good, axis, want, np.random.default_rng(0))
        assert sorted(calls) == sorted(index.tuples)
        assert all(len(index.tuples[key]) >= 1 for key in out.keys()) == (want is Want.GOOD)
