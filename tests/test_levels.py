"""Differential tests: count-class states (levels.py) against the vector path.

The run holds its states as count classes.  Each test here drives the
count-class operation and the vector operation it replaced from the same
state and the same seed, and requires the same outcomes, work records,
supports and next draw.  They cover the branches no sweep run
reaches: dummy outcomes and their repair, walk-step hops, dense extraction,
and a flip whose good class is exactly half the axis.
"""

import itertools
import math
import signal
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainwalk._stream import Stream, choose
from chainwalk.amplify import (
    MAX_TRANSITIONS,
    _HALF,
    FlipStats,
    Want,
    _good_share,
    flip as vector_flip,
    flip_plan,
    split,
)
from chainwalk.chain import CostLedger, _delta_for, extraction_step, walk_step
from chainwalk.errors import (
    FlaggedInstanceError,
    ImpossibleTargetError,
    ParameterError,
    SimulationError,
    ValidationError,
)
from chainwalk.extraction import (
    FamilyIndex,
    VertexFamily,
    correct_interval,
    extract_once as vector_extract_once,
    hop,
)
from chainwalk.law import CountIndex, LawIndex
from chainwalk.levels import (
    Levels,
    check_class,
    extract_tuple,
    flip,
    measure as levels_measure,
    repair,
)
from chainwalk.oracle import CollisionTable, FunctionTable, Params, restrict
from chainwalk.stats import IntervalPlan
from chainwalk.statevector import State, decode_subset, measure as vector_measure, subset_key
from reference import as_state, histogram
from test_chain import CLASS_MOVES, _carved_pairs, _pair_rich_instance
from test_extraction import eight_point, four_pair


def _stats(stats: FlipStats):
    return stats.iterations_used, stats.restarts, stats.attempts


def _same_state(levels: Levels, vector) -> bool:
    """Same support, amplitudes within 1e-12 up to one global sign, the
    equality states_close uses: a class state holds no sign, since no draw
    reads one."""
    dense = as_state(levels)
    return dense.support() == vector.support() and any(
        all(abs(sign * a - vector.amplitude(key)) <= 1e-12 for key, a in dense.items())
        for sign in (1, -1)
    )


def _vector_extract_tuple(state, family, rng, index, trace):
    """The vector path's extraction loop: padded measurements, each dummy
    repaired by extraction.correct_interval, until a tuple comes out."""
    stats = FlipStats()
    while True:
        out = vector_extract_once(state, family, rng, index=index)
        stats.attempts += 1
        fs = FlipStats()
        if out.kind == "dummy":
            state, fs = correct_interval(out.collapsed, out.new_family, family.hi, index, rng)
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


def _raises_within(seconds, error, call, match=None):
    """call() raises `error`, its message matching `match` when given; a
    call still running after `seconds` fails."""
    def hung(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        with pytest.raises(error, match=match):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("want, good", [(Want.BAD, lambda c: True), (Want.GOOD, lambda c: False)])
def test_flip_toward_an_empty_side_is_refused(want, good):
    """eight_point's R = 4 family has V = 70 vertices.  With every count
    good, the axis's running float mass reads 0.9999999999999983, whose bad
    amplitude 4e-8 clears an old plan's 1e-12 floor, so a BAD flip planned
    from it rotated forever.  Both flips plan from the exact share |G|/V, here 1.0,
    and flip_plan refuses a wanted side with no vertex when it plans from
    that share, before any attempt, on either kind of index and on the
    vector path."""
    _, restriction = eight_point()
    rng = np.random.default_rng(0)
    family_index = FamilyIndex(restriction, 4)
    for index in (family_index, LawIndex(restriction, 4)):
        _raises_within(10, ImpossibleTargetError,
                       lambda: flip(Levels.uniform(index), good, want, rng))
    axis = family_index.axis
    assert axis.probability(lambda key: True) == 0.9999999999999983
    assert _good_share(axis, frozenset(axis.keys())) == 1.0
    _raises_within(10, ImpossibleTargetError,
                   lambda: vector_flip(axis, family_index.by_count(good), axis, want, rng))


class _ZeroStream:
    """A stream whose every draw is 0.0, so each measurement gives the first
    label in sorted order."""

    def random(self):
        return 0.0


def test_flip_that_never_lands_raises():
    """eight_point's R = 4 family with counts 1 and 2 good: 42 of 70
    vertices, so a GOOD flip measures fresh axes.  Labels sort False first,
    so under zero draws every attempt lands on the bad side, and both flips
    give up after flip_plan's bound, ceil(10000 / (42/70)) attempts, on
    either kind of index and on the vector path."""
    _, restriction = eight_point()
    good = lambda c: c >= 1
    family_index = FamilyIndex(restriction, 4)
    for index in (family_index, LawIndex(restriction, 4)):
        assert index.sizes == [28, 39, 3]
        _raises_within(30, SimulationError,
                       lambda: flip(Levels.uniform(index), good, Want.GOOD, _ZeroStream()))
    axis = family_index.axis
    _raises_within(30, SimulationError, lambda: vector_flip(
        axis, family_index.by_count(good), axis, Want.GOOD, _ZeroStream()))


def test_walk_step_that_never_reaches_the_target_raises():
    """_carved_pairs with E = 2, T = 1 and the class [1, 2]: under zero
    draws every BAD flip lands on its first attempt, and the cell draw
    gives the first cell in sorted order, {0} from [1, 2] and [1, 2] from
    {0}, so the walk never reaches cell 2 = {3} and walk_step gives up
    after MAX_TRANSITIONS hops, on either kind of index."""
    restriction, family_index = _carved_pairs()
    plan = IntervalPlan(c=0.5, width=1, expected_now=2)
    family = VertexFamily(restriction, 6, 1, 2)
    for index in (family_index, LawIndex(restriction, 6)):
        assert index.sizes == [64, 480, 360, 20]
        _raises_within(30, SimulationError, lambda: walk_step(
            Levels.uniform(index, 1, 2), family, plan, _ZeroStream(), ledger=CostLedger()),
            match=f"walk step did not reach the target cell in {MAX_TRANSITIONS} hops")


def test_flip_with_a_small_landing_chance_lands():
    """A BAD flip from the good side of an almost wholly good axis: 512
    points with one colliding pair, R = 2, so 1 of V = 130816 vertices holds
    a tuple.  The plan rotates one round, and each attempt lands with
    probability 4q(1 - q), q = 1/V, about 3.1e-5.  Under a uniform stream
    the flip lands after 20768 attempts, more than MAX_TRANSITIONS, on the
    law index and on the vector path over the same plane."""
    fn = FunctionTable(Params(n=9, m=10, k=0), [0] + list(range(511)))
    index = LawIndex(restrict(fn, CollisionTable()), 2)
    assert index.sizes == [130815, 1]
    state, stats = flip(Levels(index, {0}), lambda c: c == 0, Want.BAD, Stream([2, 1]))
    assert state.counts == {1}
    assert stats.attempts == 20768 > MAX_TRANSITIONS
    q = 1.0 / 130816
    axis = State({b"good": math.sqrt(1.0 - q), b"bad": math.sqrt(q)})
    state, stats = vector_flip(State({b"good": 1.0}), lambda key: key == b"good",
                               axis, Want.BAD, Stream([2, 1]))
    assert state.support() == (b"bad",)
    assert stats.attempts == 20768


def _half_axis():
    """R = 2 on a function with 60 vertices of count 0 and 60 of count 1: the
    good class is exactly half the axis, whose share 0.5 is above the
    alpha > 1/sqrt(2) boundary, while the running sum of its 60 weights is
    below 0.5."""
    values = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1]
    index = FamilyIndex(restrict(FunctionTable(Params(n=4, m=4, k=0), values),
                                 CollisionTable()), 2)
    assert histogram(index) == {0: 60, 1: 60}
    return index


def test_half_axis_sits_on_the_boundary():
    """Both flips read the half axis's share as exactly 0.5, so a GOOD flip
    measures fresh axes on either path, where the running float mass, below
    0.5, would rotate."""
    index = _half_axis()
    axis, flags = index.axis, index.by_count(lambda c: c >= 1)
    mass = axis.probability(flags)
    assert mass < 0.5
    assert 60 / index.total == _good_share(axis, frozenset(filter(flags, axis.keys()))) == 0.5
    assert split(mass).alpha < _HALF < split(0.5).alpha
    assert flip_plan(0.5, Want.GOOD)[0] is None


@pytest.mark.parametrize("want", [Want.GOOD, Want.BAD])
@pytest.mark.parametrize("seed", range(8))
def test_flip_on_half_the_axis_matches_the_vector_path(want, seed):
    index = _half_axis()
    good = lambda c: c >= 1
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    state, stats = flip(Levels.uniform(index), good, want, rng)
    reference, ref_stats = vector_flip(
        index.axis, index.by_count(good), index.axis, want, ref_rng
    )
    assert _stats(stats) == _stats(ref_stats)
    assert _same_state(state, reference)
    assert rng.random().hex() == ref_rng.random().hex()


def test_extract_tuple_dummy_path_matches_the_vector_path():
    """four_pair (R = 6, family [1, 2]) at seeds 0-199, the four seeds of
    test_extract_tuple_dummy_path_pinned among them: the same trace, work
    record, tuple, residual and next draw.  The seeds draw 135 dummies."""
    _, restriction = four_pair()
    index = FamilyIndex(restriction, 6)
    family = VertexFamily(restriction=restriction, big_r=6, lo=1, hi=2)
    start, ref_start = Levels.uniform(index, 1, 2), index.class_state(1, 2)
    dummies = 0
    for seed in range(200):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        trace, ref_trace = [], []
        out, stats = extract_tuple(start, family, rng, trace)
        ref, ref_stats = _vector_extract_tuple(ref_start, family, ref_rng, index, ref_trace)
        assert trace == ref_trace, seed
        assert _stats(stats) == _stats(ref_stats), seed
        assert (out.kind, out.image, out.preimages) == (ref.kind, ref.image, ref.preimages)
        new, ref_new = out.new_family, ref.new_family
        assert (new.big_r, new.lo, new.hi, list(new.restriction.table.items())) == (
            ref_new.big_r, ref_new.lo, ref_new.hi, list(ref_new.restriction.table.items())
        ), seed
        assert out.collapsed.index.total == index.child(ref_new.restriction, ref_new.big_r).total
        assert out.collapsed.support() == len(ref.collapsed)
        assert _same_state(out.collapsed, ref.collapsed), seed
        assert rng.random().hex() == ref_rng.random().hex(), seed
        dummies += sum(event["event"] == "dummy" for event in trace)
    assert dummies == 135


def _vector_walk_step(state, family, plan, rng, index, ledger):
    """The vector path's dense walk step: from the family's class, which
    lies in cell 1, hop as correct_interval does until cell 2 comes up,
    charging each hop as it lands."""
    e_now, width = plan.expected_now, plan.width
    lo_cell = max(0, e_now - width)

    def cell_of(count):
        return 0 if count < lo_cell else 1 if count <= e_now else 2 if count <= e_now + width else 3

    cls = frozenset(range(family.lo, family.hi + 1))
    stats = FlipStats()
    while True:
        state, cls, fs = hop(state, index, cls, cell_of, rng)
        stats.absorb(fs)
        ledger.charge_flip(fs, _delta_for(family))
        if cell_of(min(cls)) == 2:
            return state, replace(family, lo=e_now + 1, hi=e_now + width), stats


@pytest.mark.parametrize("case, seed, expected", CLASS_MOVES)
def test_class_moves_match_the_vector_path(case, seed, expected):
    """test_class_moves_pinned's cases, on extraction.correct_interval and on
    the vector walk step: they give the pinned values too."""
    restriction, index = _carved_pairs()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if case[0] == "correct":
        _, lo, hi, target_hi = case
        family = VertexFamily(restriction, 6, lo, hi)
        state, stats = repair(Levels.uniform(index, lo, hi), family, target_hi, rng)
        ref, ref_stats = correct_interval(
            index.class_state(lo, hi), family, target_hi, index, ref_rng
        )
        interval, ledger_calls = (lo, target_hi), None
    else:
        _, e_now, width = case
        plan = IntervalPlan(c=0.5, width=width, expected_now=e_now)
        lo = max(0, e_now - width)
        family = VertexFamily(restriction, 6, lo, e_now)
        ledger, ref_ledger = CostLedger(), CostLedger()
        state, walked, stats = walk_step(Levels.uniform(index, lo, e_now), family, plan,
                                         rng, ledger=ledger)
        ref, new_family, ref_stats = _vector_walk_step(
            index.class_state(lo, e_now), family, plan, ref_rng, index, ref_ledger
        )
        assert (walked, ledger) == (new_family, ref_ledger)
        interval = (new_family.lo, new_family.hi)
        ledger_calls = (ref_ledger.update_calls, ref_ledger.check_calls)
    assert _stats(stats) == _stats(ref_stats)
    assert _same_state(state, ref)
    next_draw = ref_rng.random().hex()
    assert rng.random().hex() == next_draw
    assert (_stats(ref_stats), interval, ledger_calls, next_draw) == expected


def test_extraction_step_dense_scenario_matches_the_vector_path():
    """test_extraction_step_dense_scenario against the vector extraction loop:
    one planned and one re-centering extraction, each verified."""
    fn, restriction, index = _pair_rich_instance()
    plan = IntervalPlan.build(8, 128, 4.0)
    family = VertexFamily(restriction=restriction, big_r=8, lo=2, hi=3)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    ledger = CostLedger()
    tuples, state, new_family, _ = extraction_step(
        Levels.uniform(index, 2, 3), family, plan, rng, ledger=ledger, fn=fn, trace=[],
    )
    ref_state, ref_family, ref_index, ref_tuples = index.class_state(2, 3), family, index, []
    ref_ledger = CostLedger()
    for _ in range(2):
        out, fs = _vector_extract_tuple(ref_state, ref_family, ref_rng, ref_index, [])
        ref_ledger.extraction_events += 1
        ref_ledger.charge_flip(fs, _delta_for(ref_family))
        ref_ledger.oracle_queries += len(out.preimages)
        ref_tuples.append((out.image, out.preimages))
        ref_state, ref_family = out.collapsed, out.new_family
        ref_index = ref_index.child(ref_family.restriction, ref_family.big_r)
    assert tuples == ref_tuples == [(0, (0, 1)), (7, (14, 15))]
    assert (new_family.big_r, new_family.lo, new_family.hi,
            list(new_family.restriction.table.items())) == (
        ref_family.big_r, ref_family.lo, ref_family.hi, list(ref_family.restriction.table.items())
    )
    assert ledger == ref_ledger
    assert state.index.total == ref_index.total
    assert _same_state(state, ref_state)
    assert rng.random().hex() == ref_rng.random().hex()


def test_repair_premise_failures():
    """levels.repair refuses what extraction.correct_interval refuses, on
    either kind of index."""
    _, restriction = eight_point()
    rng = np.random.default_rng(0)
    family = lambda lo, hi: VertexFamily(restriction=restriction, big_r=4, lo=lo, hi=hi)
    for index in (FamilyIndex(restriction, 4), LawIndex(restriction, 4)):
        assert index.sizes == [28, 39, 3]
        with pytest.raises(FlaggedInstanceError):
            repair(Levels.uniform(index, 1, 1), family(1, 1), 2, rng)
        with pytest.raises(FlaggedInstanceError):
            repair(Levels.uniform(index, 0, 1), family(0, 1), 2, rng)
        with pytest.raises(ImpossibleTargetError):
            repair(Levels.uniform(index), family(5, 5), 6, rng)
        with pytest.raises(ParameterError):
            repair(Levels.uniform(index), family(1, None), 2, rng)
        same, stats = repair(Levels.uniform(index, 1, 2), family(1, 2), 2, rng)
        assert same.counts == {1, 2}
        assert stats == FlipStats()


@pytest.mark.parametrize("case", ["class_dropped", "other_class_added"])
def test_check_class_rejects(case):
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    assert histogram(index) == {0: 28, 1: 39, 2: 3}
    family = VertexFamily(restriction=restriction, big_r=4, lo=1, hi=2)
    check_class(Levels.uniform(index, 1, 2), family)
    counts = {"class_dropped": {1}, "other_class_added": {0, 1, 2}}[case]
    with pytest.raises(ValidationError):
        check_class(Levels(index, counts), family)


class _Counts(CountIndex):
    """A bare count-level index: class sizes and their total, no family."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.total = sum(sizes)


class _Draws:
    """A stream that gives the listed draws in turn."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


@pytest.mark.parametrize("weights", [[1] * 18, [1] * 40, [2**70] * 18, [2, 0, 1, 5]])
def test_draw_at_a_cumulative_weight_takes_the_next_label(weights):
    """A draw u with u times the total equal to a cumulative weight takes
    the next label of positive weight, as Fraction arithmetic says: 18
    equal weights at u = 1/2 give label 9, where a left fold of the float
    weights 1/18 reads 0.5000000000000001 after label 8 and gives label 8."""
    total, boundaries = sum(weights), 0
    for cumulative in itertools.accumulate(weights[:-1]):
        u = cumulative / total
        if Fraction(u) * total != cumulative:
            continue
        expected = next(label for label, upto in enumerate(itertools.accumulate(weights))
                        if Fraction(u) * total < upto)
        assert choose(weights, _Draws([u])) == expected
        boundaries += 1
    assert boundaries
    assert choose([1] * 18, _Draws([0.5])) == 9


def test_vector_measure_at_a_cumulative_weight_takes_the_next_label():
    """statevector.measure draws by choose too: a uniform 18-key state,
    labelled by key, at u = 1/2 gives label 9, as choose([1] * 18) does,
    since its 18 equal float weights are taken exactly, where a left fold of
    them reads 0.5000000000000001 after label 8 and gives label 8."""
    state = State({subset_key([point]): 1.0 for point in range(18)}, normalize=True)
    label, collapsed = vector_measure(state, lambda key: decode_subset(key)[0], _Draws([0.5]))
    assert label == choose([1] * 18, _Draws([0.5])) == 9
    assert collapsed.support() == (subset_key([9]),)


def test_sizes_above_int64():
    """Class sizes are exact ints, so classes of 2^70 vertices each, past
    int64, start uniform, measure and count their support exactly."""
    index = _Counts([2**70] * 3)
    axis = Levels.uniform(index)
    assert axis.support() == 3 * 2**70
    outcome, state = levels_measure(axis, lambda c: c >= 1, np.random.default_rng(0))
    assert state.counts == ({1, 2} if outcome else {0})
    assert state.support() == (2**71 if outcome else 2**70)
    # count 0 holds a third of the total.  u = 1/3 rounded down lies below
    # that third, while a float weight 1/3 rounds to u itself, so u < weight
    # would fail and pick the other label
    assert levels_measure(axis, lambda c: c >= 1, _Draws([1 / 3]))[0] is False
    assert levels_measure(axis, lambda c: c >= 1, _Draws([math.nextafter(1 / 3, 1)]))[0] is True


def test_grover_rotates_only_states_in_the_plane():
    """Counts 0 and 1 good and 2 bad, one vertex each: a BAD flip rotates
    one round, 2 theta with sin^2 theta = 2/3, from the axis (phi = theta),
    the good side (pi/2) or the bad side (0), and lands bad with chance
    cos^2(phi + 2 theta), which the negated state, at phi + pi, shares: for
    either chance a draw just below it lands, and one just above it misses
    and lands at the second attempt.  A class on neither side of the flags,
    {1} or {0, 2}, lies off Grover's plane and is refused."""
    index, good = _Counts([1, 1, 1]), lambda c: c <= 1
    theta = math.asin(math.sqrt(2 / 3))
    for counts, phi in (({0, 1, 2}, theta), ({0, 1}, math.pi / 2), ({2}, 0.0)):
        for negated in (0.0, math.pi):
            chance = math.cos(phi + negated + 2 * theta) ** 2
            state, stats = flip(Levels(index, counts), good, Want.BAD,
                                _Draws([chance - 1e-9]))
            assert (state.counts, _stats(stats)) == ({2}, (1, 0, 1))
            state, stats = flip(Levels(index, counts), good, Want.BAD,
                                _Draws([chance + 1e-9, 0.0]))
            assert (state.counts, _stats(stats)) == ({2}, (2, 1, 2))
    for counts in ({1}, {0, 2}):
        with pytest.raises(ValidationError):
            flip(Levels(index, counts), good, Want.BAD, _Draws([0.0]))


@settings(deadline=None, max_examples=60)
@given(
    values=st.lists(st.integers(0, 7), min_size=16, max_size=16),
    big_r=st.sampled_from([2, 3, 4]),
    picks=st.lists(st.booleans(), min_size=3, max_size=3),
    start=st.sampled_from(["axis", "good", "bad"]),
    want=st.sampled_from(Want),
    seed=st.integers(0, 2**32 - 1),
)
def test_flip_matches_the_vector_flip(values, big_r, picks, start, want, seed):
    """levels.flip against amplify.flip from the same class state, the axis
    or one side of the flags, on a small family.  The class state holds no
    sign, so the vector flip started from its vector and from that vector
    negated must each give the class flip's counts, work record and next
    draw, and its state up to a global sign."""
    index = FamilyIndex(restrict(FunctionTable(Params(n=4, m=4, k=0), values),
                                 CollisionTable()), big_r)
    good = picks.__getitem__
    good_size = sum(size for c, size in enumerate(index.sizes) if picks[c])
    assume(0 < good_size < index.total)
    counts = {c for c, size in enumerate(index.sizes)
              if size and (start == "axis" or picks[c] == (start == "good"))}
    state = Levels(index, counts)
    rng = np.random.default_rng(seed)
    ours, stats = flip(state, good, want, rng)
    next_draw = rng.random().hex()
    start_vector = as_state(state)
    for sign in (1, -1):
        ref_rng = np.random.default_rng(seed)
        reference, ref_stats = vector_flip(
            State({key: sign * a for key, a in start_vector.items()}),
            index.by_count(good), index.axis, want, ref_rng)
        assert _stats(stats) == _stats(ref_stats)
        assert _same_state(ours, reference)
        assert ref_rng.random().hex() == next_draw


def test_flip_past_2_to_the_1024_vertices_lands():
    """Sizes of 2^1100 and a third of it, past what a float holds: the flip
    reads Grover's plane off the shares |G|/V = 1/4 and |B|/V = 3/4, so its
    one round turns the axis at 30 degrees onto the good side, and the
    first attempt lands."""
    index = _Counts([2**1100, 2**1100 // 3])
    state, stats = flip(Levels.uniform(index), lambda c: c >= 1, Want.GOOD,
                        np.random.default_rng(0))
    assert (state.counts, _stats(stats)) == ({1}, (1, 0, 1))


def test_flip_at_one_in_a_trillion_is_one_rotation():
    """|G|/V = 10^-12: the flip's 785,398 rounds are one rotation, which
    lands on the good vertex at the first attempt."""
    index = _Counts([10**12 - 1, 1])
    state, stats = flip(Levels.uniform(index), lambda c: c >= 1, Want.GOOD,
                        np.random.default_rng(0))
    assert _stats(stats) == (785_398, 0, 1)
    assert state.counts == {1}


def test_flip_at_one_in_10_to_the_30_is_one_rotation():
    """|G|/V = 10^-30, a good amplitude of 1e-15: the flip is planned, not
    refused, and its floor(pi / (4 asin 1e-15)) rounds are one rotation, which
    lands on the good vertex at the first attempt."""
    index = _Counts([10**30 - 1, 1])
    state, stats = flip(Levels.uniform(index), lambda c: c >= 1, Want.GOOD,
                        np.random.default_rng(0))
    assert _stats(stats) == (flip_plan(1e-30, Want.GOOD)[0], 0, 1) == (785_398_163_397_448, 0, 1)
    assert state.counts == {1}


@pytest.mark.parametrize("total, stalled", [
    (3 * (10**20 // 3), 1.22e-4),
    (math.comb(128, 64), 4.2e-22),
])
def test_flip_plan_reads_the_share_past_a_float_sum(total, stalled):
    """|G| = V/3 on families near 10^20 and of C(128, 64) vertices: each
    attempt of a GOOD flip rotates flip_plan's floor(pi/(4 asin sqrt(1/3)))
    = 1 round.  A running float sum of the |G| weights (1/sqrt V)^2 stalls
    near `stalled` there, far below 1/3, and would size many more rounds."""
    index = _Counts([total - total // 3, total // 3])
    rounds, _ = flip_plan(1 / 3, Want.GOOD)
    assert rounds == 1 < flip_plan(stalled, Want.GOOD)[0]
    state, stats = flip(Levels.uniform(index), lambda c: c >= 1, Want.GOOD,
                        np.random.default_rng(0))
    assert state.counts == {1}
    assert stats.iterations_used == rounds * stats.attempts
