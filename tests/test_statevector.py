"""Tests for the exact state layer."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from chainwalk.amplify import Want, flip, grover_iterate
from chainwalk.errors import ValidationError
from chainwalk.statevector import (
    NORM_TOL,
    PRUNE_EPS,
    State,
    attach_register,
    decode_subset,
    key_register,
    measure,
    reflect_about_predicate,
    reflect_about_state,
    states_close,
    subset_key,
)
from reference import uniform_state


def test_subset_key_codec():
    key = subset_key([12, 3, 7])
    assert decode_subset(key) == (3, 7, 12)
    assert subset_key([3, 7, 12]) == key
    assert decode_subset(subset_key([])) == ()
    # count prefix is 2 bytes big-endian, points are 4 bytes each
    assert len(key) == 2 + 3 * 4
    assert key[:2] == (3).to_bytes(2, "big")


def test_register_attach_strip():
    key = subset_key([1, 2])
    tagged = attach_register(key, b"tok")
    assert key_register(tagged) == b"tok"
    assert key_register(key) == b""
    assert decode_subset(tagged) == (1, 2)


def test_state_normalization_contract():
    with pytest.raises(ValidationError):
        State({b"a": 0.5})
    st = State({b"a": 0.5}, normalize=True)
    assert abs(st.amplitude(b"a") - 1.0) < 1e-12
    ok = State({b"a": 3 / 5, b"b": 4 / 5})
    assert abs(math.hypot(*ok.amplitudes.values()) - 1.0) < 1e-12
    assert b"a" in ok and b"c" not in ok
    assert len(ok) == 2


def test_nan_norm_is_rejected():
    """A NaN amplitude is not pruned, and its NaN norm fails the check."""
    for normalize in (False, True):
        with pytest.raises(ValidationError):
            State({b"a": math.nan, b"b": 1.0}, normalize=normalize)


def test_tiny_amplitudes_pruned():
    st = State({b"a": 1.0, b"b": 1e-15}, normalize=True)
    assert st.support() == (b"a",)


def test_normalize_prunes_after_the_division():
    # 2e-12 survives the first prune; divided by the norm 2 it is 1e-12
    st = State({b"a": 1.2, b"b": 2e-12, b"c": 1.6}, normalize=True)
    assert st.support() == (b"a", b"c")
    assert st.amplitude(b"b") == 0 and b"b" not in st
    assert all(abs(a) > PRUNE_EPS for _, a in st.items())


def test_uniform_state():
    st = uniform_state([b"c", b"a", b"b"])
    assert st.support() == (b"a", b"b", b"c")
    for key in st.support():
        assert abs(st.amplitude(key) - 1 / math.sqrt(3)) < 1e-12


def test_reflections_are_involutions():
    rng = np.random.default_rng(7)
    keys = [bytes([i]) for i in range(8)]
    for _ in range(20):
        amps = rng.normal(size=8).tolist()
        st = State(dict(zip(keys, amps)), normalize=True)
        axis = uniform_state(keys[:5])
        twice = reflect_about_state(reflect_about_state(st, axis), axis)
        assert states_close(twice, st, tol=1e-9)
        flip = lambda key: key < bytes([4])
        again = reflect_about_predicate(reflect_about_predicate(st, flip), flip)
        assert states_close(again, st, tol=1e-9)
        reflected = reflect_about_state(st, axis)
        assert abs(sum(abs(a) ** 2 for _, a in reflected.items()) - 1.0) < 1e-9


def test_reflect_about_predicate_sign():
    st = State({b"g": 0.6, b"b": 0.8})
    out = reflect_about_predicate(st, lambda key: key == b"g")
    assert abs(out.amplitude(b"g") + 0.6) < 1e-12
    assert abs(out.amplitude(b"b") - 0.8) < 1e-12


def test_measure_collapse_and_frequencies():
    st = State({b"a1": 0.6, b"a2": 0.0, b"b1": 0.8}, normalize=True)
    register = lambda key: key[:1]
    rng = np.random.default_rng(123)
    hits = {b"a": 0, b"b": 0}
    for _ in range(4000):
        outcome, collapsed = measure(st, register, rng)
        hits[outcome] += 1
        assert abs(sum(abs(a) ** 2 for _, a in collapsed.items()) - 1.0) < 1e-9
        for key in collapsed.support():
            assert register(key) == outcome
    p_a = 0.36
    sigma = math.sqrt(p_a * (1 - p_a) / 4000)
    assert abs(hits[b"a"] / 4000 - p_a) <= 4 * sigma


def test_measure_deterministic_stream():
    st = uniform_state([bytes([i]) for i in range(6)])
    reg = lambda key: key[0] % 2
    a = [measure(st, reg, np.random.default_rng(5))[0] for _ in range(20)]
    b = [measure(st, reg, np.random.default_rng(5))[0] for _ in range(20)]
    assert a == b


def test_probability_of_predicate():
    st = State({b"a": 0.6, b"b": 0.8})
    assert abs(st.probability(lambda key: key == b"a") - 0.36) < 1e-12


def test_states_close_global_phase():
    keys = [bytes([i]) for i in range(5)]
    st = uniform_state(keys)
    rotated = State({k: -a for k, a in st.items()})
    assert states_close(st, rotated)
    other = uniform_state(keys[:4])
    assert not states_close(st, other)
    # the other state lacks the first state's reference key
    assert not states_close(st, State({b"z": 1.0}))


# ------------------------------------------------------------------
# Differential tests: State against a pure-dict reference written apart.
# A reference state is a dict from key to complex amplitude.


def _ref_prune(amps):
    return {k: complex(a) for k, a in amps.items() if abs(a) > PRUNE_EPS}


def _ref_normalized(amps):
    """Prune, divide by the norm, and prune what the division left small."""
    amps = _ref_prune(amps)
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return _ref_prune({k: a / norm for k, a in amps.items()})


def _ref_inner(left, right):
    return sum((a.conjugate() * right[k] for k, a in left.items() if k in right), 0j)


def _ref_reflect_state(state, axis):
    overlap = _ref_inner(axis, state)
    out = {k: -a for k, a in state.items()}
    for k, a in axis.items():
        out[k] = out.get(k, 0j) + 2.0 * overlap * a
    return _ref_prune(out)


def _ref_reflect_predicate(state, flip):
    return _ref_prune({k: (-a if flip(k) else a) for k, a in state.items()})


def _ref_measure(state, register, rng):
    weights = {}
    for k, a in state.items():
        label = register(k)
        weights[label] = weights.get(label, 0.0) + abs(a) ** 2
    labels = sorted(weights)
    # the first label whose cumulative weight exceeds u times the total, in
    # exact rationals: u and every float weight are dyadic
    exact = [Fraction(weights[label]) for label in labels]
    bar = Fraction(float(rng.random())) * sum(exact)
    outcome = next(label for label, upto in zip(labels, itertools.accumulate(exact))
                   if bar < upto)
    scale = 1.0 / math.sqrt(weights[outcome])
    return outcome, _ref_prune(
        {k: a * scale for k, a in state.items() if register(k) == outcome}
    )


def _assert_matches(state, ref, tol=1e-12):
    keys = set(ref) | {k for k, _ in state.items()}
    for k in keys:
        assert abs(state.amplitude(k) - ref.get(k, 0j)) <= tol, k
    for k, a in ref.items():
        if abs(a) > 2 * PRUNE_EPS:
            assert k in state
    for k, _ in state.items():
        assert abs(ref.get(k, 0j)) > PRUNE_EPS / 2


_KEYS = [bytes([i]) for i in range(10)]
_AMP = hs.one_of(
    hs.floats(-1.0, 1.0, allow_subnormal=False),
    hs.sampled_from([1e-12, -1e-12, 2e-12, 5e-13, -2e-12]),
)
# magnitudes of at least 0.1: one such amplitude among ten of magnitude 1 or
# less carries at least 1e-3 of their squared norm
_ANCHOR = hs.one_of(hs.floats(0.1, 1.0), hs.floats(-1.0, -0.1))
# where in a list of amplitudes an _ANCHOR goes, and its value
_PLACED_ANCHOR = hs.tuples(hs.integers(0, 2**16), _ANCHOR)


def _amplitudes(keys):
    """Amplitudes of some of `keys`, one of them an _ANCHOR, so that their
    pruned norm^2 is above 1e-2."""
    return hs.tuples(
        hs.dictionaries(hs.sampled_from(keys), _AMP), hs.sampled_from(keys), _ANCHOR
    ).map(lambda drawn: {**drawn[0], drawn[1]: drawn[2]})


def _anchored(amps, placed):
    """The list `amps` with its amplitude at the placed index replaced by
    the placed _ANCHOR."""
    at, anchor = placed
    return amps[:at % len(amps)] + [anchor] + amps[at % len(amps) + 1:]


_AMPS = _amplitudes(_KEYS)


def _pair(amps):
    """(State, reference) for the normalized amplitudes, or reject them."""
    assume(sum(abs(a) ** 2 for a in _ref_prune(amps).values()) > 1e-2)
    return State(amps, normalize=True), _ref_normalized(amps)


@settings(deadline=None, max_examples=150)
@given(_AMPS, _AMPS, hs.sets(hs.sampled_from(_KEYS)))
def test_reflections_match_dict_reference(axis_amps, state_amps, flipped):
    """The axis may carry keys the state lacks, and the state keys the
    axis lacks."""
    axis, ref_axis = _pair(axis_amps)
    state, ref_state = _pair(state_amps)
    out = reflect_about_state(state, axis)
    _assert_matches(out, _ref_reflect_state(ref_state, ref_axis))
    flip = lambda key: key in flipped
    _assert_matches(
        reflect_about_predicate(out, flip),
        _ref_reflect_predicate(_ref_reflect_state(ref_state, ref_axis), flip),
    )


@settings(deadline=None, max_examples=100)
@given(_AMPS, _AMPS, hs.sets(hs.sampled_from(_KEYS)), hs.integers(0, 4))
def test_grover_iterate_matches_reflection_pairs(axis_amps, state_amps, good_keys, count):
    """good is read on every key, on the axis or off it."""
    axis, ref_axis = _pair(axis_amps)
    state, ref = _pair(state_amps)
    good = lambda key: key in good_keys
    for _ in range(count):
        ref = _ref_reflect_state(_ref_reflect_predicate(ref, good), ref_axis)
    _assert_matches(grover_iterate(state, good, axis, count), ref, tol=1e-11)


@settings(deadline=None, max_examples=100)
@given(
    hs.lists(hs.one_of(_AMP, hs.just(0.0)), min_size=len(_KEYS), max_size=len(_KEYS)),
    _PLACED_ANCHOR,
    _AMPS,
    hs.sets(hs.sampled_from(_KEYS)),
    hs.integers(0, 6),
)
def test_grover_iterate_is_bit_exact_against_reflection_rounds(
    axis_amps, placed, state_amps, good_keys, count
):
    """grover_iterate's rounds equal `count` public reflection pairs
    exactly, key order included.  The axis's keys are those of _KEYS whose
    amplitude survives the prune, so it may be zero on some; the state's
    are drawn from all of _KEYS."""
    amps = dict(zip(_KEYS, _anchored(axis_amps, placed)))
    axis = State(amps, normalize=True)
    state, _ = _pair(state_amps)
    good = lambda key: key in good_keys
    ref = state
    for _ in range(count):
        ref = reflect_about_state(reflect_about_predicate(ref, good), axis)
    assert grover_iterate(state, good, axis, count).items() == ref.items()


def _smallest_refused_count(iterate, limit=20):
    for count in range(1, limit):
        try:
            iterate(count)
        except ValidationError:
            return count
    return None


def test_every_round_checks_the_norm():
    """Reflecting v about an axis of norm^2 1 + d adds 4*d*|<axis, v>|^2 to
    v's norm^2.  With d just inside NORM_TOL the drift leaves tolerance after
    a few rounds, and grover_iterate refuses the same round the reflection
    pairs do."""
    theta = 0.05
    scale = math.sqrt(1.0 + 0.1 * NORM_TOL)
    axis = State({b"g": scale * math.sin(theta), b"b": scale * math.cos(theta)})
    state = State({b"b": 1.0})
    good = lambda key: key == b"g"

    def pairs(count):
        out = state
        for _ in range(count):
            out = reflect_about_state(reflect_about_predicate(out, good), axis)
        return out

    def iterated(count):
        return grover_iterate(state, good, axis, count)

    refused = _smallest_refused_count(pairs)
    assert refused is not None and refused > 1
    assert _smallest_refused_count(iterated) == refused
    for iterate in (pairs, iterated):
        with pytest.raises(ValidationError, match="norm"):
            iterate(refused)
        # one round short, the drift shows but is inside tolerance
        short = iterate(refused - 1)
        assert 0.5 * NORM_TOL < sum(abs(a) ** 2 for _, a in short.items()) - 1.0 <= NORM_TOL


@settings(deadline=None, max_examples=150)
@given(_AMPS, _AMPS, hs.integers(1, 4), hs.integers(0, 2**32 - 1))
def test_measure_matches_dict_reference(axis_amps, state_amps, modulus, seed):
    axis, ref_axis = _pair(axis_amps)
    state, ref = _pair(state_amps)
    # a derived state: its keys come in the axis's order
    state, ref = reflect_about_state(state, axis), _ref_reflect_state(ref, ref_axis)
    register = lambda key: key[0] % modulus
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    outcome, collapsed = measure(state, register, rng)
    ref_outcome, ref_collapsed = _ref_measure(ref, register, ref_rng)
    assert outcome == ref_outcome and type(outcome) is int
    _assert_matches(collapsed, ref_collapsed)
    assert rng.random() == ref_rng.random()


def _sequential_sum(values):
    """Floats added left to right, as CPython's sum did before 3.12."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


@settings(deadline=None, max_examples=150)
@given(
    hs.lists(hs.one_of(_AMP, hs.just(0.0)), min_size=1, max_size=40),
    _PLACED_ANCHOR,
    hs.lists(hs.booleans(), min_size=40, max_size=40),
)
def test_probability_is_the_sequential_sum(amps, placed, picks):
    """probability adds the picked support weights in key order, bit for
    bit as a sequential sum over a list of them does; 0.0 when none is
    picked."""
    amps = {key: a for key, a in enumerate(_anchored(amps, placed)) if abs(a) > PRUNE_EPS}
    state = State(amps, normalize=True)
    expected = _sequential_sum(
        a * a for key, a in state.items() if picks[key]
    )
    assert state.probability(picks.__getitem__) == expected
    assert state.probability(lambda key: False) == 0.0


def test_probability_sums_long_vectors_in_order():
    """Over 12,870 weights, where numpy's pairwise sum rounds differently."""
    rng = np.random.default_rng(11)
    differs = 0
    for _ in range(20):
        amps = rng.normal(size=12_870)
        state = State(dict(enumerate((amps / np.linalg.norm(amps)).tolist())))
        flags = (rng.random(len(amps)) < 0.7).tolist()
        weights = [a * a for key, a in state.items() if flags[key]]
        assert state.probability(flags.__getitem__) == _sequential_sum(weights)
        differs += float(np.sum(weights)) != _sequential_sum(weights)
    assert differs


_LABEL_KINDS = {
    "small": lambda pick: pick,
    # the same labels moved 2^16 above their count, or below zero
    "above": lambda pick: pick + len(_KEYS) + (1 << 16),
    "negative": lambda pick: pick - 2,
    "bytes": lambda pick: bytes([pick]),
}


@settings(deadline=None, max_examples=200)
@given(
    hs.lists(hs.one_of(_AMP, hs.just(0.0)), min_size=len(_KEYS), max_size=len(_KEYS)),
    _PLACED_ANCHOR,
    hs.lists(hs.integers(0, 3), min_size=len(_KEYS), max_size=len(_KEYS)),
    hs.integers(0, 2**32 - 1),
)
def test_label_codes_agree_with_unique(amps, placed, picks, seed):
    """measure codes each label by its rank among the sorted distinct
    labels, as a sort-unique would, so labels of any type that sort alike
    draw alike: measured through each kind of _LABEL_KINDS, the outcome is
    that kind's spelling of one pick, the collapsed state is the same, and
    the generators stay level."""
    amps = {key: a for key, a in zip(_KEYS, _anchored(amps, placed)) if abs(a) > PRUNE_EPS}
    state = State(amps, normalize=True)
    results = []
    for kind in sorted(_LABEL_KINDS):
        spell = _LABEL_KINDS[kind]
        rng = np.random.default_rng(seed)
        outcome, collapsed = measure(state, lambda key: spell(picks[key[0]]), rng)
        pick = next(p for p in range(4) if spell(p) == outcome)
        results.append((pick, collapsed.items(), rng.random()))
    assert all(result == results[0] for result in results)


def test_pruning_at_the_edge():
    st = State({b"a": 1.0, b"b": 1e-12, b"c": -1e-12j, b"d": 1.5e-12})
    assert st.support() == (b"a", b"d")
    assert len(st) == 2 and b"b" not in st and st.amplitude(b"b") == 0
    # every operation prunes by the same rule
    axis = State({b"a": 1.0})
    again = reflect_about_state(reflect_about_state(st, axis), axis)
    assert again.support() == (b"a", b"d")
    tiny = State({b"a": math.sqrt(1 - 4e-24), b"b": 2e-12})
    shrunk = reflect_about_state(tiny, State({b"b": 1.0}))
    assert abs(shrunk.amplitude(b"b") - 2e-12) < 1e-24
    half = State({b"a": math.sqrt(1 - 1e-24), b"b": 1e-12})
    assert half.support() == (b"a",)


# ------------------------------------------------------------------
# Whole flips against the dict reference, and states that differ by their
# global sign.

_MIX_KEYS = [bytes([i]) for i in range(6)]
_MIX_AXIS = [0.5, -0.1, 0.3, 0.6, -0.2, 0.4]
_MIX_STATE = [0.2, 0.7, -0.1, 0.0, 0.5, 0.3]


def _mixed_pair(amps):
    """(State, reference) over _MIX_KEYS."""
    amps = dict(zip(_MIX_KEYS, amps))
    return State(amps, normalize=True), _ref_normalized(amps)


def _ref_flip(state, good, axis, want, rng):
    """flip on the dict reference: the same iteration count, then rounds of
    reflection pairs and a flag measurement until it lands on `want`."""
    alpha = math.sqrt(sum(abs(a) ** 2 for k, a in axis.items() if good(k)))
    count = math.floor(math.pi / (4 * math.asin(min(1.0, alpha))))
    if want is Want.BAD:
        count = max(1, count)
    while True:
        for _ in range(count):
            state = _ref_reflect_state(_ref_reflect_predicate(state, good), axis)
        outcome, state = _ref_measure(state, good, rng)
        if outcome == (want is Want.GOOD):
            return state


@pytest.mark.parametrize("swapped", [True, False])
def test_flip_matches_the_dict_reference(swapped):
    """reflect_about_state, grover_iterate and flip, on a fixed state and
    axis, and with the two vectors' roles swapped, match the dict reference."""
    axis_amps, state_amps = (_MIX_STATE, _MIX_AXIS) if swapped else (_MIX_AXIS, _MIX_STATE)
    axis, ref_axis = _mixed_pair(axis_amps)
    state, ref_state = _mixed_pair(state_amps)
    good = lambda key: key in (b"\x01", b"\x04")
    _assert_matches(reflect_about_state(state, axis), _ref_reflect_state(ref_state, ref_axis))
    for count in (1, 3):
        out = grover_iterate(state, good, axis, count)
        ref = ref_state
        for _ in range(count):
            ref = _ref_reflect_state(_ref_reflect_predicate(ref, good), ref_axis)
        _assert_matches(out, ref, tol=1e-11)
    # flip starts in span{B, G}: at the axis
    for want in Want:
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        out, _ = flip(axis, good, axis, want, rng)
        _assert_matches(out, _ref_flip(ref_axis, good, ref_axis, want, ref_rng), tol=1e-11)
        assert rng.random() == ref_rng.random()


def test_a_good_key_off_the_axis_is_read_as_good():
    """A state key where the axis is zero and good holds: one round negates
    it and reflects it back, as the reflection pair does, and flip's flag
    measurement finds it on the good side at the first attempt."""
    axis = State({b"g": 0.6, b"b": 0.8})
    state = State({b"o": 1.0})
    good = lambda key: key in (b"g", b"o")
    pair = reflect_about_state(reflect_about_predicate(state, good), axis)
    assert grover_iterate(state, good, axis, 1).items() == pair.items() == [(b"o", 1.0)]
    out, stats = flip(state, good, axis, Want.GOOD, np.random.default_rng(0))
    assert out.items() == [(b"o", 1.0)]
    assert (stats.attempts, stats.restarts, stats.iterations_used) == (1, 0, 1)


_REAL_AMP = hs.one_of(
    hs.floats(-1.0, 1.0, allow_subnormal=False),
    hs.sampled_from([1e-12, -1e-12, 2e-12, 5e-13]),
)


@hs.composite
def _axis_and_flags(draw):
    """A unit float vector over _KEYS and good flags over it, with mass on
    both sides: one good and one bad key hold an _ANCHOR amplitude."""
    size = len(_KEYS)
    amps = draw(hs.lists(hs.one_of(_REAL_AMP, hs.just(0.0)), min_size=size, max_size=size))
    good = draw(hs.lists(hs.booleans(), min_size=size, max_size=size))
    g, b = draw(hs.lists(hs.integers(0, size - 1), min_size=2, max_size=2, unique=True))
    amps[g], amps[b] = draw(_ANCHOR), draw(_ANCHOR)
    good[g], good[b] = True, False
    vector = np.array(amps)
    vector[np.abs(vector) <= PRUNE_EPS] = 0
    return vector / math.sqrt(float(vector @ vector)), np.array(good)


@settings(deadline=None, max_examples=150)
@given(
    _axis_and_flags(),
    hs.dictionaries(hs.sampled_from(_KEYS), _REAL_AMP, min_size=1),
    hs.tuples(hs.sampled_from(_KEYS), _ANCHOR),
    hs.lists(hs.integers(0, 3), min_size=len(_KEYS), max_size=len(_KEYS)),
    hs.integers(0, 6),
    hs.sampled_from(Want),
    hs.integers(0, 2**32 - 1),
)
def test_negated_states_draw_alike(axis_and_flags, amps, anchor, labels, count, want, seed):
    """reflect_about_state, grover_iterate, measure and flip on a state and
    axis, and on both negated, with equal seeds: the same outcomes, supports
    and next draws, and states equal up to their global sign within 1e-12.
    No draw reads a global sign."""
    vector, flags = axis_and_flags
    anchor_key, anchor_amp = anchor
    amps = {**amps, anchor_key: anchor_amp}
    good = lambda key: bool(flags[key[0]])
    runs = []
    for sign in (1.0, -1.0):
        axis = State({key: sign * a for key, a in zip(_KEYS, vector.tolist())})
        state = State({key: sign * a for key, a in amps.items()}, normalize=True)
        rng = np.random.default_rng(seed)
        states = [
            state,
            reflect_about_state(state, axis),
            grover_iterate(state, good, axis, count),
        ]
        outcome, collapsed = measure(states[-1], lambda key: labels[key[0]], rng)
        flipped, stats = flip(axis, good, axis, want, rng)
        states += [collapsed, flipped]
        runs.append((states, outcome, stats, rng.random()))
    (positive, outcome, stats, after), (negated, *rest) = runs
    assert rest == [outcome, stats, after]
    for p, n in zip(positive, negated):
        assert p.keys() == n.keys()
        assert states_close(p, n, tol=1e-12)
