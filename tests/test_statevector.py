"""Tests for the exact state layer."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from chainwalk.amplify import Want, flip, grover_iterate, iteration_count
from chainwalk.errors import ValidationError
from chainwalk.statevector import (
    NORM_TOL,
    PRUNE_EPS,
    Basis,
    State,
    align,
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
    assert abs(np.linalg.norm(ok.vector) - 1.0) < 1e-12
    assert b"a" in ok and b"c" not in ok
    assert len(ok) == 2


def test_nan_norm_is_rejected():
    """A NaN amplitude is not pruned, and its NaN norm fails the check."""
    for normalize in (False, True):
        with pytest.raises(ValidationError):
            State({b"a": math.nan, b"b": 1.0}, normalize=normalize)
    with pytest.raises(ValidationError):
        State.over(Basis.of([b"a", b"b"]), [math.nan, 1.0])


def test_tiny_amplitudes_pruned():
    st = State({b"a": 1.0, b"b": 1e-15}, normalize=True)
    assert st.support() == (b"a",)


def test_normalize_prunes_after_the_division():
    # 2e-12 survives the first prune; divided by the norm 2 it is 1e-12
    st = State({b"a": 1 + 1j, b"b": 2e-12, b"c": 1 + 1j}, normalize=True)
    assert st.support() == (b"a", b"c")
    assert st.amplitude(b"b") == 0 and b"b" not in st
    assert np.all((st.vector == 0) | (np.abs(st.vector) > PRUNE_EPS))


def test_uniform_state():
    st = uniform_state([b"c", b"a", b"b"])
    assert st.support() == (b"a", b"b", b"c")
    for key in st.support():
        assert abs(st.amplitude(key) - 1 / math.sqrt(3)) < 1e-12


def test_reflections_are_involutions():
    rng = np.random.default_rng(7)
    keys = [bytes([i]) for i in range(8)]
    for _ in range(20):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        st = State(dict(zip(keys, amps)), normalize=True)
        axis = State.over(st.basis, [1 / math.sqrt(5)] * 5 + [0] * 3)
        twice = reflect_about_state(reflect_about_state(st, axis), axis)
        assert states_close(twice, st, tol=1e-9)
        flip = lambda key: key < bytes([4])
        again = reflect_about_predicate(reflect_about_predicate(st, flip), flip)
        assert states_close(again, st, tol=1e-9)
        assert abs(np.linalg.norm(reflect_about_state(st, axis).vector) - 1.0) < 1e-9


def test_reflect_about_predicate_sign():
    st = State({b"g": 0.6, b"b": 0.8})
    out = reflect_about_predicate(st, lambda key: key == b"g")
    assert abs(out.amplitude(b"g") + 0.6) < 1e-12
    assert abs(out.amplitude(b"b") - 0.8) < 1e-12


def test_measure_collapse_and_frequencies():
    st = State({b"a1": 0.6, b"a2": 0.0 + 0.0j, b"b1": 0.8}, normalize=True)
    register = lambda key: key[:1]
    rng = np.random.default_rng(123)
    hits = {b"a": 0, b"b": 0}
    for _ in range(4000):
        outcome, collapsed = measure(st, register, rng)
        hits[outcome] += 1
        assert abs(np.linalg.norm(collapsed.vector) - 1.0) < 1e-9
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
    phase = cmath.exp(1j * 1.234)
    rotated = State({k: phase * a for k, a in st.items()})
    assert states_close(st, rotated)
    other = uniform_state(keys[:4])
    assert not states_close(st, other)


# ------------------------------------------------------------------
# Differential tests: the array-backed State against a pure-dict reference.
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
    draw = float(rng.random())
    acc, outcome = 0.0, labels[-1]
    for label in labels:
        acc += weights[label]
        if draw < acc:
            outcome = label
            break
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
    hs.builds(
        complex,
        hs.floats(-1.0, 1.0, allow_subnormal=False),
        hs.floats(-1.0, 1.0, allow_subnormal=False),
    ),
    hs.sampled_from([1e-12, -1e-12, 2e-12, 5e-13, 1e-12j]),
)
_AMPS = hs.dictionaries(hs.sampled_from(_KEYS), _AMP, min_size=1)


def _pair(amps):
    """(State, reference) for the normalized amplitudes, or reject them."""
    assume(sum(abs(a) ** 2 for a in _ref_prune(amps).values()) > 1e-2)
    return State(amps, normalize=True), _ref_normalized(amps)


def _pair_on(data, axis):
    """A (State, reference) pair whose keys are drawn from axis's basis; the
    state lies over a basis of its own, in the order the keys were drawn."""
    keys = hs.sampled_from(list(axis.basis.keys))
    return _pair(data.draw(hs.dictionaries(keys, _AMP, min_size=1)))


@settings(deadline=None, max_examples=150)
@given(_AMPS, hs.data(), hs.sets(hs.sampled_from(_KEYS)))
def test_reflections_match_dict_reference(axis_amps, data, flipped):
    """The axis may carry keys the state lacks."""
    axis, ref_axis = _pair(axis_amps)
    state, ref_state = _pair_on(data, axis)
    out = reflect_about_state(state, axis)
    _assert_matches(out, _ref_reflect_state(ref_state, ref_axis))
    assert out.basis is axis.basis
    flip = lambda key: key in flipped
    _assert_matches(
        reflect_about_predicate(out, flip),
        _ref_reflect_predicate(_ref_reflect_state(ref_state, ref_axis), flip),
    )


@settings(deadline=None, max_examples=100)
@given(_AMPS, hs.data(), hs.sets(hs.sampled_from(_KEYS)), hs.integers(0, 4))
def test_grover_iterate_matches_reflection_pairs(axis_amps, data, good_keys, count):
    axis, ref_axis = _pair(axis_amps)
    state, ref = _pair_on(data, axis)
    good = lambda key: key in good_keys
    for _ in range(count):
        ref = _ref_reflect_state(_ref_reflect_predicate(ref, good), ref_axis)
    _assert_matches(grover_iterate(state, good, axis, count), ref, tol=1e-11)


@settings(deadline=None, max_examples=100)
@given(
    hs.lists(hs.one_of(_AMP, hs.just(0j)), min_size=len(_KEYS), max_size=len(_KEYS)),
    hs.data(),
    hs.sets(hs.sampled_from(_KEYS)),
    hs.booleans(),
    hs.booleans(),
    hs.integers(0, 6),
)
def test_grover_iterate_is_bit_exact_against_reflection_rounds(
    axis_amps, data, good_keys, own_basis, as_vector, count
):
    """grover_iterate's rounds equal `count` public reflection pairs
    exactly.  The axis lies over all of _KEYS and may be zero
    on some of them; the state lies over a basis of its own (the align path)
    or over the axis's; `good` is a callback or a boolean vector."""
    vector = np.array(axis_amps, dtype=complex)
    vector[np.abs(vector) <= PRUNE_EPS] = 0
    norm2 = np.vdot(vector, vector).real
    assume(norm2 > 1e-2)
    axis = State.over(Basis.of(_KEYS), vector / math.sqrt(norm2))
    state, _ = _pair_on(data, axis)
    if not own_basis:
        state = align(state, axis)
    good = lambda key: key in good_keys
    ref = state
    for _ in range(count):
        ref = reflect_about_state(reflect_about_predicate(ref, good), axis)
    flags = np.array([good(key) for key in axis.basis.keys])
    out = grover_iterate(state, flags if as_vector else good, axis, count)
    assert out.basis is ref.basis
    assert np.array_equal(out.vector, ref.vector)
    assert np.array_equal(out.live, ref.live)


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
    basis = Basis.of([b"g", b"b"])
    theta = 0.05
    scale = math.sqrt(1.0 + 0.1 * NORM_TOL)
    axis = State.over(basis, [scale * math.sin(theta), scale * math.cos(theta)])
    state = State.over(basis, [0.0, 1.0])
    good = np.array([True, False])

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
        short = iterate(refused - 1).vector
        assert 0.5 * NORM_TOL < np.vdot(short, short).real - 1.0 <= NORM_TOL


def test_grover_iterate_refuses_a_good_vector_of_the_wrong_length():
    axis = uniform_state([b"a", b"b", b"c"])
    for count in (1, 3):
        for good in (np.array([True, False]), np.array([True, False, False, True])):
            with pytest.raises(ValidationError):
                grover_iterate(axis, good, axis, count)


@settings(deadline=None, max_examples=150)
@given(_AMPS, hs.data(), hs.integers(1, 4), hs.integers(0, 2**32 - 1))
def test_measure_matches_dict_reference(axis_amps, data, modulus, seed):
    axis, ref_axis = _pair(axis_amps)
    state, ref = _pair_on(data, axis)
    # a derived state: its basis is the axis's
    state, ref = reflect_about_state(state, axis), _ref_reflect_state(ref, ref_axis)
    register = lambda key: key[0] % modulus
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    outcome, collapsed = measure(state, register, rng)
    ref_outcome, ref_collapsed = _ref_measure(ref, register, ref_rng)
    assert outcome == ref_outcome
    _assert_matches(collapsed, ref_collapsed)
    assert collapsed.basis is state.basis
    # the same labels as a vector over the basis
    vec_rng = np.random.default_rng(seed)
    labels = np.array([register(key) for key in state.basis.keys])
    vec_outcome, vec_collapsed = measure(state, labels, vec_rng)
    assert vec_outcome == outcome and type(vec_outcome) is int
    assert vec_collapsed.items() == collapsed.items()
    assert rng.random() == ref_rng.random() == vec_rng.random()


def _sequential_sum(values):
    """Floats added left to right, as CPython's sum did before 3.12."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


@settings(deadline=None, max_examples=150)
@given(
    hs.lists(hs.one_of(_AMP, hs.just(0j)), min_size=1, max_size=40),
    hs.lists(hs.booleans(), min_size=40, max_size=40),
)
def test_probability_is_the_sequential_sum(amps, picks):
    """probability adds the picked support weights in basis order, bit for
    bit as a sequential sum over a list of them does; 0.0 when none is
    picked."""
    vector = np.array(amps, dtype=complex)
    vector[np.abs(vector) <= PRUNE_EPS] = 0
    norm2 = np.vdot(vector, vector).real
    assume(norm2 > 1e-2)
    state = State.over(Basis.of(list(range(len(amps)))), vector / math.sqrt(norm2))
    flags = np.array(picks[:len(amps)])
    weights = np.abs(state.vector[state.live]) ** 2
    expected = _sequential_sum(weights[flags[state.live]].tolist())
    assert state.probability(flags) == expected
    assert state.probability(np.zeros(len(amps), dtype=bool)) == 0.0


def test_probability_sums_long_vectors_in_order():
    """Over 12,870 weights, where numpy's pairwise sum rounds differently."""
    rng = np.random.default_rng(11)
    differs = 0
    for _ in range(20):
        amps = rng.normal(size=12_870) + 1j * rng.normal(size=12_870)
        state = State.over(Basis.of(list(range(len(amps)))), amps / np.linalg.norm(amps))
        flags = rng.random(len(amps)) < 0.7
        weights = (np.abs(state.vector) ** 2)[flags]
        assert state.probability(flags) == _sequential_sum(weights.tolist())
        differs += float(np.sum(weights)) != _sequential_sum(weights.tolist())
    assert differs


_LABEL_KINDS = {
    "bool": lambda picks: picks % 2 == 1,
    "small": lambda picks: picks,
    "uint8": lambda picks: picks.astype(np.uint8),
    # the same labels moved 2^16 above their count, or one of them far above
    "above": lambda picks: picks + len(_KEYS) + (1 << 16),
    "far": lambda picks: np.where(picks == 3, 1 << 40, picks),
    "negative": lambda picks: picks - 2,
}


@settings(deadline=None, max_examples=200)
@given(
    hs.lists(hs.one_of(_AMP, hs.just(0j)), min_size=len(_KEYS), max_size=len(_KEYS)),
    hs.lists(hs.integers(0, 3), min_size=len(_KEYS), max_size=len(_KEYS)),
    hs.sampled_from(sorted(_LABEL_KINDS)),
    hs.integers(0, 2**32 - 1),
)
def test_label_codes_agree_with_unique(amps, picks, kind, seed):
    """A label vector measured as it is, as an object vector and as a key
    callback gives one outcome, of one type, one collapsed vector bit for
    bit, and leaves the generators level."""
    vector = np.array(amps, dtype=complex)
    vector[np.abs(vector) <= PRUNE_EPS] = 0
    norm2 = np.vdot(vector, vector).real
    assume(norm2 > 1e-2)
    state = State.over(Basis.of(_KEYS), vector / math.sqrt(norm2))
    labels = _LABEL_KINDS[kind](np.array(picks))
    listed = labels.tolist()
    results = []
    for form in (labels, labels.astype(object), lambda key: listed[key[0]]):
        rng = np.random.default_rng(seed)
        outcome, collapsed = measure(state, form, rng)
        results.append((outcome, type(outcome), collapsed.vector, rng.random()))
    (outcome, kind_of, collapsed, after), *others = results
    assert kind_of is (bool if kind == "bool" else int)
    for other in others:
        assert other[:2] == (outcome, kind_of)
        assert np.array_equal(other[2], collapsed)
        assert other[3] == after


def test_pruning_at_the_edge():
    st = State({b"a": 1.0, b"b": 1e-12, b"c": -1e-12j, b"d": 1.5e-12})
    assert st.support() == (b"a", b"d")
    assert len(st) == 2 and b"b" not in st and st.amplitude(b"b") == 0
    # every operation prunes by the same rule
    axis = State.over(st.basis, [1.0, 0.0])
    again = reflect_about_state(reflect_about_state(st, axis), axis)
    assert again.support() == (b"a", b"d")
    tiny = State({b"a": math.sqrt(1 - 4e-24), b"b": 2e-12})
    shrunk = reflect_about_state(tiny, State.over(tiny.basis, [0.0, 1.0]))
    assert abs(shrunk.amplitude(b"b") - 2e-12) < 1e-24
    half = State.over(tiny.basis, [math.sqrt(1 - 1e-24), 1e-12])
    assert half.support() == (b"a",)


def test_align_moves_amplitudes_unchanged():
    # 4e-12 divided by the norm 2 is 2e-12, just above PRUNE_EPS, and moves as is
    st = State({b"a": 1 + 1j, b"b": 4e-12, b"c": 1 + 1j}, normalize=True)
    assert st.amplitude(b"b") == 2e-12
    moved = align(st, uniform_state([b"a", b"b", b"c", b"d"]))
    assert moved.basis is not st.basis
    assert moved.items() == st.items()


def test_align_refuses_keys_outside_the_axis_basis():
    axis = uniform_state([b"a", b"b"])
    stray = State({b"a": 0.6, b"c": 0.8})
    good = lambda key: key == b"a"
    with pytest.raises(ValidationError):
        reflect_about_state(stray, axis)
    for count in (1, 3):
        with pytest.raises(ValidationError):
            grover_iterate(stray, good, axis, count)
    for want in Want:
        with pytest.raises(ValidationError):
            flip(stray, good, axis, want, np.random.default_rng(0))
    # keys inside the basis, laid over a basis of their own, move by position
    inside = State({b"b": 0.8, b"a": 0.6})
    out = reflect_about_state(inside, axis)
    assert out.basis is axis.basis
    assert abs(out.amplitude(b"a") - 0.8) < 1e-12
    assert abs(out.amplitude(b"b") - 0.6) < 1e-12


# ------------------------------------------------------------------
# Dtypes: a state is float64 when its amplitudes are real, complex128 when
# they are complex, and an operation on one of each gives complex128.

_MIX_KEYS = [bytes([i]) for i in range(6)]
_MIX_AXIS = [0.5, -0.1, 0.3, 0.6, -0.2, 0.4]
_MIX_STATE = [0.2, 0.7, -0.1, 0.0, 0.5, 0.3]
_MIX_PHASE = cmath.exp(0.7j)


def _mixed_pair(amps, real):
    """(State, reference) over _MIX_KEYS: the amplitudes as floats, or turned
    by _MIX_PHASE into complex ones."""
    amps = dict(zip(_MIX_KEYS, amps if real else [_MIX_PHASE * a for a in amps]))
    state = State(amps, normalize=True)
    assert state.vector.dtype == (np.float64 if real else np.complex128)
    return state, _ref_normalized(amps)


def _ref_flip(state, good, axis, want, rng):
    """flip on the dict reference: the same iteration count, then rounds of
    reflection pairs and a flag measurement until it lands on `want`."""
    alpha = math.sqrt(sum(abs(a) ** 2 for k, a in axis.items() if good(k)))
    count = iteration_count(alpha)
    if want is Want.BAD:
        count = max(1, count)
    while True:
        for _ in range(count):
            state = _ref_reflect_state(_ref_reflect_predicate(state, good), axis)
        outcome, state = _ref_measure(state, good, rng)
        if outcome == (want is Want.GOOD):
            return state


@pytest.mark.parametrize("real_state", [True, False])
def test_mixed_dtypes_promote_to_complex(real_state):
    """A real state over a complex axis, and a complex state over a real
    axis: reflect_about_state, grover_iterate and flip each give a complex128
    state that matches the dict reference."""
    axis, ref_axis = _mixed_pair(_MIX_AXIS, not real_state)
    state, ref_state = _mixed_pair(_MIX_STATE, real_state)
    good = lambda key: key in (b"\x01", b"\x04")
    out = reflect_about_state(state, axis)
    assert out.vector.dtype == np.complex128
    _assert_matches(out, _ref_reflect_state(ref_state, ref_axis))
    for count in (1, 3):
        out = grover_iterate(state, good, axis, count)
        ref = ref_state
        for _ in range(count):
            ref = _ref_reflect_state(_ref_reflect_predicate(ref, good), ref_axis)
        assert out.vector.dtype == np.complex128
        _assert_matches(out, ref, tol=1e-11)
    # flip starts in span{B, G}: the axis's own amplitudes in the other dtype
    start, ref_start = _mixed_pair(_MIX_AXIS, real_state)
    for want in Want:
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        out, _ = flip(start, good, axis, want, rng)
        assert out.vector.dtype == np.complex128
        _assert_matches(out, _ref_flip(ref_start, good, ref_axis, want, ref_rng), tol=1e-11)
        assert rng.random() == ref_rng.random()


_REAL_AMP = hs.one_of(
    hs.floats(-1.0, 1.0, allow_subnormal=False),
    hs.sampled_from([1e-12, -1e-12, 2e-12, 5e-13]),
)


# magnitudes of at least 0.1: one such amplitude among ten of magnitude 1 or
# less carries at least 1e-3 of their squared norm
_ANCHOR = hs.one_of(hs.floats(0.1, 1.0), hs.floats(-1.0, -0.1))


@hs.composite
def _axis_and_flags(draw):
    """A unit float64 vector over _KEYS and good flags over it, with mass on
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
def test_real_states_match_their_complex_copies(
    axis_and_flags, amps, anchor, labels, count, want, seed
):
    """align, reflect_about_state, grover_iterate, measure and flip on a
    float64 state and axis, and on the same values as complex128, with equal
    seeds: the same outcomes, supports and next draws, amplitudes within
    1e-12, and amplitude() a Python complex for both."""
    vector, flags = axis_and_flags
    anchor_key, anchor_amp = anchor
    amps = {**amps, anchor_key: anchor_amp}
    runs = []
    for dtype in (float, complex):
        axis = State.over(Basis.of(_KEYS), vector.astype(dtype))
        state = State({key: dtype(a) for key, a in amps.items()}, normalize=True)
        rng = np.random.default_rng(seed)
        states = [
            state,
            align(state, axis),
            reflect_about_state(state, axis),
            grover_iterate(state, flags, axis, count),
        ]
        outcome, collapsed = measure(states[-1], lambda key: labels[key[0]], rng)
        flipped, stats = flip(axis, flags, axis, want, rng)
        states += [collapsed, flipped]
        for st in states:
            assert st.vector.dtype == np.dtype(dtype)
            assert all(type(st.amplitude(key)) is complex for key in _KEYS)
        runs.append((states, outcome, stats, rng.random()))
    (real, outcome, stats, after), (cplx, *rest) = runs
    assert rest == [outcome, stats, after]
    for r, c in zip(real, cplx):
        assert np.array_equal(r.live, c.live)
        assert np.max(np.abs(r.vector - c.vector)) <= 1e-12
