"""Tests for collision extraction: tokens, families, the padded register law.

Reference instance (8 points): values [0, 0, 1, 1, 2, 2, 3, 4], so images
0, 1, 2 each have one preimage pair.  At subset size 4 the 70 vertices split
into 28 with no collision, 39 with one, 3 with two.  All closed-form outcome
probabilities below are derived from that split by direct counting.
"""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chainwalk.errors import (
    CapacityError,
    ContractViolationError,
    FlaggedInstanceError,
    ImpossibleTargetError,
    ParameterError,
    ValidationError,
)
from chainwalk.oracle import (
    CollisionTable,
    FunctionTable,
    Params,
    RestrictedFunction,
    enumerate_multicollisions,
    restrict,
)
from chainwalk.statevector import (
    State,
    attach_register,
    decode_subset,
    key_register,
    measure,
    states_close,
    subset_key,
)
from chainwalk.amplify import Want, flip
from chainwalk.extraction import (
    FamilyIndex,
    VertexFamily,
    check_uniform_class,
    correct_interval,
    dummy_token,
    extract_once,
    hop,
    in_range,
    pad_and_attach,
    tuple_token,
)
from chainwalk.law import LawIndex
from chainwalk.levels import Levels, extract_tuple
from reference import as_state, histogram, parse_token, uniform_state, vertex_data


def eight_point():
    fn = FunctionTable(Params(n=3, m=3, k=1), [0, 0, 1, 1, 2, 2, 3, 4])
    return fn, restrict(fn, CollisionTable())


def four_pair():
    # 16 points, four preimage pairs, eight singleton images
    values = [0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    fn = FunctionTable(Params(n=4, m=4, k=0), values)
    return fn, restrict(fn, CollisionTable())


def test_token_round_trip():
    tok = tuple_token(5, (9, 2, 4))
    assert parse_token(tok) == ("tuple", 5, (2, 4, 9))
    assert parse_token(dummy_token(3)) == ("dummy", 3)
    assert parse_token(dummy_token(65535)) == ("dummy", 65535)


def test_token_validation():
    with pytest.raises(ParameterError):
        tuple_token(5, (9,))
    with pytest.raises(ParameterError):
        tuple_token(5, range(300))
    for image, preimages in ((1 << 32, (2, 3)), (1, (2, 1 << 32)), (-1, (2, 3))):
        with pytest.raises(ParameterError):
            tuple_token(image, preimages)
    with pytest.raises(ParameterError):
        dummy_token(0)
    with pytest.raises(ParameterError):
        dummy_token(1 << 16)
    for junk in (b"", b"x", b"d\x00", tuple_token(1, (2, 3))[:-1]):
        with pytest.raises(ValidationError):
            parse_token(junk)


_EIGHT = FunctionTable(Params(n=3, m=3, k=1), [0, 0, 1, 1, 2, 2, 3, 4])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: CollisionTable().insert(_EIGHT, 0.0, [1.7, 0.2]), id="insert-floats"),
    pytest.param(lambda: CollisionTable().insert(_EIGHT, False, [True, 0]), id="insert-bools"),
    pytest.param(lambda: CollisionTable().insert(_EIGHT, 0, [1.0, 0]), id="insert-preimage-float"),
    pytest.param(lambda: subset_key([1.9, 2]), id="subset_key-float"),
    pytest.param(lambda: subset_key([True, 2]), id="subset_key-bool"),
    pytest.param(lambda: tuple_token(1.5, (2.7, 3)), id="tuple_token-floats"),
    pytest.param(lambda: tuple_token(1, (2, "3")), id="tuple_token-str"),
    pytest.param(lambda: dummy_token(1.5), id="dummy_token-float"),
    pytest.param(lambda: dummy_token(True), id="dummy_token-bool"),
    pytest.param(lambda: FunctionTable(Params(1, 1, 0), [True, False]), id="FunctionTable-bools"),
    pytest.param(lambda: FunctionTable(Params(1, 1, 0), np.array([True, False])),
                 id="FunctionTable-bool-array"),
])
def test_acceptance_api_refuses_non_integers(call):
    """Each call truncated a float, took a bool as an int, or raised a bare
    struct.error; each now raises ParameterError."""
    with pytest.raises(ParameterError):
        call()


def test_acceptance_api_takes_numpy_integers():
    """numpy integers pass the same checks, and give what Python ints give."""
    i = np.int64
    assert (CollisionTable().insert(_EIGHT, i(0), [i(1), i(0)]).items()
            == CollisionTable().insert(_EIGHT, 0, [1, 0]).items())
    assert subset_key(np.array([3, 1])) == subset_key([1, 3])
    assert tuple_token(i(1), np.array([3, 2])) == tuple_token(1, (2, 3))
    assert dummy_token(np.uint16(2)) == dummy_token(2)
    assert FunctionTable(Params(1, 1, 0), [i(1), i(0)]).images == (1, 0)


def test_vertex_family_validation():
    _, restriction = eight_point()
    fam = VertexFamily(restriction=restriction, big_r=4, lo=1, hi=2)
    inside = in_range(fam.lo, fam.hi)
    assert inside(1) and inside(2)
    assert not inside(0) and not inside(3)
    assert fam.interval_label() == "[1,2]"
    open_fam = VertexFamily(restriction=restriction, big_r=4, lo=0, hi=None)
    assert in_range(open_fam.lo, open_fam.hi)(99)
    assert open_fam.interval_label() == "[0,inf]"
    # an emptied-out vertex is legitimate after a full-size extraction
    VertexFamily(restriction=restriction, big_r=0, lo=0, hi=0)
    with pytest.raises(ParameterError):
        VertexFamily(restriction=restriction, big_r=-1, lo=0, hi=None)
    with pytest.raises(ParameterError):
        VertexFamily(restriction=restriction, big_r=4, lo=-1, hi=None)
    with pytest.raises(ParameterError):
        VertexFamily(restriction=restriction, big_r=4, lo=2, hi=1)


def test_family_index_matches_brute_force():
    fn, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    hist = {}
    for combo in itertools.combinations(range(8), 4):
        images = {}
        for x in combo:
            images.setdefault(fn.value(x), []).append(x)
        z = sum(1 for pre in images.values() if len(pre) >= 2)
        hist[z] = hist.get(z, 0) + 1
    assert histogram(index) == hist == {0: 28, 1: 39, 2: 3}
    assert index.total == 70
    assert len(index.sizes) == 3
    assert index.tuples[subset_key((0, 1, 2, 3))] == ((0, (0, 1)), (1, (2, 3)))
    assert index.class_size(1, 2) == 42
    assert index.class_size(1, None) == 42
    assert index.class_size(3, None) == 0
    assert len(index.class_state(0, 0).keys()) == 28
    assert subset_key((0, 1, 2)) not in index.tuples


def test_family_index_states_and_caps():
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    axis = index.axis
    assert len(axis) == 70
    amp = 1.0 / math.sqrt(70)
    assert all(abs(a - amp) < 1e-12 for _, a in axis.items())
    cls = index.class_state(2, 2)
    assert len(cls) == 3
    with pytest.raises(ImpossibleTargetError):
        index.class_state(5, None)
    # C(32, 8) = 10,518,300 vertices, refused before any table is built
    wide = FunctionTable(Params(n=5, m=5, k=0), list(range(32)))
    with pytest.raises(CapacityError):
        FamilyIndex(restrict(wide, CollisionTable()), 8)
    with pytest.raises(ParameterError):
        FamilyIndex(restriction, 9)


def test_pad_and_attach_amplitudes():
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    padded = pad_and_attach(index.class_state(1, 2), restriction, 2, index)
    amp = 1.0 / math.sqrt(42 * 2)
    for key, value in padded.items():
        assert abs(value - amp) < 1e-12
    # every vertex contributes exactly y branches
    assert len(padded) == 42 * 2
    with pytest.raises(ParameterError):
        pad_and_attach(index.class_state(1, 2), restriction, 0, index)
    with pytest.raises(ContractViolationError):
        pad_and_attach(index.class_state(2, 2), restriction, 1, index)


def test_outcome_probabilities_match_counting():
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    padded = pad_and_attach(index.class_state(1, 2), restriction, 2, index)
    # tuple branches total: (39*1 + 3*2) / (2*42) = 15/28
    tuple_p = padded.probability(lambda key: key_register(key)[:1] == b"t")
    assert abs(tuple_p - 15.0 / 28.0) < 1e-9
    # the only dummy is d_2, carried by the 39 single-collision vertices
    d2 = padded.probability(lambda key: key_register(key) == dummy_token(2))
    assert abs(d2 - 13.0 / 28.0) < 1e-9
    assert padded.probability(lambda key: key_register(key) == dummy_token(1)) == 0.0
    # one named tuple outcome: 15 vertices contain the pair {0, 1}
    tok = tuple_token(0, (0, 1))
    named = [key for key in padded.support() if key_register(key) == tok]
    assert len(named) == 15
    for key in named:
        assert {0, 1}.issubset(decode_subset(key))
    assert abs(padded.probability(lambda key: key_register(key) == tok) - 5.0 / 28.0) < 1e-9


def test_extract_once_both_branches():
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    fam = VertexFamily(restriction=restriction, big_r=4, lo=1, hi=2)
    state = index.class_state(1, 2)
    seen = set()
    for seed in range(12):
        out = extract_once(state, fam, np.random.default_rng(seed), index=index)
        seen.add(out.kind)
        if out.kind == "tuple":
            assert len(out.preimages) == 2
            assert out.new_family.big_r == 2
            assert (out.new_family.lo, out.new_family.hi) == (0, 1)
            # residual is uniform over every remaining pair, i.e. the full
            # class [0, 1] of the shrunken instance
            fresh = FamilyIndex(out.new_family.restriction, 2)
            assert sorted(out.collapsed.support()) == sorted(fresh.class_state(0, 1).keys())
            assert len(out.collapsed) == 15
            amp = 1.0 / math.sqrt(15)
            assert all(abs(abs(a) - amp) < 1e-9 for _, a in out.collapsed.items())
        else:
            assert (out.new_family.lo, out.new_family.hi) == (1, 1)
            assert states_close(out.collapsed, index.class_state(1, 1))
    assert seen == {"tuple", "dummy"}


def test_extract_once_frequencies():
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    fam = VertexFamily(restriction=restriction, big_r=4, lo=1, hi=2)
    state = index.class_state(1, 2)
    rng = np.random.default_rng(100)
    draws = 2000
    tuples = sum(
        1 for _ in range(draws) if extract_once(state, fam, rng, index=index).kind == "tuple"
    )
    p = 15.0 / 28.0
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(tuples / draws - p) < 4.0 * sigma


def test_extract_once_validation():
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    state = index.class_state(1, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        extract_once(state, VertexFamily(restriction=restriction, big_r=4, lo=1, hi=None), rng,
                     index)
    with pytest.raises(ParameterError):
        extract_once(state, VertexFamily(restriction=restriction, big_r=4, lo=0, hi=0), rng,
                     index)
    # support must be the entire declared class
    with pytest.raises(ValidationError):
        extract_once(
            index.class_state(2, 2),
            VertexFamily(restriction=restriction, big_r=4, lo=1, hi=2),
            rng,
            index=index,
        )
    # and uniform over it
    keys = index.class_state(1, 2).keys()
    lopsided = State({k: (2.0 if i == 0 else 1.0) for i, k in enumerate(keys)}, normalize=True)
    with pytest.raises(ValidationError):
        extract_once(lopsided, VertexFamily(restriction=restriction, big_r=4, lo=1, hi=2), rng,
                     index)


def test_two_vertex_padding_contrast():
    """A two-vertex superposition shows why the register needs padding."""
    _, restriction = eight_point()
    v1 = (0, 1, 2, 3, 4, 5)   # three collision pairs
    v2 = (0, 1, 2, 3, 6, 7)   # two collision pairs
    st = State({subset_key(v1): 1.0, subset_key(v2): 1.0}, normalize=True)
    padded = pad_and_attach(st, restriction, 3)
    tok = tuple_token(0, (0, 1))
    assert abs(padded.probability(lambda k: key_register(k) == tok) - 1.0 / 3.0) < 1e-12
    assert abs(padded.probability(lambda k: key_register(k) == dummy_token(3)) - 1.0 / 6.0) < 1e-12
    # conditioned on the shared tuple the two vertices stay balanced
    a1 = padded.amplitude(attach_register(subset_key(v1), tok))
    a2 = padded.amplitude(attach_register(subset_key(v2), tok))
    assert abs(a1 - a2) < 1e-12
    # without padding each vertex splits over its own tuple count and the
    # conditional amplitudes skew by sqrt(3/2)
    raw1 = (1.0 / math.sqrt(2)) / math.sqrt(3)
    raw2 = (1.0 / math.sqrt(2)) / math.sqrt(2)
    assert abs(raw2 / raw1 - math.sqrt(1.5)) < 1e-12


def test_two_vertex_measured_branches():
    """Measuring the two-vertex padded register: a tuple both vertices hold
    leaves them balanced, and the dummy d_3 only the vertex of two tuples."""
    _, restriction = eight_point()
    v1 = (0, 1, 2, 3, 4, 5)
    v2 = (0, 1, 2, 3, 6, 7)
    st = State({subset_key(v1): 1.0, subset_key(v2): 1.0}, normalize=True)
    padded = pad_and_attach(st, restriction, 3)
    kinds = set()
    for seed in range(30):
        token, collapsed = measure(padded, key_register, np.random.default_rng(seed))
        kind = parse_token(token)[0]
        kinds.add(kind)
        if kind == "tuple":
            assert len(collapsed) in (1, 2)
            if len(collapsed) == 2:
                amps = [abs(a) for _, a in collapsed.items()]
                assert all(abs(a - 1.0 / math.sqrt(2)) < 1e-9 for a in amps)
        else:
            assert token == dummy_token(3)
            assert collapsed.support() == (attach_register(subset_key(v2), token),)
    assert kinds == {"tuple", "dummy"}


@settings(deadline=None, max_examples=40)
@given(
    values=st.lists(st.integers(0, 7), min_size=16, max_size=16),
    big_r=st.sampled_from([3, 4]),
    picks=st.lists(st.booleans(), min_size=8, max_size=8),
    split=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_hop_lands_uniform_on_measured_cell(values, big_r, picks, split, seed):
    fn = FunctionTable(Params(n=4, m=4, k=0), values)
    index = FamilyIndex(restrict(fn, CollisionTable()), big_r)
    present = sorted(histogram(index))
    cls = frozenset(c for c, pick in zip(present, picks) if pick)
    assume(0 < len(cls) < len(present))
    keys = index.axis.support()
    count = lambda key: len(index.tuples[key])
    start = uniform_state([key for key in keys if count(key) in cls])
    cell = lambda c: c >= split
    state, new_cls, _ = hop(start, index, cls, cell, np.random.default_rng(seed))
    assert set(state.support()) == {key for key in keys if count(key) in new_cls}
    target = 1.0 / math.sqrt(len(state))
    assert all(abs(abs(amp) - target) < 1e-9 for _, amp in state.items())
    measured = cell(count(state.support()[0]))
    rest = frozenset(range(len(index.sizes))) - cls
    assert new_cls == {c for c in rest if cell(c) == measured}


@settings(deadline=None, max_examples=200)
@given(
    values=st.lists(st.integers(0, 7), min_size=16, max_size=16),
    big_r=st.sampled_from([2, 3, 4]),
    carve=st.integers(0, 15),
    lo=st.integers(0, 2),
    width=st.one_of(st.none(), st.integers(0, 2)),
)
def test_family_index_matches_vertex_data(values, big_r, carve, lo, width):
    fn = FunctionTable(Params(n=4, m=4, k=0), values)
    table = CollisionTable()
    carvable = [c for c in enumerate_multicollisions(fn) if len(c[1]) < 8]
    if carvable:
        image, pres = carvable[carve % len(carvable)]
        table = table.insert(fn, image, pres)
    restriction = restrict(fn, table)
    index = FamilyIndex(restriction, big_r)
    combos = list(itertools.combinations(restriction.domain_points, big_r))
    keys = [subset_key(combo) for combo in combos]
    hist, count = {}, {}
    for key, combo in zip(keys, combos):
        data = vertex_data(restriction, combo)
        assert index.tuples[key] == data.multicollisions
        hist[data.count] = hist.get(data.count, 0) + 1
        count[key] = data.count
    assert histogram(index) == hist
    assert index.total == len(keys)
    # the vertices are held in key order, which is their lexicographic order
    assert list(index.tuples) == sorted(keys) == keys
    assert index.axis.support() == tuple(keys)
    hi = None if width is None else lo + width
    members = list(filter(index.by_count(in_range(lo, hi)), index.tuples))
    assert members == [key for key in keys if in_range(lo, hi)(count[key])]


def _class_one_two():
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    return VertexFamily(restriction=restriction, big_r=4, lo=1, hi=2), index


def test_check_uniform_class_accepts_the_class():
    family, index = _class_one_two()
    check_uniform_class(index.class_state(1, 2), family, index)
    # the same class, as a state built apart from the index
    check_uniform_class(uniform_state(index.class_state(1, 2).keys()), family, index)


@pytest.mark.parametrize("case", [
    "vertex_dropped", "other_class_added", "not_a_vertex", "not_uniform",
])
def test_check_uniform_class_rejects(case):
    family, index = _class_one_two()
    keys = index.class_state(1, 2).keys()
    amps = {key: 1.0 for key in keys}
    if case == "vertex_dropped":
        del amps[keys[0]]
    elif case == "other_class_added":
        amps[index.class_state(0, 0).keys()[0]] = 1.0
    elif case == "not_a_vertex":
        del amps[keys[0]]
        amps[subset_key((0, 1, 2))] = 1.0
    else:
        amps[keys[0]] = 2.0
    with pytest.raises(ValidationError):
        check_uniform_class(State(amps, normalize=True), family, index)


@pytest.mark.parametrize("lo, hi, outsider", [(1, 2, 0), (0, 1, 2)])
def test_check_uniform_class_rejects_a_swapped_vertex(lo, hi, outsider):
    """A support as large as the class, one member swapped for a vertex of a
    count below lo or above hi, is refused."""
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    family = VertexFamily(restriction=restriction, big_r=4, lo=lo, hi=hi)
    keys = index.class_state(lo, hi).keys()
    check_uniform_class(State({key: 1.0 for key in keys}, normalize=True), family, index)
    swapped = keys[1:] + index.class_state(outsider, outsider).keys()[:1]
    with pytest.raises(ValidationError, match="does not match family"):
        check_uniform_class(
            State({key: 1.0 for key in swapped}, normalize=True), family, index
        )


def test_correct_interval_identity_and_recovery():
    _, restriction = four_pair()
    index = FamilyIndex(restriction, 6)
    assert histogram(index) == {0: 4396, 1: 3224, 2: 384, 3: 4}
    fam = VertexFamily(restriction=restriction, big_r=6, lo=1, hi=2)
    same, stats = correct_interval(
        index.class_state(1, 2), fam, 2, index, np.random.default_rng(0)
    )
    assert states_close(same, index.class_state(1, 2))
    assert stats.iterations_used == 0
    narrowed = VertexFamily(restriction=restriction, big_r=6, lo=1, hi=1)
    fixed, stats = correct_interval(
        index.class_state(1, 1), narrowed, 2, index, np.random.default_rng(5)
    )
    assert states_close(fixed, index.class_state(1, 2))


def test_correct_interval_premise_failures():
    _, restriction8 = eight_point()
    index8 = FamilyIndex(restriction8, 4)
    axis = index8.axis
    rng = np.random.default_rng(0)
    # nobody sits above count 2 on the 8-point instance
    with pytest.raises(FlaggedInstanceError):
        correct_interval(
            index8.class_state(1, 1),
            VertexFamily(restriction=restriction8, big_r=4, lo=1, hi=1),
            2, index8, rng,
        )
    # lo = 0 leaves no class below to flip through
    with pytest.raises(FlaggedInstanceError):
        correct_interval(
            index8.class_state(0, 1),
            VertexFamily(restriction=restriction8, big_r=4, lo=0, hi=1),
            2, index8, rng,
        )
    # an empty target class is impossible, not merely flagged
    with pytest.raises(ImpossibleTargetError):
        correct_interval(
            axis, VertexFamily(restriction=restriction8, big_r=4, lo=5, hi=5),
            6, index8, rng,
        )
    with pytest.raises(ParameterError):
        correct_interval(
            axis, VertexFamily(restriction=restriction8, big_r=4, lo=1, hi=None),
            2, index8, rng,
        )


def test_extract_tuple_with_trace():
    _, restriction = four_pair()
    index = FamilyIndex(restriction, 6)
    fam = VertexFamily(restriction=restriction, big_r=6, lo=1, hi=2)
    trace = []
    out, stats = extract_tuple(
        Levels.uniform(index, 1, 2), fam, np.random.default_rng(3), trace=trace,
    )
    image, preimages, residual, new_fam = out.image, out.preimages, out.collapsed, out.new_family
    assert image in (0, 1, 2, 3)
    assert len(preimages) == 2
    assert (new_fam.lo, new_fam.hi, new_fam.big_r) == (0, 1, 4)
    assert trace[-1]["event"] == "tuple"
    assert trace[-1]["interval_after"] == [0, 1]
    for event in trace[:-1]:
        assert event["event"] == "dummy"
        assert event["interval_before"] == [1, 2]
        assert event["interval_after"] == [1, 1]
        assert event["iterations"] >= 1
    assert stats.attempts >= len(trace)
    # residual support avoids the measured preimages everywhere
    for key in as_state(residual).support():
        assert not set(preimages) & set(decode_subset(key))


@pytest.mark.parametrize(
    "seed, repairs, flip_stats, found, after",
    [
        (2, [2], (2, 0, 4), (2, (4, 5)), "0x1.80d24727f15fcp-3"),
        (3, [2, 2, 2], (6, 0, 10), (3, (6, 7)), "0x1.2305a13f2511ap-2"),
        (8, [3, 2, 2, 2, 2, 2, 2], (15, 1, 23), (0, (0, 1)), "0x1.701f478f66d64p-1"),
        (11, [2], (2, 0, 4), (3, (6, 7)), "0x1.20715378c3988p-4"),
    ],
)
def test_extract_tuple_dummy_path_pinned(seed, repairs, flip_stats, found, after):
    """Seeds whose padded measurements draw dummies before the tuple on
    four_pair (R = 6, family [1, 2]): the whole trace, the work record, the
    outcome and the generator's next draw are pinned."""
    _, restriction = four_pair()
    index = FamilyIndex(restriction, 6)
    fam = VertexFamily(restriction=restriction, big_r=6, lo=1, hi=2)
    rng = np.random.default_rng(seed)
    trace = []
    out, stats = extract_tuple(Levels.uniform(index, 1, 2), fam, rng, trace=trace)
    image, preimages = found
    assert trace == [
        {"event": "dummy", "image": None, "preimages": None,
         "interval_before": [1, 2], "interval_after": [1, 1], "iterations": iterations}
        for iterations in repairs
    ] + [
        {"event": "tuple", "image": image, "preimages": list(preimages),
         "interval_before": [1, 2], "interval_after": [0, 1], "iterations": 0}
    ]
    assert (stats.iterations_used, stats.restarts, stats.attempts) == flip_stats
    assert (out.kind, out.image, out.preimages) == ("tuple", image, preimages)
    assert (out.new_family.lo, out.new_family.hi, out.new_family.big_r) == (0, 1, 4)
    assert (out.collapsed.support(), out.collapsed.index.total) == (998, 1001)
    assert rng.random().hex() == after


def test_extract_tuple_validation():
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        extract_tuple(
            Levels.uniform(index, 0, 2),
            VertexFamily(restriction=restriction, big_r=4, lo=0, hi=2),
            rng,
            [],
        )
    with pytest.raises(ParameterError):
        extract_tuple(
            Levels.uniform(index, 1, None),
            VertexFamily(restriction=restriction, big_r=4, lo=1, hi=None),
            rng,
            [],
        )


@settings(deadline=None, max_examples=100)
@given(
    values=st.lists(st.integers(0, 7), min_size=16, max_size=16),
    big_r=st.sampled_from([2, 3, 4]),
    first=st.lists(st.integers(0, 10**6), max_size=40),
    second=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
)
def test_tuple_rows_match_vertex_data(values, big_r, first, second):
    """The tuples of each vertex of a request, repeats included, read as
    vertex_data reads them; so do those of a second request.  The padded
    register is the same over the index's class state, over a state of the
    same keys built apart, and through an index pad_and_attach builds."""
    fn = FunctionTable(Params(n=4, m=4, k=0), values)
    restriction = restrict(fn, CollisionTable())
    index = FamilyIndex(restriction, big_r)
    combos = list(itertools.combinations(restriction.domain_points, big_r))
    for request in (first, second):
        combos_asked = [combos[o % index.total] for o in request]
        assert [index.tuples[subset_key(combo)] for combo in combos_asked] == [
            vertex_data(restriction, combo).multicollisions for combo in combos_asked
        ]
    lo = max(1, min(histogram(index)))
    hi = len(index.sizes) - 1
    assume(index.class_size(lo, hi) > 0)
    over_index = pad_and_attach(index.class_state(lo, hi), restriction, hi, index)
    over_keys = pad_and_attach(
        uniform_state(index.class_state(lo, hi).keys()), restriction, hi, index
    )
    reference = pad_and_attach(index.class_state(lo, hi), restriction, hi)
    assert over_index.items() == over_keys.items() == reference.items()


def _reference_residual(collapsed, preimages):
    """The collapsed padded state with the register dropped and the measured
    preimages deleted from every vertex, as (key, amplitude) in key order."""
    removed = set(preimages)
    return [
        (subset_key(p for p in decode_subset(key) if p not in removed), amp)
        for key, amp in collapsed.items()
    ]


@settings(deadline=None, max_examples=150)
@given(
    values=st.lists(st.integers(0, 7), min_size=16, max_size=16),
    big_r=st.sampled_from([3, 4]),
    lo=st.integers(0, 2),
    width=st.integers(0, 2),
    over_index=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(values=[0] * 16, big_r=3, lo=0, width=1, over_index=False, seed=0)
# image 0 has three preimages: tuples (0, (0, 2)) and (0, (0, 1, 2)) share
# an image and order by size before preimages
@example(
    values=[0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7],
    big_r=4, lo=1, width=1, over_index=True, seed=0,
)
def test_extract_once_matches_padded_register_reference(
    values, big_r, lo, width, over_index, seed
):
    """extract_once against measuring pad_and_attach's byte-key register
    through key_register and stripping the register off the collapsed keys.
    The class state is the index's own or one built apart from its keys,
    which pad_and_attach then reads through an index it builds."""
    fn = FunctionTable(Params(n=4, m=4, k=0), values)
    restriction = restrict(fn, CollisionTable())
    index = FamilyIndex(restriction, big_r)
    hi = lo + width
    assume(hi >= 1 and index.class_size(lo, hi) > 0)
    family = VertexFamily(restriction=restriction, big_r=big_r, lo=lo, hi=hi)
    if over_index:
        state, given_index = index.class_state(lo, hi), index
    else:
        state, given_index = uniform_state(index.class_state(lo, hi).keys()), None
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        out = extract_once(state, family, rng, index=index)
    except CapacityError:
        out = None      # the measured tuple's closure covers half the domain
    padded = pad_and_attach(state, restriction, hi, given_index)
    token, collapsed = measure(padded, key_register, ref_rng)
    parsed = parse_token(token)
    if out is None:
        assert parsed[0] == "tuple"
        with pytest.raises(CapacityError):
            restrict(fn, CollisionTable().insert(fn, parsed[1], parsed[2]))
    elif parsed[0] == "tuple":
        assert (out.kind, out.image, out.preimages) == parsed
        assert out.collapsed.items() == _reference_residual(collapsed, parsed[2])
    else:
        assert (out.kind, out.new_family.hi + 1) == parsed
        assert out.collapsed.items() == _reference_residual(collapsed, ())
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("m", [41, 42])
def test_wide_images_read_like_vertex_data(m):
    """Over the 35,990 58-subsets of 61 points in one class of the top image
    of m bits, at m = 42 past the 41 bits an int64 packing of (image, point)
    holds: every vertex holds one 58-point tuple, the tuples in token order
    are the subsets themselves in order, and sampled vertices read as
    vertex_data reads them."""
    top = (1 << m) - 1
    fn = FunctionTable(Params(n=21, m=m, k=0), np.full(1 << 21, top, dtype=np.int64))
    restriction = RestrictedFunction(
        base=fn, table=CollisionTable(), domain_points=tuple(range(61)),
    )
    index = FamilyIndex(restriction, 58)
    assert index.total == 35_990 and histogram(index) == {1: 35_990}
    combos = list(itertools.combinations(range(61), 58))
    # each vertex holds its one tuple, and the lexicographic vertex order is
    # the token order of their tuples
    found, holders = index.tuple_holders([False, True])
    assert found == [(top, combo) for combo in combos]
    assert holders == [[0, 1]] * index.total
    for ordinal in (0, 17_995, 35_989):
        data = vertex_data(restriction, combos[ordinal])
        assert index.tuples[subset_key(combos[ordinal])] == data.multicollisions
    # a register token holds 32-bit images only
    with pytest.raises(ParameterError):
        pad_and_attach(index.class_state(1, 1), restriction, 1, index)


@settings(deadline=None, max_examples=150)
@given(
    values=st.lists(st.integers(0, 7), min_size=16, max_size=16),
    big_r=st.integers(2, 6),
    pick=st.integers(0, 10**6),
)
# the first holder is the pair {0, 1} itself: R - |P| = 0
@example(values=[0, 0] + list(range(1, 8)) * 2, big_r=2, pick=0)
# a three-point tuple cut from a four-point vertex
@example(values=[0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7], big_r=4, pick=0)
def test_derived_index_matches_fresh_build(values, big_r, pick):
    """After recording a tuple held by some vertex, each holder of the tuple
    less its preimages is a vertex of the parent's child of one count fewer,
    and the child's class sizes are those of the new restriction's law."""
    fn = FunctionTable(Params(n=4, m=4, k=0), values)
    restriction = restrict(fn, CollisionTable())
    parent = FamilyIndex(restriction, big_r)
    holders = [key for key, count in parent.counts.items() if count]
    assume(len(holders) > 0)
    tuples = vertex_data(restriction, decode_subset(holders[pick % len(holders)])).multicollisions
    image, preimages = tuples[pick % len(tuples)]
    size = len(preimages)
    preimage_class = {x for x, value in enumerate(values) if value == image}
    assume(len(preimage_class) < 8)     # restrict refuses half the domain
    new_restriction = restrict(fn, restriction.table.insert(fn, image, preimages))
    combos = list(itertools.combinations(restriction.domain_points, big_r))
    held = [o for o, c in enumerate(combos) if preimage_class & set(c) == set(preimages)]
    if size == big_r:
        # only P itself holds the tuple, and the cut leaves no index to build
        assert [combos[o] for o in held] == [preimages]
        with pytest.raises(ParameterError):
            parent.child(new_restriction, 0)
        return
    child = parent.child(new_restriction, big_r - size)
    assert type(child) is FamilyIndex
    assert child.sizes == LawIndex(new_restriction, big_r - size).sizes
    # each holder less the tuple is a child vertex of one count fewer
    for o in held:
        cut = subset_key(set(combos[o]) - set(preimages))
        assert child.counts[cut] == parent.counts[subset_key(combos[o])] - 1


def _restricted(values, dropped):
    """The function of `values`, its `dropped` points sent to image 255 and
    that class recorded, restricted: its domain is every other point."""
    values = [255 if x in dropped else v for x, v in enumerate(values)]
    fn = FunctionTable(Params(n=7, m=8, k=0), values)
    table = CollisionTable()
    if dropped:
        table = table.insert(fn, 255, dropped[:2])
    return fn, restrict(fn, table)


def test_multiword_extraction_draws_a_dummy():
    """extract_once over [1, 2] on a domain of 70 points, where every vertex
    holds one tuple and the dummy d_2, draws dummies as well as tuples, each
    as measuring the byte-key register draws it; a tuple's family has a
    child index with the class sizes of its law.  No benchmarked run draws
    a dummy."""
    values = list(range(128))
    for low, high in ((3, 65), (10, 64), (63, 69)):
        values[high] = values[low]
    _, restriction = _restricted(values, list(range(70, 128)))
    assert restriction.domain_points == tuple(range(70))
    index = FamilyIndex(restriction, 3)
    assert index.total == 54_740 and len(index.sizes) == 2
    family = VertexFamily(restriction=restriction, big_r=3, lo=1, hi=2)
    state = index.class_state(1, 2)
    padded = pad_and_attach(state, restriction, 2, index)
    kinds = set()
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = extract_once(state, family, rng, index=index)
        token, collapsed = measure(padded, key_register, ref_rng)
        parsed = parse_token(token)
        kinds.add(out.kind)
        if out.kind == "dummy":
            assert parsed == ("dummy", 2) and out.new_family.hi == 1
            assert out.collapsed.items() == _reference_residual(collapsed, ())
        else:
            assert (out.kind, out.image, out.preimages) == parsed
            assert out.collapsed.items() == _reference_residual(collapsed, parsed[2])
            law = LawIndex(out.new_family.restriction, 1)
            child = index.child(out.new_family.restriction, out.new_family.big_r)
            assert child.sizes == law.sizes
        assert rng.random() == ref_rng.random()
    assert kinds == {"dummy", "tuple"}


def test_index_reads_images_and_points_past_64_bits():
    # n + m = 66 bits, which an (image, point) pair packed into one int64
    # could not hold
    fn = FunctionTable(Params(n=22, m=44, k=0), np.zeros(1 << 22, dtype=np.int64))
    restriction = RestrictedFunction(
        base=fn, table=CollisionTable(), domain_points=(0, 1, 2),
    )
    index = FamilyIndex(restriction, 2)
    for combo in itertools.combinations((0, 1, 2), 2):
        data = vertex_data(restriction, combo)
        assert index.tuples[subset_key(combo)] == data.multicollisions
        assert data.count == 1


def test_extract_once_empties_a_full_tuple_vertex():
    """A vertex that is one whole tuple leaves the empty subset (R' = 0):
    the class [1, 1] of pairs is the four preimage pairs."""
    _, restriction = four_pair()
    index = FamilyIndex(restriction, 2)
    family = VertexFamily(restriction=restriction, big_r=2, lo=1, hi=1)
    out = extract_once(index.class_state(1, 1), family, np.random.default_rng(0), index)
    assert (out.kind, out.image, out.preimages) == ("tuple", 2, (4, 5))
    assert out.new_family.big_r == 0
    assert out.collapsed.items() == [(subset_key(()), 1.0 + 0j)]


def test_index_holds_each_vertex_once():
    """An index and its child for a tuple outcome's family each hold every
    vertex once, under its key with its count, and their class sizes, a list of
    exact ints, count those vertices by count."""
    _, restriction = eight_point()
    index = FamilyIndex(restriction, 4)
    family = VertexFamily(restriction=restriction, big_r=4, lo=1, hi=2)
    child = next(
        index.child(out.new_family.restriction, out.new_family.big_r)
        for out in (extract_once(index.class_state(1, 2), family,
                                 np.random.default_rng(seed), index=index)
                    for seed in range(12))
        if out.kind == "tuple"
    )
    # the child's domain lacks the two points of the class it cut out
    for built, points in ((index, 8), (child, 6)):
        assert len(built.counts) == built.total == math.comb(points, built.big_r)
        assert list(built.counts) == sorted(
            subset_key(vertex) for vertex in
            itertools.combinations(built.restriction.domain_points, built.big_r)
        )
        assert len(built.sizes) == max(built.counts.values()) + 1
        assert all(type(size) is int for size in built.sizes)
        assert built.sizes == [list(built.counts.values()).count(c)
                               for c in range(len(built.sizes))]


@pytest.mark.parametrize("read_keys", [False, True])
def test_index_is_freed_without_the_cycle_collector(read_keys):
    """Neither an index nor its child sits in a reference cycle, with a
    by_count callback over its keys made and read or not, so deleting them
    frees them at once."""
    fn, restriction = four_pair()
    gc.disable()
    try:
        parent = FamilyIndex(restriction, 6)
        shrunk = restrict(fn, CollisionTable().insert(fn, 0, (0, 1)))
        child = parent.child(shrunk, 4)
        for index in (parent, child):
            index.class_state(1, 2)
            if read_keys:
                count = index.by_count(lambda c: c)
                count(next(iter(index.tuples)))
        refs = [weakref.ref(parent), weakref.ref(child)]
        del parent, child, index
        if read_keys:
            del count
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
