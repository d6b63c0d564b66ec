"""The law index (law.py) against the enumerated FamilyIndex.

A run's indices are LawIndexes, read off the family's generating function
without a vertex; the FamilyIndex enumerates every vertex.  On random
functions and on the children left after a tuple, the two must give the
same class sizes, total, token-ordered tuple rows and holder rows, and a
count-class extraction on either must give the same outcome, work record,
residual and next draw.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainwalk import law as law_module
from chainwalk.chain import ChainConfig, ChainStatus, run
from chainwalk.errors import (
    CapacityError,
    ContractViolationError,
    ParameterError,
    SimulationError,
)
from chainwalk.extraction import FamilyIndex, VertexFamily
from chainwalk.law import LawIndex, family_law
from chainwalk.levels import Levels, extract_tuple
from chainwalk.oracle import CollisionTable, FunctionTable, Params, generate_function, restrict
from test_acceptance import CHAIN_INSTANCES
from test_extraction import four_pair

# families small enough to enumerate in a property test
_MAX_TEST_VERTICES = 20_000


@st.composite
def indexed_families(draw):
    """(restriction, R) of a random function with n <= 5 and R <= 6, or of
    the child left after up to two recorded tuples of it."""
    n = draw(st.sampled_from([4, 5, 3]))
    size = 1 << n
    # classes of one to four points, images 0, 1, ... laid on shuffled points
    images = []
    for image, points in enumerate(draw(st.lists(st.integers(1, 4), min_size=size,
                                                 max_size=size))):
        images += [image] * min(points, size - len(images))
    order = draw(st.permutations(range(size)))
    fn = FunctionTable(Params(n=n, m=n), [images[i] for i in order])
    sizes = [r for r in range(6, 1, -1) if math.comb(size, r) <= _MAX_TEST_VERTICES]
    big_r = draw(st.sampled_from(sizes))
    restriction = restrict(fn, CollisionTable())
    for _ in range(draw(st.integers(0, 2))):
        classes = {}
        for point in restriction.domain_points:
            classes.setdefault(fn.value(point), []).append(point)
        shapes = [(image, points) for image, points in sorted(classes.items())
                  if 2 <= len(points) and len(points) < big_r]
        if not shapes:
            break
        image, points = draw(st.sampled_from(shapes))
        cut = draw(st.lists(st.sampled_from(points), min_size=2, max_size=big_r - 1,
                            unique=True))
        try:
            child = restrict(fn, restriction.table.insert(fn, image, cut))
        except CapacityError:
            break
        restriction, big_r = child, big_r - len(cut)
    return restriction, big_r


def _same_index(law: LawIndex, index: FamilyIndex, live: list) -> None:
    assert law.total == index.total
    assert law.sizes == index.sizes
    assert all(type(size) is int for size in law.sizes + index.sizes)
    rows, holders = law.tuple_holders(live)
    ref_rows, ref_holders = index.tuple_holders(live)
    assert rows == ref_rows
    assert holders == ref_holders
    # a listed tuple has a holder of a live count, so it never weighs 0
    assert all(any(h for h, alive in zip(row, live) if alive) for row in holders)


def _live(index, bits=-1) -> list:
    """The counts of `index` that hold vertices and whose bit is set."""
    return [bool(size) and bool((bits >> c) & 1) for c, size in enumerate(index.sizes)]


def _extraction(index, family, seed):
    """extract_tuple on a state uniform over the family's class: what came
    out and the next draw, or the error it raised."""
    rng = np.random.default_rng(seed)
    trace = []
    try:
        out, stats = extract_tuple(Levels.uniform(index, family.lo, family.hi),
                                   family, rng, trace)
    except SimulationError as exc:
        return type(exc).__name__, str(exc)
    residual = None if out.collapsed is None else out.collapsed.counts
    sizes = None if out.collapsed is None else out.collapsed.index.sizes
    new = out.new_family
    left = (new.big_r, new.lo, new.hi, list(new.restriction.table.items()))
    return (out.kind, out.image, out.preimages, left, residual, sizes,
            stats, trace, rng.random().hex())


@settings(deadline=None, max_examples=120)
@given(drawn=indexed_families(), live_bits=st.integers(1, 15), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_law_index_matches_the_enumerated_index(drawn, live_bits, data, seed):
    restriction, big_r = drawn
    law, index = LawIndex(restriction, big_r), FamilyIndex(restriction, big_r)
    _same_index(law, index, _live(index))
    _same_index(law, index, _live(index, live_bits))
    top = len(index.sizes) - 1
    if top < 1:
        return
    lo = data.draw(st.integers(1, top))
    hi = data.draw(st.integers(lo, top))
    if not index.class_size(lo, hi):
        return
    family = VertexFamily(restriction, big_r, lo, hi)
    ours, reference = _extraction(law, family, seed), _extraction(index, family, seed)
    assert ours == reference
    if ours[0] == "tuple" and ours[5] is not None:
        # the children the two kinds build are the same family, each of its
        # parent's kind
        new_family = family.after_tuple(ours[1], ours[2])
        law_child = law.child(new_family.restriction, new_family.big_r)
        child = index.child(new_family.restriction, new_family.big_r)
        assert type(law_child) is type(law) and type(child) is type(index)
        _same_index(law_child, child, _live(child))


def _check_children(fn, index: LawIndex, depth: int) -> int:
    """Cut the first tuple of every shape (|K|, |P|) that `index` holds, and
    compare each child with a fresh LawIndex of the same restriction; then,
    while `depth` lasts, the children's own children.  Returns the children
    compared."""
    found, _ = index.tuple_holders([True] * len(index.sizes))
    first = {}
    for image, preimages in found:
        shape = (sum(fn.value(x) == image for x in index.restriction.domain_points),
                 len(preimages))
        first.setdefault(shape, (image, preimages))
    compared = 0
    for image, preimages in first.values():
        table = index.restriction.table.insert(fn, image, preimages)
        try:
            restriction = restrict(fn, table)
        except CapacityError:
            continue        # restrict refuses half the domain
        big_r = index.big_r - len(preimages)
        if not big_r:
            # only P itself holds the tuple, and the cut leaves no index
            with pytest.raises(ParameterError):
                index.child(restriction, 0)
            continue
        child, fresh = index.child(restriction, big_r), LawIndex(restriction, big_r)
        # the sizes come off the parent's row, and no law is built yet
        assert child._holders is None
        assert (child.total, child.sizes) == (fresh.total, fresh.sizes)
        for bits in (-1, 0b101, 0b10):
            live = _live(fresh, bits)
            assert child.tuple_holders(live) == fresh.tuple_holders(live)
        compared += 1
        if depth:
            compared += _check_children(fn, child, depth - 1)
    return compared


@settings(deadline=None, max_examples=100)
@given(values=st.lists(st.integers(0, 7), min_size=16, max_size=16),
       big_r=st.integers(2, 6))
# the first holder is the pair {0, 1} itself: R - |P| = 0
@example(values=[0, 0] + list(range(1, 8)) * 2, big_r=2)
# pairs and one triple, whose one-, two- and three-point cuts give the shapes
# (2, 2), (3, 2) and (3, 3)
@example(values=[0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7], big_r=4)
def test_child_law_matches_fresh_build(values, big_r):
    """A LawIndex's child after a tuple of each shape, and that child's own
    children, equal a fresh LawIndex of the new restriction in sizes and in
    the tuple holders they build on first read."""
    fn = FunctionTable(Params(n=4, m=4, k=0), values)
    _check_children(fn, LawIndex(restrict(fn, CollisionTable()), big_r), depth=1)


def test_child_refuses_a_family_no_tuple_leaves():
    """child reads a holder row of the parent only for a restriction that
    carves one more class and an R less by a tuple's size: the parent's own
    restriction, a tuple of one point and two carved classes are refused."""
    fn = FunctionTable(Params(n=4, m=4, k=0), [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7])
    restriction = restrict(fn, CollisionTable())
    parent, pair = LawIndex(restriction, 4), CollisionTable().insert(fn, 0, (0, 1))
    for shrunk, big_r in ((restriction, 2), (restrict(fn, pair), 3),
                          (restrict(fn, pair.insert(fn, 1, (3, 4))), 2)):
        with pytest.raises(ContractViolationError, match="is not a family that a tuple"):
            parent.child(shrunk, big_r)


def test_child_checks_the_sizes_it_took_against_its_law():
    """A child takes its sizes off its parent's holder row and runs
    family_law on its first tuple_holders, whose sizes must be the same.
    The same child built again with two of its sizes swapped, which keeps
    their total, is refused there."""
    fn = FunctionTable(Params(n=4, m=4, k=0), [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7])
    restriction = restrict(fn, CollisionTable().insert(fn, 0, (0, 1)))
    child = LawIndex(restrict(fn, CollisionTable()), 6).child(restriction, 4)
    live = [True] * len(child.sizes)
    sizes = list(child.sizes)
    sizes[0], sizes[1] = sizes[1], sizes[0]
    assert sizes != child.sizes
    forged = LawIndex(restriction, 4, sizes)
    with pytest.raises(ContractViolationError, match="family law gives sizes"):
        forged.tuple_holders(live)
    assert child.tuple_holders(live) == LawIndex(restriction, 4).tuple_holders(live)


def test_last_child_builds_no_law(monkeypatch):
    """Over the 20 criterion-7 runs, every LawIndex but the child left by a
    run's last tuple computes its law once: 58 indexes, 38 family_law
    calls."""
    laws, children = [], []
    family, child = law_module.family_law, LawIndex.child
    monkeypatch.setattr(law_module, "family_law",
                        lambda *args: laws.append(args) or family(*args))
    monkeypatch.setattr(LawIndex, "child",
                        lambda self, *args: children.append(child(self, *args)) or children[-1])
    builds = 0
    for m, seed, k in CHAIN_INSTANCES:
        before = len(laws), len(children)
        result = run(ChainConfig(params=Params(n=4, m=m, k=k), ell=3, seed=seed,
                                 max_outer_iterations=64))
        assert result.status is ChainStatus.COMPLETED
        made = len(children) - before[1]
        assert made and children[-1]._holders is None
        assert len(laws) - before[0] == made
        builds += 1 + made
    assert (builds, len(laws)) == (58, 38)


def test_dummy_path_matches_on_both_kinds():
    """test_levels.py's dummy-path case, four_pair (R = 6, family [1, 2]) at
    seeds 0-199, on both kinds: the seeds draw 135 dummies, each repaired."""
    _, restriction = four_pair()
    family = VertexFamily(restriction=restriction, big_r=6, lo=1, hi=2)
    law, index = LawIndex(restriction, 6), FamilyIndex(restriction, 6)
    dummies = 0
    for seed in range(200):
        ours = _extraction(law, family, seed)
        assert ours == _extraction(index, family, seed), seed
        dummies += sum(event["event"] == "dummy" for event in ours[7])
    assert dummies == 135


@pytest.mark.parametrize("n, m, big_r", [(4, 4, 8), (4, 5, 8), (7, 8, 2), (7, 7, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_law_index_on_the_benchmark_shapes(n, m, big_r, seed):
    """The criterion-7 shape (N, R) = (16, 8) and the chain-wide (128, 2)."""
    restriction = restrict(generate_function(Params(n=n, m=m), seed), CollisionTable())
    index = FamilyIndex(restriction, big_r)
    _same_index(LawIndex(restriction, big_r), index, _live(index))


def _pairs_law(pairs, singles, big_r):
    """The R-subsets of `pairs` pairs and `singles` singletons by count z:
    z whole pairs, then one point of each of j other pairs and singletons."""
    return [
        math.comb(pairs, z) * sum(
            math.comb(pairs - z, j) * 2**j * math.comb(singles, big_r - 2 * z - j)
            for j in range(big_r - 2 * z + 1)
        )
        for z in range(big_r // 2 + 1)
    ]


@pytest.mark.parametrize("pairs, singles, big_r", [
    # test_extraction.four_pair's shape
    (4, 8, 6),
    # coefficients up to C(80, 40), wider than eight bytes
    (40, 3, 20),
])
def test_family_law_on_pairs(pairs, singles, big_r):
    """A tuple's holders are the (R - 2)-subsets of the other points by
    their count, one count higher."""
    sizes, holders = family_law({1: singles, 2: pairs}, big_r)
    assert sizes == _pairs_law(pairs, singles, big_r)
    assert sum(sizes) == math.comb(2 * pairs + singles, big_r)
    assert holders == {(2, 2): [0] + _pairs_law(pairs - 1, singles, big_r - 2)}


def test_law_index_keeps_the_family_cap():
    restriction = restrict(generate_function(Params(n=5, m=5), 0), CollisionTable())
    messages = []
    for kind in (LawIndex, FamilyIndex):
        with pytest.raises(CapacityError) as info:
            kind(restriction, 8)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == (
        "family of 10518300 vertices exceeds enumeration cap 250000"
    )
