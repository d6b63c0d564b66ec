"""Tests for the function-table oracle layer."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainwalk.errors import (
    CapacityError,
    DomainError,
    ParameterError,
    ValidationError,
)
from chainwalk.oracle import (
    CollisionTable,
    FunctionTable,
    Params,
    enumerate_multicollisions,
    generate_function,
    restrict,
)


def brute_multicollisions(fn):
    """Independent bucket scan, recomputed from scratch."""
    buckets = {}
    for x in range(fn.params.domain_size):
        buckets.setdefault(fn.value(x), []).append(x)
    return {img: tuple(xs) for img, xs in sorted(buckets.items()) if len(xs) >= 2}


def test_params_validation():
    with pytest.raises(ParameterError):
        Params(n=0, m=4, k=0)
    with pytest.raises(ParameterError):
        Params(n=4, m=0, k=0)
    with pytest.raises(ParameterError):
        Params(n=4, m=4, k=-1)
    with pytest.raises(ParameterError):
        Params(n=4, m=9, k=0)
    with pytest.raises(ParameterError):
        Params(n=4, m=8, k=1)
    p = Params(n=4, m=6, k=2)
    assert p.domain_size == 16
    assert p.codomain_size == 64


def test_generate_function_deterministic_and_in_range():
    params = Params(n=4, m=5, k=0)
    a = generate_function(params, 11)
    b = generate_function(params, 11)
    c = generate_function(params, 12)
    assert list(a.values()) == list(b.values())
    assert list(a.values()) != list(c.values())
    assert all(0 <= v < 32 for v in a.values())


def test_query_counting():
    params = Params(n=3, m=3, k=0)
    fn = generate_function(params, 0)
    assert fn.query_count == 0
    fn.query(0)
    fn.query(5)
    assert fn.query_count == 2
    fn.value(3)
    assert fn.query_count == 2
    fn.charge(8)
    assert fn.query_count == 10
    with pytest.raises(DomainError):
        fn.query(8)
    with pytest.raises(ParameterError):
        fn.charge(-1)


def test_enumerate_matches_brute_force():
    for seed in range(30):
        fn = generate_function(Params(n=4, m=4, k=0), seed)
        expected = brute_multicollisions(fn)
        got = dict(enumerate_multicollisions(fn))
        assert got == expected


def test_enumerate_respects_restriction():
    """A restriction carves whole classes out, so the multicollisions left
    are the base scan's less the recorded images, all in the domain left."""
    fn = FunctionTable(Params(n=3, m=3, k=0), [0, 0, 0, 1, 1, 2, 3, 4])
    restriction = restrict(fn, CollisionTable().insert(fn, 0, (0, 1)))
    got = {image: pre for image, pre in enumerate_multicollisions(restriction.base)
           if image not in restriction.table.images()}
    assert got == {1: (3, 4)}
    assert set(got[1]) <= set(restriction.domain_points)


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(3, 6), seed=st.integers(0, 2**16))
def test_restriction_classes_are_the_ground_truth_less_the_table(data, n, seed):
    """A restriction's classes are enumerate_multicollisions' entries less
    the recorded images, points ascending, and its class sizes, singletons
    included, sum to its domain size."""
    fn = generate_function(Params(n=n, m=data.draw(st.integers(n, 2 * n)), k=0), seed)
    truth = enumerate_multicollisions(fn)
    chosen = data.draw(st.permutations(truth))[:data.draw(st.integers(0, 3))]
    table, carved = CollisionTable(), 0
    for image, points in chosen:
        # keep the closure under half the domain, which restrict refuses
        if carved + len(points) < fn.params.domain_size // 2:
            cut = data.draw(st.lists(st.sampled_from(points), min_size=2, unique=True))
            table, carved = table.insert(fn, image, cut), carved + len(points)
    restriction = restrict(fn, table)
    pairs, sizes = restriction.classes
    assert pairs == [(image, list(points)) for image, points in truth
                     if image not in table.images()]
    assert sum(size * count for size, count in sizes.items()) == restriction.domain_size
    assert Counter(len(points) for _, points in pairs) == Counter(
        {size: count for size, count in sizes.items() if size >= 2})


def test_birthday_mean_matches_closed_form():
    """Mean count of collided images over random tables tracks the
    exact binomial-occupancy expectation."""
    params = Params(n=4, m=4, k=0)
    bins = params.codomain_size
    points = params.domain_size
    q = 1.0 - 1.0 / bins
    expected = bins * (1.0 - q**points - (points / bins) * q ** (points - 1))
    counts = []
    for seed in range(600):
        fn = generate_function(params, seed)
        counts.append(len(enumerate_multicollisions(fn)))
    counts = np.asarray(counts, dtype=float)
    sigma = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - expected) <= 4.0 * sigma


def test_collision_table_insert_and_round_trip():
    """insert returns a new table with the tuple's preimages sorted, and a
    table rebuilt from another's items by insert reads back the same items,
    in insertion order, not image order."""
    fn = FunctionTable(Params(n=3, m=3, k=0), [0, 0, 1, 1, 2, 3, 4, 5])
    table = CollisionTable()
    assert len(table) == 0
    t1 = table.insert(fn, 1, (3, 2))
    assert len(table) == 0, "insert returns a new table"
    assert len(t1) == 1
    assert list(t1.items()) == [(1, (2, 3))]
    t2 = t1.insert(fn, 0, [1, 0])
    assert list(t2.items()) == [(1, (2, 3)), (0, (0, 1))]
    back = CollisionTable()
    for image, preimages in t2.items():
        back = back.insert(fn, image, preimages)
    assert list(back.items()) == list(t2.items())
    assert back.images() == frozenset({0, 1})
    assert back.all_preimages() == frozenset({0, 1, 2, 3})


@pytest.mark.parametrize(
    "entries",
    [
        [(5, (1,))],                        # fewer than 2 points
        [(6, (1, 1, 2))],                   # repeated preimage
        [(5, (1, 2)), (6, (2, 3))],         # point under two images
        [(5, (1, 2)), (5, (3, 4))],         # image recorded twice
        [(5, (1,)), (6, (1, 1, 2))],
    ],
)
def test_collision_table_constructor_rejects_invalid_tuples(entries):
    """A table grown from an empty one by insert refuses each bad row. Points
    1 to 4 all map to 5, so only the image check refuses (5, (3, 4))."""
    fn = FunctionTable(Params(n=3, m=3, k=0), [0, 5, 5, 5, 5, 2, 3, 4])
    table = CollisionTable()
    with pytest.raises(ValidationError):
        for image, preimages in entries:
            table = table.insert(fn, image, preimages)


def test_collision_table_constructor_keeps_order_and_sorts():
    fn = FunctionTable(Params(n=3, m=3, k=0), [5, 5, 6, 6, 5, 0, 1, 2])
    table = CollisionTable()
    for image, preimages in [(6, (3, 2)), (5, [1, 0, 4])]:
        table = table.insert(fn, image, preimages)
    assert list(table.items()) == [(6, (2, 3)), (5, (0, 1, 4))]


def test_insert_rejects_non_collisions():
    fn = FunctionTable(Params(n=3, m=3, k=0), [0, 0, 1, 1, 2, 3, 4, 5])
    table = CollisionTable()
    with pytest.raises(ValidationError):
        table.insert(fn, 0, (0,))
    with pytest.raises(ValidationError):
        table.insert(fn, 0, (0, 2))
    with pytest.raises(ValidationError):
        table.insert(fn, 5, (7, 7))
    grown = table.insert(fn, 0, (0, 1))
    with pytest.raises(ValidationError):
        grown.insert(fn, 0, (0, 1))
    # a point already recorded under another image
    with pytest.raises(ValidationError, match=r"preimages \[1\] already recorded"):
        grown.insert(fn, 1, (1, 2))


def test_restrict_excludes_full_preimage_closure():
    # image 0 has three preimages; excluding the recorded pair must still
    # drop the third one, otherwise later vertices could see a stale point
    fn = FunctionTable(Params(n=3, m=3, k=0), [0, 0, 0, 1, 1, 2, 3, 4])
    table = CollisionTable().insert(fn, 0, (0, 1))
    restriction = restrict(fn, table)
    assert restriction.domain_points == (3, 4, 5, 6, 7)
    assert restriction.domain_size == 5
    assert restriction.codomain_size == 7
    assert restriction.table.images() == {0}
    assert [fn.value(x) for x in restriction.domain_points] == [1, 1, 2, 3, 4]


def test_restrict_capacity_limit():
    fn = FunctionTable(Params(n=3, m=3, k=0), [0] * 8)
    table = CollisionTable().insert(fn, 0, (0, 1))
    with pytest.raises(CapacityError):
        restrict(fn, table)


def test_function_table_copies_the_callers_array():
    values = np.arange(8, dtype=np.int64)
    fn = FunctionTable(Params(n=3, m=3, k=0), values)
    assert values.flags.writeable
    values[0] = 7
    assert not fn.values().flags.writeable
    assert fn.values().tolist() == list(fn.images) == list(range(8))


@pytest.mark.parametrize("values", [
    np.zeros((8, 1), dtype=np.int64), [0.0] * 8, np.zeros(8), [0] * 7, [0] * 7 + [8],
])
def test_function_table_refuses_what_is_not_a_table(values):
    with pytest.raises(ParameterError):
        FunctionTable(Params(n=3, m=3, k=0), values)
