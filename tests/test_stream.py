"""The run path's draws against numpy's default_rng, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainwalk._stream import Stream, integers

SEEDS = st.integers(0, 2**128 - 1)


def _entropy(seed, listed):
    return [seed, 1] if listed else seed


def _numpy_table(entropy, m, size):
    return np.random.default_rng(entropy).integers(
        0, 2**m, size=size, dtype=np.int64
    ).tolist()


@settings(deadline=None, max_examples=300)
@given(seed=SEEDS, listed=st.booleans(), m=st.integers(1, 63), half=st.integers(0, 40))
@example(seed=0, listed=False, m=32, half=3)
@example(seed=0, listed=False, m=33, half=3)
@example(seed=2**32, listed=True, m=32, half=4)
@example(seed=2**32, listed=True, m=33, half=4)
def test_integers_match_numpy(seed, listed, m, half):
    # an even and an odd size: m <= 32 serves a 64-bit output as two draws
    entropy = _entropy(seed, listed)
    for size in (2 * half, 2 * half + 1):
        assert integers(entropy, m, size) == _numpy_table(entropy, m, size)


@pytest.mark.parametrize("seed", [0, 2**32, 2**128 - 1, [7, 1], [2**96, 1]])
def test_every_m_matches_numpy_at_odd_and_even_sizes(seed):
    for m in range(1, 64):
        for size in (6, 7):
            assert integers(seed, m, size) == _numpy_table(seed, m, size), (m, size)


@settings(deadline=None, max_examples=200)
@given(seed=SEEDS, listed=st.booleans())
@example(seed=0, listed=True)
@example(seed=2**32, listed=True)
def test_random_matches_numpy(seed, listed):
    entropy = _entropy(seed, listed)
    ours, theirs = Stream(entropy), np.random.default_rng(entropy)
    assert [ours.random() for _ in range(64)] == [theirs.random() for _ in range(64)]


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**63 - 1), m=st.integers(1, 63))
def test_numpy_integer_seeds_draw_the_same(seed, m):
    for numpy_seed in (np.int64(seed), np.uint64(seed)):
        table = integers(numpy_seed, m, 9)
        assert table == integers(seed, m, 9) == _numpy_table(numpy_seed, m, 9)
        ours, plain = Stream([numpy_seed, 1]), Stream([seed, 1])
        assert [ours.random() for _ in range(8)] == [plain.random() for _ in range(8)]


@pytest.mark.parametrize("seed", [-1, [-1, 1], [3, -2**40]])
def test_negative_seed_raises_numpy_error(seed):
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match=f"^{theirs.value}$"):
        Stream(seed)
    with pytest.raises(ValueError, match=f"^{theirs.value}$"):
        integers(seed, 5, 4)
