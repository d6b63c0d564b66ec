"""numpy's default_rng draws for the run path, in pure Python, bit for bit.

A run reads two seeded streams: generate_function's table,
default_rng(seed).integers(0, 2**m, size, dtype=np.int64), and chain.run's
measurement stream, default_rng([seed, 1]) read only through random().
`integers` and `Stream` give exactly those draws, so a run builds no numpy
Generator.

Every measurement outcome, on the class path (levels) and on the vector
path (statevector.measure), is drawn by `choose`, the one reader of
random() outside Stream: over labels of integer weights, it takes the
first whose cumulative weight exceeds u times their total, compared
exactly in integers, u being the stream's dyadic draw.  So the outcome at
a boundary is the one Fraction arithmetic gives, however many labels there
are and however large their weights.

Seeding is numpy's SeedSequence with its default pool of four words: the
seed's 32-bit words, least significant first and concatenated over a list,
are hashed into the pool (mix_entropy), and generate_state(4, uint64) hashes
the pool out again.  PCG64 seeds its 128-bit LCG from those four words
(pcg64_set_seed), and each draw steps the LCG, then outputs XSL-RR: the two
64-bit halves of the new state xored and rotated right by its top six bits
(O'Neill, HMC-CS-2014-0905, 2014).

A draw below 2^m is Lemire's bounded draw (ACM TOMACS 2019), which for a
power-of-two bound is a shift with no rejection: the top m bits of a 32-bit
word for m <= 32, where next_uint32 serves each 64-bit output as its low half
and then its high half, and the top m bits of a 64-bit output for m > 32.
random() is the top 53 bits of a 64-bit output times 2^-53.
"""

from __future__ import annotations

from itertools import accumulate
from operator import index
from typing import List, Protocol

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# x * _TWICE is the 64-bit x beside itself, so shifting it right by r
# leaves x rotated right by r in the low 64 bits
_TWICE = (1 << 64) + 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715


class Uniform(Protocol):
    """What the run path reads of a measurement stream: one float in [0, 1)."""

    def random(self) -> float: ...


def _hash_keys(init: int, mult: int, count: int) -> List[tuple]:
    """The (xor, multiply) constants of `count` successive SeedSequence hashes."""
    keys = []
    for _ in range(count):
        keys.append((init, init * mult & _M32))
        init = init * mult & _M32
    return keys


def _mix_plan(words: int) -> tuple:
    """mix_entropy's hashes over `words` entropy words, seed-independent.

    The first four hash the pool's four words in place, and each later one is
    (source, destination, xor, multiply): hash word `source` and mix it into
    pool word `destination`, where words past the pool's four are the
    entropy's own."""
    keys = _hash_keys(0x43B0D7E5, 0x931E8875, 4 * max(words, 4))
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    pairs += [(src, dst) for src in range(4, words) for dst in range(4)]
    return keys[:4], [pair + key for pair, key in zip(pairs, keys[4:])]


_MIX_PLAN = _mix_plan(4)
# generate_state(4, uint64) hashes the pool's words out cyclically, eight times
_STATE_PLAN = [(i & 3,) + key
               for i, key in enumerate(_hash_keys(0x8B51F9DD, 0x58F38DED, 8))]


def _words(seed) -> List[int]:
    """SeedSequence's entropy words: 32-bit little-endian words of an int,
    concatenated over a list of ints."""
    if isinstance(seed, (list, tuple)):
        return [word for part in seed for word in _words(part)]
    seed = index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _seeded(seed) -> tuple:
    """PCG64's (state, increment) after default_rng(seed)."""
    pool = _words(seed)
    first, mixes = _MIX_PLAN if len(pool) <= 4 else _mix_plan(len(pool))
    pool += [0] * (4 - len(pool))
    for i, (xor, mult) in enumerate(first):
        value = (pool[i] ^ xor) * mult & _M32
        pool[i] = value ^ value >> 16
    for src, dst, xor, mult in mixes:
        value = (pool[src] ^ xor) * mult & _M32
        value = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _M32
        pool[dst] = value ^ value >> 16
    out = [(value := (pool[src] ^ xor) * mult & _M32) ^ value >> 16
           for src, xor, mult in _STATE_PLAN]
    # four uint64 words, each its low uint32 first: the initial state from
    # the first two, the stream selector from the last two
    state = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = (out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 & _M128 | 1
    return ((inc + state) * _PCG_MULT + inc) & _M128, inc


def integers(seed, m: int, size: int) -> List[int]:
    """default_rng(seed).integers(0, 2**m, size, dtype=np.int64) as Python
    ints, for 1 <= m <= 63."""
    if not 1 <= m <= 63:
        raise ValueError(f"need 1 <= m <= 63, got m={m}")
    state, inc = _seeded(seed)
    out: List[int] = []
    append = out.append
    # each loop steps the LCG and takes its XSL-RR output inline, as
    # random() does: a call per draw would cost more than the draw
    if m <= 32:
        low, high = 32 - m, 64 - m
        for _ in range(size + 1 >> 1):
            state = (state * _PCG_MULT + inc) & _M128
            x = ((state >> 64 ^ state) & _M64) * _TWICE >> (state >> 122)
            append((x & _M32) >> low)
            append((x & _M64) >> high)
        del out[size:]
    else:
        shift = 64 - m
        for _ in range(size):
            state = (state * _PCG_MULT + inc) & _M128
            x = ((state >> 64 ^ state) & _M64) * _TWICE >> (state >> 122)
            append((x & _M64) >> shift)
    return out


def choose(weights: List[int], rng: Uniform) -> int:
    """The label the stream's next draw u selects among labels of integer
    `weights`, in label order: the first whose cumulative weight exceeds u
    times their total.  u is a dyadic rational num / den, so the comparison
    num * total < den * cumulative is exact."""
    num, den = float(rng.random()).as_integer_ratio()
    bar = num * sum(weights)
    # u < 1, so a positive total exceeds u times itself; the last label at a
    # zero total
    return next((label_id for label_id, acc in enumerate(accumulate(weights))
                 if bar < den * acc), len(weights) - 1)


class Stream:
    """default_rng(seed), read through random() only."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed) -> None:
        self._state, self._inc = _seeded(seed)

    def random(self) -> float:
        """The next float in [0, 1): the top 53 bits of one 64-bit output."""
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        x = ((state >> 64 ^ state) & _M64) * _TWICE >> (state >> 122)
        return ((x & _M64) >> 11) * 2.0 ** -53
