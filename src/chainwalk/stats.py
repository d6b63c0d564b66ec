"""Collision-count statistics for random functions, by direct Monte Carlo.

The quantity of interest is Z(S): the number of images hit at least twice by
an R-element sample S drawn into M bins.  A j-fold hit contributes one to Z,
not j-choose-2.  For lambda = R/M small, a Poisson model gives
E[Z] ~ M * (1 - exp(-lambda)(1 + lambda)), which sits near c * R^2 / M with
c between 1/2 and 2/3; the calibrated constant c feeds the concentration
window E = round(c R^2 / M), T = max(1, round(R / sqrt(M))), written once in
`window`, that the chained walk's interval plans hold.  Sampling is blocked
and each block gets its own spawned generator, so results do not depend on
how many worker threads run the blocks.  The CWL_THREADS environment
variable sets the default worker count; unset, not an integer or below 1,
it gives 1.

A block draws its R images per row as uint32 whenever M <= 2^32 and sorts
its rows in place.  numpy draws any range below 2^32 with Lemire's 32-bit
method whatever the output dtype, so these are the values an int64 draw
gives, at half the memory traffic; a larger M draws int64.  When M = 2^b and
the generator is PCG64, Lemire's method never rejects and returns the top b
bits of each 32-bit word, and numpy takes the words of each 64-bit output
low half first.  So the block reads ceil(size*R / 2) raw outputs, views them
as little-endian 32-bit words and shifts each right by 32 - b: the values
Generator.integers gives, without its per-element call.  Any other M or bit
generator draws through Generator.integers.  Each block's generator is
spawned fresh and used once, so the half output that integers would have
kept buffered is never read.

Rows of R <= 16 draws into M <= 2^16 bins are sorted in packs of 64 // R
rows, 64 draws when R divides 64, when the block's rows fill whole packs:
each draw is ORed with its row's place in the pack, shifted above the
(M - 1).bit_length() image bits, and each pack is sorted as one row.  The
place sorts first, so every R-slice of a sorted pack is its own row, sorted,
and two keys are equal only when they are equal images of one row.  The
place takes at most 6 bits, so the key stays within the uint32 draw; M <=
2^16 keeps the packs to the draws the packing was measured on.  A numpy row
sort pays a fixed cost per row that a row of 16 or fewer keys does not
amortise, and packing rows of 32 gained nothing, so wider rows, larger M
and blocks that do not fill whole packs sort row by row.

Z of the sorted rows comes from one flat pass over the raveled table: a bool
buffer marks each element equal to its predecessor, with the first column
cleared so no pair spans two rows, and a run of two or more starts where a
mark follows an unmarked element.  When the width is a multiple of 8 below
512, each row's start flags are summed as uint64 words in 8 byte lanes and
the lanes are added by one multiply (Hacker's Delight, 5-1); a row holds at
most width / 2 < 256 runs, so no byte carries.  Any other width counts the
run starts per row with bincount.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from .errors import ParameterError
from .oracle import require_int, require_real

_BLOCK = 8192


def round_count(x: float) -> int:
    """Round half up to an integer; `window` rounds E and T with it."""
    return int(math.floor(x + 0.5))


def resolve_threads(threads: int | None = None) -> int:
    """The worker count: `threads` when given, which must be at least 1,
    else what CWL_THREADS gives."""
    if threads is not None:
        require_int(threads=threads)
        if threads < 1:
            raise ParameterError(f"need at least 1 worker thread, got {threads}")
        return int(threads)
    raw = os.environ.get("CWL_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _block_sizes(samples: int, block: int) -> List[int]:
    out = []
    left = samples
    while left > 0:
        take = min(block, left)
        out.append(take)
        left -= take
    return out


def _map_blocks(worker, jobs, threads: int):
    """Run jobs (order-preserving) on up to `threads` workers."""
    if threads <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, jobs))


def collision_counts(sorted_rows: np.ndarray) -> np.ndarray:
    """Z of each row of a table whose rows are sorted: its runs of two or
    more equal values, as int64.  The sampler's blocks and
    extraction.FamilyIndex's vertices are both counted here.

    Rows of a width that is a multiple of 8 and below 512 are counted by
    byte lanes: the run-start flags of a row are width / 8 uint64 words,
    their lane-wise sum holds at most width / 8 < 64 in each of its 8 byte
    lanes, and one multiply by 0x0101010101010101 gathers the lanes' total
    into the top byte.  A row of width w has at most w / 2 < 256 runs, so
    neither the lanes nor that total carry.  Any other width counts the flag
    positions with bincount.  A row of width 0 holds no run: Z = 0.
    """
    rows, width = sorted_rows.shape
    if not width:
        return np.zeros(rows, dtype=np.int64)
    flat = sorted_rows.ravel()
    # dup[i]: element i equals element i-1 of the same row; dup[size], an
    # end mark that the row-start clearing also clears
    dup = np.empty(flat.size + 1, dtype=bool)
    np.equal(flat[1:], flat[:-1], out=dup[1:-1])
    dup[::width] = False
    # start[i]: a run of two or more starts at element i.  A row's last
    # element starts none, so no flag spills into the next row.
    start = dup[1:] > dup[:-1]
    if width % 8 or width >= 512:
        return np.bincount(np.flatnonzero(start) // width, minlength=rows)
    words = start.view(np.uint64).reshape(rows, width // 8)
    lanes = words[:, 0].copy()
    for col in range(1, width // 8):
        lanes += words[:, col]
    lanes *= np.uint64(0x0101010101010101)
    lanes >>= np.uint64(56)
    return lanes.astype(np.int64)


def _draw_images(gen: np.random.Generator, size: int, big_r: int, bins: int) -> np.ndarray:
    """A (size, R) table of uniform images in [0, bins): the values of
    gen.integers(0, bins, dtype=np.uint32), or of an int64 draw for M > 2^32,
    read straight from the raw PCG64 stream when M is a power of two."""
    if bins > 1 << 32:
        return gen.integers(0, bins, size=(size, big_r), dtype=np.int64)
    if bins & (bins - 1) or type(gen.bit_generator) is not np.random.PCG64:
        return gen.integers(0, bins, size=(size, big_r), dtype=np.uint32)
    count = size * big_r
    raw = gen.bit_generator.random_raw((count + 1) // 2)
    # each 64-bit output is two 32-bit words, low half first
    draws = raw.astype("<u8", copy=False).view("<u4")[:count]
    draws >>= 33 - bins.bit_length()
    return draws.reshape(size, big_r)


def _collision_counts_block(args) -> np.ndarray:
    gen, size, big_r, bins = args
    draws = _draw_images(gen, size, big_r, bins)
    per_pack = 64 // big_r
    if big_r > 16 or bins > 1 << 16 or size % per_pack:
        draws.sort(axis=1)
        return collision_counts(draws)
    # packs of 64 // R rows, each image tagged above its bits with its
    # row's place in the pack (see the module docstring)
    packs = draws.reshape(size // per_pack, per_pack * big_r)
    place = np.arange(per_pack, dtype=np.uint32) << np.uint32((bins - 1).bit_length())
    packs |= np.repeat(place, big_r)
    packs.sort(axis=1)
    return collision_counts(packs.reshape(size, big_r))


def sample_collision_counts(
    big_r: int,
    bins: int,
    samples: int,
    rng: np.random.Generator,
    threads: int | None = None,
) -> np.ndarray:
    """Z values for `samples` independent R-element draws into `bins` bins.

    The draw is R iid uniform images, which matches sampling a fresh random
    function on a fresh R-subset.  Block-deterministic: the result depends on
    the generator and the sample count, never on the thread count.
    """
    require_int(big_r=big_r, bins=bins, samples=samples)
    if big_r < 1 or bins < 1 or samples < 1:
        raise ParameterError("R, M, samples must all be positive")
    sizes = _block_sizes(samples, _BLOCK)
    gens = rng.spawn(len(sizes))
    jobs = [(g, s, big_r, bins) for g, s in zip(gens, sizes)]
    parts = _map_blocks(_collision_counts_block, jobs, resolve_threads(threads))
    return np.concatenate(parts)


@dataclass(frozen=True)
class CollisionStats:
    """Summary of one Z sample."""

    mean_z: float
    var_z: float


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated constant c = mean_Z * M / R^2 and the samples' summary."""

    c: float
    stats: CollisionStats


def calibrate_constant(
    big_r: int,
    bins: int,
    samples: int,
    rng: np.random.Generator,
    threads: int | None = None,
) -> CalibrationResult:
    """Estimate c from fresh samples.  Requires 8R < M."""
    require_int(big_r=big_r, bins=bins, samples=samples)
    if 8 * big_r >= bins:
        raise ParameterError(f"need 8R < M, got R={big_r}, M={bins}")
    values = sample_collision_counts(big_r, bins, samples, rng, threads)
    mean = float(values.mean())
    var = float(values.var(ddof=1)) if samples > 1 else 0.0
    return CalibrationResult(c=mean * (bins / (big_r * big_r)),
                             stats=CollisionStats(mean_z=mean, var_z=var))


def window(c: float, big_r: int, bins: int) -> Tuple[int, int]:
    """The concentration window of Z over R-subsets into M bins, as (E, T):
    E = round(c R^2 / M) and T = max(1, round(R / sqrt(M))).  Needs integers
    M > 0 and R >= 0, and a real c >= 0 with c R^2 / M finite."""
    require_int(big_r=big_r, bins=bins)
    require_real(c=c)
    if bins <= 0 or big_r < 0 or not (c >= 0 and c * big_r * big_r / bins < math.inf):
        raise ParameterError(
            f"need M > 0, R >= 0 and c >= 0 with c R^2 / M finite, "
            f"got c={c}, R={big_r}, M={bins}"
        )
    return round_count(c * big_r * big_r / bins), max(1, round_count(big_r / math.sqrt(bins)))


@dataclass(frozen=True)
class IntervalPlan:
    """The window a dense run holds: c, the half-width T, frozen when the
    plan is built, and E for the current (R, M), recomputed by `refreshed`
    as the run shrinks R and M.

    `build` checks the premise 8R < M once.  A refresh cannot break it: each
    of t extracted tuples takes at least two points from R and one image
    from M, so 8R' <= 8R - 16t < M - t = M'.
    """

    c: float
    width: int
    expected_now: int

    @classmethod
    def build(cls, big_r: int, bins: int, c: float) -> "IntervalPlan":
        if 8 * big_r >= bins:
            raise ParameterError(f"need 8R < M, got R={big_r}, M={bins}")
        expected, width = window(c, big_r, bins)
        return cls(c=c, width=width, expected_now=expected)

    def refreshed(self, big_r: int, bins: int) -> "IntervalPlan":
        """Same c and width, E recomputed for the drifted (R, M)."""
        return replace(self, expected_now=window(self.c, big_r, bins)[0])


@dataclass(frozen=True)
class IntervalHitReport:
    probability: float


def interval_hit_probability(
    big_r: int,
    bins: int,
    c: float,
    which: str,
    samples: int,
    rng: np.random.Generator,
    threads: int | None = None,
) -> IntervalHitReport:
    """Empirical probability that Z lands in [E, E+T] or [E-T, E].

    `which` is "upper" or "lower".  When E < 2 the window logic is outside
    its working regime; the probability is still reported.
    """
    if which not in ("upper", "lower"):
        raise ParameterError(f"which must be 'upper' or 'lower', got {which!r}")
    expected, width = window(c, big_r, bins)
    values = sample_collision_counts(big_r, bins, samples, rng, threads)
    if which == "upper":
        hits = (values >= expected) & (values <= expected + width)
    else:
        hits = (values >= expected - width) & (values <= expected)
    return IntervalHitReport(probability=float(hits.mean()))


def verify_stats_report(
    big_r: int,
    bins: int,
    samples: int,
    rng: np.random.Generator,
    threads: int | None = None,
) -> dict:
    """One row of the stats report: calibration plus both interval hits."""
    cal = calibrate_constant(big_r, bins, samples, rng, threads)
    upper = interval_hit_probability(big_r, bins, cal.c, "upper", samples, rng, threads)
    lower = interval_hit_probability(big_r, bins, cal.c, "lower", samples, rng, threads)
    return {
        "R": big_r,
        "M": bins,
        "samples": samples,
        "mean_Z": cal.stats.mean_z,
        "var_Z": cal.stats.var_z,
        "c_hat": cal.c,
        "p_upper": upper.probability,
        "p_lower": lower.probability,
    }
