"""Collision-count statistics for random functions, by direct Monte Carlo.

The quantity of interest is Z(S): the number of images hit at least twice by
an R-element sample S drawn into M bins.  A j-fold hit contributes one to Z,
not j-choose-2.  For lambda = R/M small, a Poisson model gives
E[Z] ~ M * (1 - exp(-lambda)(1 + lambda)), which sits near c * R^2 / M with
c between 1/2 and 2/3; the calibrated constant c feeds the interval plans
(E = round(c R^2 / M), T = max(1, round(R / sqrt(M)))) used by the chained
walk.  Sampling is blocked and each block gets its own spawned generator, so
results do not depend on how many worker threads run the blocks.  The
CWL_THREADS environment variable caps the default worker count.

A block draws its R images per row as uint32 whenever M <= 2^32 and sorts
each row in place.  numpy draws any range below 2^32 with Lemire's 32-bit
method whatever the output dtype, so these are the values an int64 draw
gives, at half the memory traffic; a larger M draws int64.  Z of the sorted
rows comes from one flat pass over the raveled table: a bool buffer marks
each element equal to its predecessor, with the first column cleared so no
pair spans two rows, a run of two or more starts where a mark follows an
unmarked element, and the run starts are counted per row with bincount.
FamilyIndex counts its per-vertex collisions with the same kernel.

The distributions the checks compare against are closed forms: the Poisson
pmf by its ratio recurrence with the tail summed term by term, the binomial
pmf as an exact integer ratio, and the chi-square survival function at
integer degrees of freedom as the finite incomplete-gamma sums.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ParameterError

_BLOCK = 8192
_OCC_CELL_CAP = 1 << 22


def round_count(x: float) -> int:
    """Round half up to an integer; used for every E and T in interval plans."""
    return int(math.floor(x + 0.5))


def resolve_threads(threads: int | None = None) -> int:
    if threads is not None:
        return max(1, int(threads))
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
    more equal values, as int64."""
    rows, width = sorted_rows.shape
    flat = sorted_rows.ravel()
    # dup[i]: element i equals element i-1 of the same row
    dup = np.empty(flat.size, dtype=bool)
    np.equal(flat[1:], flat[:-1], out=dup[1:])
    dup[::width] = False
    starts = np.flatnonzero(dup[1:] > dup[:-1])
    return np.bincount(starts // width, minlength=rows)


def _collision_counts_block(args) -> np.ndarray:
    gen, size, big_r, bins = args
    dtype = np.uint32 if bins <= 1 << 32 else np.int64
    draws = gen.integers(0, bins, size=(size, big_r), dtype=dtype)
    draws.sort(axis=1)
    return collision_counts(draws)


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
    if big_r < 1 or bins < 1 or samples < 1:
        raise ParameterError("R, M, samples must all be positive")
    sizes = _block_sizes(samples, _BLOCK)
    gens = rng.spawn(len(sizes))
    jobs = [(g, s, big_r, bins) for g, s in zip(gens, sizes)]
    parts = _map_blocks(_collision_counts_block, jobs, resolve_threads(threads))
    return np.concatenate(parts)


def multicollision_count(fn, subset) -> int:
    """Ground-truth Z of one explicit subset under fn (table or restriction)."""
    seen: dict[int, int] = {}
    for x in subset:
        y = fn.value(x)
        seen[y] = seen.get(y, 0) + 1
    return sum(1 for hits in seen.values() if hits >= 2)


@dataclass(frozen=True)
class CollisionStats:
    """Summary of one Z sample."""

    sample_count: int
    mean_z: float
    var_z: float
    lam: float
    p_hat: float


def _summarize(values: np.ndarray, big_r: int, bins: int) -> CollisionStats:
    mean = float(values.mean())
    var = float(values.var(ddof=1)) if len(values) > 1 else 0.0
    return CollisionStats(
        sample_count=len(values),
        mean_z=mean,
        var_z=var,
        lam=big_r / bins,
        p_hat=mean / bins,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated constant c = mean_Z * M / R^2 with a 3-sigma interval."""

    c: float
    ci_low: float
    ci_high: float
    stats: CollisionStats


def calibrate_constant(
    big_r: int,
    bins: int,
    samples: int,
    rng: np.random.Generator,
    threads: int | None = None,
) -> CalibrationResult:
    """Estimate c from fresh samples.  Requires 8R < M."""
    if 8 * big_r >= bins:
        raise ParameterError(f"need 8R < M, got R={big_r}, M={bins}")
    values = sample_collision_counts(big_r, bins, samples, rng, threads)
    summary = _summarize(values, big_r, bins)
    scale = bins / (big_r * big_r)
    c = summary.mean_z * scale
    sigma_c = math.sqrt(max(summary.var_z, 0.0) / summary.sample_count) * scale
    return CalibrationResult(
        c=c,
        ci_low=c - 3.0 * sigma_c,
        ci_high=c + 3.0 * sigma_c,
        stats=summary,
    )


def _window_width(big_r: int, bins: int) -> int:
    """Half-width T = max(1, round(R / sqrt(M))) of the concentration window."""
    return max(1, round_count(big_r / math.sqrt(bins)))


@dataclass(frozen=True)
class IntervalPlan:
    """Concentration window for Z over R-subsets into M bins.

    E is the rounded expected count at calibration time, E_prime the latest
    recomputation after the pair (R, M) drifts, and T the half-width, frozen
    when the plan is built.
    """

    big_r: int
    bins: int
    c: float
    expected: int
    width: int
    expected_now: int

    def __post_init__(self) -> None:
        if 8 * self.big_r >= self.bins:
            raise ParameterError(
                f"need 8R < M, got R={self.big_r}, M={self.bins}"
            )

    @classmethod
    def build(cls, big_r: int, bins: int, c: float) -> "IntervalPlan":
        expected = round_count(c * big_r * big_r / bins)
        width = _window_width(big_r, bins)
        return cls(
            big_r=big_r, bins=bins, c=c,
            expected=expected, width=width, expected_now=expected,
        )

    def refreshed(self, big_r: int, bins: int) -> "IntervalPlan":
        """Same c and width, E recomputed for the drifted (R, M)."""
        return IntervalPlan(
            big_r=big_r,
            bins=bins,
            c=self.c,
            expected=self.expected,
            width=self.width,
            expected_now=round_count(self.c * big_r * big_r / bins),
        )


@dataclass(frozen=True)
class IntervalHitReport:
    which: str
    probability: float
    expected: int
    width: int
    sparse_regime: bool


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
    its working regime; the report is still produced but flagged sparse.
    """
    if which not in ("upper", "lower"):
        raise ParameterError(f"which must be 'upper' or 'lower', got {which!r}")
    expected = round_count(c * big_r * big_r / bins)
    width = _window_width(big_r, bins)
    values = sample_collision_counts(big_r, bins, samples, rng, threads)
    if which == "upper":
        hits = (values >= expected) & (values <= expected + width)
    else:
        hits = (values >= expected - width) & (values <= expected)
    return IntervalHitReport(
        which=which,
        probability=float(hits.mean()),
        expected=expected,
        width=width,
        sparse_regime=expected < 2,
    )


@dataclass(frozen=True)
class VarianceReport:
    mean_z: float
    var_z: float
    margin: float
    var_ok: bool
    sigma_cap: float
    sigma_ok: bool


def variance_check(
    big_r: int,
    bins: int,
    samples: int,
    rng: np.random.Generator,
    threads: int | None = None,
) -> VarianceReport:
    """Empirical check that Var(Z) <= E[Z] up to Monte-Carlo margin.

    Bin occupancies are negatively associated, so the variance sits below the
    mean; the margin 5/sqrt(samples) absorbs sampling noise.  Also reports the
    coarser cap sigma_Z <= sqrt(2/3) * R / sqrt(M/2).
    """
    values = sample_collision_counts(big_r, bins, samples, rng, threads)
    summary = _summarize(values, big_r, bins)
    margin = 1.0 + 5.0 / math.sqrt(samples)
    sigma_cap = math.sqrt(2.0 / 3.0) * big_r / math.sqrt(bins / 2.0)
    return VarianceReport(
        mean_z=summary.mean_z,
        var_z=summary.var_z,
        margin=margin,
        var_ok=summary.var_z <= summary.mean_z * margin,
        sigma_cap=sigma_cap,
        sigma_ok=math.sqrt(max(summary.var_z, 0.0)) <= sigma_cap,
    )


def multicollision_size_bound(n: int, m: int, ell: int) -> float:
    """Union bound on the probability of any ell-fold multicollision.

    Computes 2^(-m(ell-1)) * C(2^n, ell) in log space and only then
    exponentiates.  The value is reported verbatim even when it exceeds 1 and
    is vacuous as a probability.
    """
    if n < 1 or m < 1:
        raise ParameterError("n and m must be positive")
    if not (2 <= ell <= (1 << n)):
        raise ParameterError(f"need 2 <= ell <= 2^n, got ell={ell}")
    domain = 1 << n
    if ell <= 4096:
        # term-by-term sum: the lgamma difference lgamma(D+1) - lgamma(D-ell+1)
        # cancels catastrophically once ell/D drops below float resolution
        log2_choose = sum(math.log2(domain - i) for i in range(ell))
        log2_choose -= math.lgamma(ell + 1) / math.log(2.0)
    else:
        log2_choose = (
            math.lgamma(domain + 1)
            - math.lgamma(ell + 1)
            - math.lgamma(domain - ell + 1)
        ) / math.log(2.0)
    log2_bound = log2_choose - m * (ell - 1)
    if log2_bound > 1000.0:
        return math.inf
    return 2.0 ** log2_bound


@dataclass(frozen=True)
class DriftReport:
    width: int
    max_drift: float
    ok: bool
    precondition_ok: bool


def drift_check(big_r: int, bins: int, c: float = 2.0 / 3.0) -> DriftReport:
    """Worst-case movement of c R'^2 / M' over R' in [R-T, R], M' in [M-T, M].

    The expectation is monotone in each argument, so corners suffice.  The
    working precondition R^2 <= M^(3/2) / 8 is reported, not enforced; callers
    treat a violation as a flagged configuration.
    """
    if big_r < 1 or bins < 2:
        raise ParameterError("need R >= 1 and M >= 2")
    width = _window_width(big_r, bins)
    precondition_ok = big_r * big_r <= (bins ** 1.5) / 8.0
    base = c * big_r * big_r / bins
    max_drift = 0.0
    for r2 in (max(0, big_r - width), big_r):
        for m2 in (max(1, bins - width), bins):
            drift = abs(c * r2 * r2 / m2 - base)
            max_drift = max(max_drift, drift)
    return DriftReport(
        width=width,
        max_drift=max_drift,
        ok=max_drift <= width + 1e-9,
        precondition_ok=precondition_ok,
    )


def _occupancy_block(args) -> np.ndarray:
    gen, size, big_r, bins = args
    draws = gen.integers(0, bins, size=(size, big_r), dtype=np.int64)
    flat = (np.arange(size, dtype=np.int64)[:, None] * bins + draws).ravel()
    occupancy = np.bincount(flat, minlength=size * bins)
    return np.bincount(occupancy, minlength=big_r + 1)


def _poisson_law(lam: float, top: int) -> Tuple[np.ndarray, float]:
    """Poisson(lam) pmf at k = 0..top, and the tail P(X > top).

    p_0 = exp(-lam) and p_k = p_(k-1) * lam / k.  The tail is summed from
    p_(top+1) on until its terms vanish, not taken as 1 - cdf, which cancels
    to 0 or below when the tail is under float resolution (about 1e-85 at
    top = 32, lam = 1/32).  Past the mode the terms fall geometrically, so
    the sum stops once a term is below 1e-17 of it.  p_0 must be a normal
    float, so lam above 700 is refused rather than read as all zeros.
    """
    if lam > 700.0:
        raise ParameterError(f"Poisson rate {lam} too large for exp(-rate)")
    pmf = np.cumprod(np.concatenate(([math.exp(-lam)], lam / np.arange(1, top + 1))))
    tail, term, k = 0.0, float(pmf[-1]), top
    while True:
        k += 1
        term *= lam / k
        tail += term
        if k > lam and term <= tail * 1e-17:
            return pmf, tail


def _chi2_sf(x: float, dof: int) -> float:
    """P(chi2 with `dof` degrees of freedom > x), for integer dof >= 1.

    With h = x/2, the regularized upper incomplete gamma Q(dof/2, h) is
    exp(-h) sum_(i < dof/2) h^i / i! for even dof, and
    erfc(sqrt(h)) + exp(-h) sum_(i < (dof-1)/2) h^(i+1/2) / Gamma(i+3/2)
    for odd dof.  Every term is positive, so nothing cancels.
    """
    half = x / 2.0
    if dof % 2:   # term_0 = h^(1/2) / Gamma(3/2)
        head, term, step = math.erfc(math.sqrt(half)), 2.0 * math.sqrt(half / math.pi), 1.5
    else:
        head, term, step = 0.0, 1.0, 1.0
    total = 0.0
    for i in range(dof // 2):
        total += term
        term *= half / (i + step)
    return head + math.exp(-half) * total


@dataclass(frozen=True)
class PoissonFitReport:
    chi2: float
    dof: int
    p_value: float
    histogram: Tuple[int, ...]


def poisson_fit(
    big_r: int,
    bins: int,
    samples: int,
    rng: np.random.Generator,
    threads: int | None = None,
) -> PoissonFitReport:
    """Chi-square fit of per-bin occupancy counts against Poisson(R/M).

    Aggregates occupancies over all samples*M bins, pools sparse top
    categories so every expected count is at least 5, and reports the
    goodness-of-fit p-value.
    """
    if big_r < 1 or bins < 1 or samples < 1:
        raise ParameterError("R, M, samples must all be positive")
    pmf, tail = _poisson_law(big_r / bins, big_r)
    block = max(1, _OCC_CELL_CAP // bins)
    sizes = _block_sizes(samples, block)
    gens = rng.spawn(len(sizes))
    jobs = [(g, s, big_r, bins) for g, s in zip(gens, sizes)]
    parts = _map_blocks(_occupancy_block, jobs, resolve_threads(threads))
    hist = np.sum(parts, axis=0)

    total = samples * bins
    expected_full = total * pmf
    tail_expected = total * tail
    cut = big_r + 1
    while cut > 1:
        if tail_expected >= 5.0 and expected_full[cut - 1] >= 5.0:
            break
        cut -= 1
        tail_expected += expected_full[cut]
    observed = np.append(hist[:cut].astype(float), float(hist[cut:].sum()))
    expected = np.append(expected_full[:cut], tail_expected)
    if len(observed) < 2:
        return PoissonFitReport(chi2=0.0, dof=0, p_value=1.0, histogram=tuple(int(h) for h in hist))
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(observed) - 1
    return PoissonFitReport(
        chi2=chi2,
        dof=dof,
        p_value=_chi2_sf(chi2, dof),
        histogram=tuple(int(h) for h in hist),
    )


def binomial_poisson_tv(big_r: int, bins: int) -> float:
    """Exact total variation between Binomial(R, 1/M) and Poisson(R/M).

    The binomial pmf C(R, k) p^k (1-p)^(R-k) at p = 1/M is the integer ratio
    C(R, k) (M-1)^(R-k) / M^R, divided once with correct rounding; at M = 1
    it puts all mass on k = R.
    """
    pois_pmf, tail = _poisson_law(big_r / bins, big_r)
    scale = bins ** big_r
    binom_pmf = np.array([
        math.comb(big_r, k) * (bins - 1) ** (big_r - k) / scale
        for k in range(big_r + 1)
    ])
    return 0.5 * (float(np.abs(binom_pmf - pois_pmf).sum()) + tail)


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
