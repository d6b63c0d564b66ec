"""Tests for the collision statistics toolkit.

Expected means come from the exact bin-occupancy closed form: with q = 1-1/M,
the expected number of images hit at least twice by R uniform draws is
M (1 - q^R - (R/M) q^(R-1)); the whole law of Z comes from counting draws
exactly (reference.occupancy_law).  Everything empirical runs under fixed seeds.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainwalk.errors import ParameterError
from chainwalk.stats import (
    IntervalPlan,
    _collision_counts_block,
    _draw_images,
    calibrate_constant,
    collision_counts,
    interval_hit_probability,
    resolve_threads,
    round_count,
    sample_collision_counts,
    verify_stats_report,
    window,
)
from reference import multicollision_size_bound, occupancy_law


def exact_mean(big_r, bins):
    q = 1.0 - 1.0 / bins
    return bins * (1.0 - q**big_r - (big_r / bins) * q ** (big_r - 1))


def exact_c(big_r, bins):
    return exact_mean(big_r, bins) * bins / (big_r * big_r)


def test_round_count_half_up():
    assert round_count(0.5) == 1
    assert round_count(1.5) == 2
    assert round_count(2.5) == 3
    assert round_count(-0.5) == 0
    assert round_count(1.49) == 1
    assert round_count(2.0) == 2


def test_resolve_threads_env(monkeypatch):
    monkeypatch.setenv("CWL_THREADS", "3")
    assert resolve_threads(None) == 3
    assert resolve_threads(7) == 7
    for bad in (0, -4):
        with pytest.raises(ParameterError):
            resolve_threads(bad)
    monkeypatch.setenv("CWL_THREADS", "abc")
    assert resolve_threads(None) == 1
    for low in ("0", "-4"):
        monkeypatch.setenv("CWL_THREADS", low)
        assert resolve_threads(None) == 1
    monkeypatch.delenv("CWL_THREADS")
    assert resolve_threads(None) == 1


def test_sample_counts_deterministic_and_thread_invariant():
    a = sample_collision_counts(16, 256, 30000, np.random.default_rng(5), threads=1)
    b = sample_collision_counts(16, 256, 30000, np.random.default_rng(5), threads=4)
    c = sample_collision_counts(16, 256, 30000, np.random.default_rng(5), threads=1)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    assert len(a) == 30000
    with pytest.raises(ParameterError):
        sample_collision_counts(0, 256, 10, np.random.default_rng(0))
    for bad in (0, -4):
        with pytest.raises(ParameterError):
            sample_collision_counts(16, 256, 10, np.random.default_rng(0), threads=bad)


def _runs_of_two_or_more(row):
    """Z of one sorted row, counted run by run."""
    runs, length = 0, 1
    for prev, value in zip(row, row[1:]):
        length = length + 1 if value == prev else 1
        runs += length == 2
    return runs


@settings(deadline=None, max_examples=200)
@given(
    rows=st.integers(0, 50),
    width=st.integers(0, 65),
    top=st.integers(1, 1 << 12),
    dtype=st.sampled_from([np.int64, np.uint32]),
    seed=st.integers(0, 2**32 - 1),
    pairs=st.booleans(),
)
@example(rows=3, width=7, top=1, dtype=np.int64, seed=0, pairs=False)   # all equal: Z = 1
@example(rows=4, width=1, top=1, dtype=np.uint32, seed=0, pairs=False)  # width 1: Z = 0
# byte lanes at one and at eight words a row
@example(rows=5, width=8, top=4, dtype=np.uint32, seed=1, pairs=False)
@example(rows=5, width=64, top=40, dtype=np.int64, seed=2, pairs=False)
# Z = width / 2: 252 in the lanes' top byte, 256 past it by bincount
@example(rows=3, width=504, top=1, dtype=np.uint32, seed=3, pairs=True)
@example(rows=3, width=512, top=1, dtype=np.uint32, seed=4, pairs=True)
@example(rows=4, width=20, top=6, dtype=np.int64, seed=5, pairs=False)  # not 8k wide
@example(rows=3, width=0, top=1, dtype=np.int64, seed=0, pairs=False)  # empty rows: Z = 0
def test_collision_counts_matches_a_run_counter(rows, width, top, dtype, seed, pairs):
    table = np.random.default_rng(seed).integers(1, top, size=(rows, width),
                                                 dtype=dtype, endpoint=True)
    if pairs:
        # each value of a strictly rising row twice: Z = width // 2
        table = np.repeat(table.cumsum(axis=1, dtype=dtype)[:, ::2], 2, axis=1)[:, :width]
    table.sort(axis=1)
    z = collision_counts(table)
    assert z.dtype == np.int64
    assert len(z) == rows
    assert z.tolist() == [_runs_of_two_or_more(row) for row in table.tolist()]
    if pairs:
        assert z.tolist() == [width // 2] * rows
    elif top == 1:
        assert z.tolist() == [int(width > 1)] * rows


def test_uint32_draws_keep_the_int64_stream():
    # numpy draws every range up to 2^32 by the same 32-bit method
    for bins in (1, 3, 256, 1000, 4096, 1 << 32):
        for shape in ((1001,), (33, 17)):
            wide = np.random.default_rng([5, bins]).integers(0, bins, size=shape,
                                                             dtype=np.int64)
            narrow = np.random.default_rng([5, bins]).integers(0, bins, size=shape,
                                                               dtype=np.uint32)
            assert np.array_equal(wide, narrow), (bins, shape)


def _integers_counts(gen, size, big_r, bins):
    """Z of each row as every block counted it before the raw-stream draw."""
    dtype = np.uint32 if bins <= 1 << 32 else np.int64
    draws = gen.integers(0, bins, size=(size, big_r), dtype=dtype)
    draws.sort(axis=1)
    return collision_counts(draws)


def _assert_draw_matches_integers(seed, size, big_r, bins, bit_generator=np.random.PCG64):
    def gen():
        return np.random.Generator(bit_generator(seed))

    dtype = np.uint32 if bins <= 1 << 32 else np.int64
    draws = _draw_images(gen(), size, big_r, bins)
    assert draws.shape == (size, big_r) and draws.dtype == dtype
    assert np.array_equal(draws, gen().integers(0, bins, size=(size, big_r), dtype=dtype))
    z = _collision_counts_block((gen(), size, big_r, bins))
    assert z.dtype == np.int64
    assert np.array_equal(z, _integers_counts(gen(), size, big_r, bins))


@pytest.mark.parametrize("bits", range(33))
def test_power_of_two_draws_match_integers(bits):
    # size * R odd (1, 15, 561) and even (1024, 131072): an odd count
    # leaves the high half of the last raw output unused.  Up to M = 2^16,
    # (64, 16), (8192, 16), (8192, 8) and (8192, 1) sort 64 draws a pack;
    # 8191 rows of 16 do not fill whole packs and sort row by row.
    for shape in ((1, 1), (3, 5), (33, 17), (64, 16), (8192, 16), (8192, 8),
                  (8192, 1), (8191, 16)):
        _assert_draw_matches_integers([5, bits], *shape, 1 << bits)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**64 - 1),
    size=st.integers(1, 64),
    big_r=st.integers(1, 65),
    bits=st.integers(0, 32),
)
def test_power_of_two_draws_match_integers_everywhere(seed, size, big_r, bits):
    _assert_draw_matches_integers(seed, size, big_r, 1 << bits)


def test_other_draws_keep_integers():
    # a range that is not a power of two, one above 2^32, and a bit
    # generator other than PCG64 all draw through Generator.integers
    for bins in (3, 1000, 1 << 33):
        for shape in ((1, 1), (33, 17), (512, 16)):
            _assert_draw_matches_integers(5, *shape, bins)
    for bit_generator in (np.random.Philox, np.random.MT19937):
        for bins in (1, 2, 256, 1000, 1 << 32, 1 << 33):
            _assert_draw_matches_integers(5, 33, 17, bins, bit_generator)


# the four (R, M) cases of the benchmark's checks workload
LAW_CASES = ((16, 256), (32, 1024), (32, 4096), (64, 4096))
# the 1 - 1e-6 quantile of chi^2 with df degrees of freedom
# (scipy.stats.chi2.isf(1e-6, df)), for every df the pooling below gives
CHI2_CRITICAL = {3: 30.6648, 4: 33.3768, 5: 35.8882}


def test_occupancy_law_is_a_distribution_with_the_exact_mean():
    means = {(16, 256): 0.4519816, (32, 1024): 0.4750143,
             (32, 4096): 0.1205040, (64, 4096): 0.4872484}
    for big_r, bins in LAW_CASES:
        law = occupancy_law(big_r, bins)
        assert sum(law) == 1
        mean = sum(z * p for z, p in enumerate(law))
        assert abs(float(mean) - exact_mean(big_r, bins)) < 1e-12
        assert float(mean) == pytest.approx(means[big_r, bins], abs=1e-7)


def test_sampled_counts_follow_the_occupancy_law():
    samples = 1 << 16
    for big_r, bins in LAW_CASES:
        law = [float(p) for p in occupancy_law(big_r, bins)]
        # cells 0 .. k-1 and a pooled tail Z >= k, every expected count >= 5
        k = 1
        while samples * law[k] >= 5 and samples * sum(law[k + 1:]) >= 5:
            k += 1
        expected = samples * np.array(law[:k] + [sum(law[k:])])
        values = sample_collision_counts(big_r, bins, samples,
                                         np.random.default_rng([17, big_r, bins]))
        observed = np.bincount(np.minimum(values, k), minlength=k + 1)
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < CHI2_CRITICAL[k], (big_r, bins, stat)


def test_verify_stats_rows_pinned():
    # the four (R, M) cases of the benchmark's checks workload at 2^14 samples
    pins = {
        (16, 256): "456b16f9d07ad9bb8910035702dc5d3185395644c91f3f2ce263f80e699f3dfe",
        (32, 1024): "0a4bab1c830f60ceb966ab860eb4e739e9ce98238c275aeec146cca21b4dbbe6",
        (32, 4096): "5adc7df8d9784165acb8b005a3394ca9e525d1163d0f387177efd9186459f3b7",
        (64, 4096): "cf78adef48583ea7452651323ed3d342e3969b4537b308b472fdb1e34df8157c",
    }
    for (big_r, bins), pin in pins.items():
        row = verify_stats_report(big_r, bins, 1 << 14,
                                  np.random.default_rng([14, big_r, bins]), threads=1)
        text = json.dumps(row, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == pin, (big_r, bins)


def test_sample_counts_pinned_above_32_bits():
    # M = 2^33 leaves the uint32 draw: the int64 stream is pinned
    tiny = sample_collision_counts(2, 1 << 33, 1000, np.random.default_rng(33))
    assert tiny.dtype == np.int64 and tiny.tolist() == [0] * 1000
    wide = sample_collision_counts(1 << 17, 1 << 33, 8, np.random.default_rng(33))
    assert wide.tolist() == [2, 1, 0, 0, 1, 0, 1, 0]


def test_sample_counts_mean_matches_closed_form():
    for big_r, bins in [(16, 256), (32, 1024), (32, 4096)]:
        values = sample_collision_counts(
            big_r, bins, 100_000, np.random.default_rng([11, big_r, bins])
        )
        mean = values.mean()
        sigma = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(mean - exact_mean(big_r, bins)) < 4.0 * sigma


def test_exact_mean_reference_values():
    assert exact_mean(16, 256) == pytest.approx(0.45198156576702964, rel=1e-12)
    assert exact_mean(32, 1024) == pytest.approx(0.4750142932658292, rel=1e-12)
    assert exact_mean(32, 4096) == pytest.approx(0.12050403892686035, rel=1e-12)


def test_calibrate_constant():
    cal = calibrate_constant(16, 256, 200_000, np.random.default_rng(1))
    assert 0.45 <= cal.c <= 0.72
    assert cal.c == cal.stats.mean_z * 256 / 16**2
    # the exact constant lies within 3 sigma of the estimate
    sigma_c = math.sqrt(cal.stats.var_z / 200_000) * 256 / 16**2
    assert 0 < sigma_c and abs(cal.c - exact_c(16, 256)) <= 3.0 * sigma_c
    with pytest.raises(ParameterError):
        calibrate_constant(32, 256, 100, np.random.default_rng(0))


def test_constant_approaches_half_from_below():
    # finite-R limit at lambda -> 0 is (R-1)/(2R), not 1/2
    assert abs(exact_c(64, 1 << 16) - 63.0 / 128.0) < 1e-3
    values = [exact_c(big_r, 1 << 16) for big_r in (8, 16, 32, 64, 128)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < 0.5 for v in values)


def test_interval_plan_build_and_refresh():
    assert window(4.0, 8, 128) == (2, 1)
    plan = IntervalPlan.build(8, 128, 4.0)
    assert plan == IntervalPlan(c=4.0, width=1, expected_now=2)
    moved = plan.refreshed(7, 120)
    assert moved == IntervalPlan(c=4.0, width=1, expected_now=round_count(4.0 * 49 / 120))
    with pytest.raises(ParameterError):
        IntervalPlan.build(32, 256, 1.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: window(0.5, 4, 0), id="window-M0"),
    pytest.param(lambda: window(0.5, 4, -4), id="window-M-4"),
    pytest.param(lambda: window(0.5, -1, 16), id="window-R-1"),
    pytest.param(lambda: interval_hit_probability(4, 0, 0.5, "upper", 10,
                                                  np.random.default_rng(0)),
                 id="interval_hit_probability-M0"),
    pytest.param(lambda: occupancy_law(4, 0), id="occupancy_law-M0"),
    pytest.param(lambda: occupancy_law(4, -4), id="occupancy_law-M-4"),
    pytest.param(lambda: occupancy_law(-1, 16), id="occupancy_law-R-1"),
])
def test_window_and_occupancy_law_refuse_empty_bins(call):
    """M <= 0 or R < 0 raise ParameterError, not ZeroDivisionError or a math
    domain error: window(0.5, 4, 0) divided by M, window(0.5, 4, -4) took
    sqrt(M), interval_hit_probability reads its window before it samples,
    and occupancy_law(4, 0) divided by M^R."""
    with pytest.raises(ParameterError):
        call()


def test_interval_hit_probability():
    c = exact_c(32, 1024)
    up = interval_hit_probability(32, 1024, c, "upper", 10_000, np.random.default_rng(2))
    low = interval_hit_probability(32, 1024, c, "lower", 10_000, np.random.default_rng(2))
    assert up.probability >= 0.05
    assert low.probability >= 0.05
    # E = round(c R^2 / M) = 0 here, below the working window E >= 2
    assert window(c, 32, 1024)[0] == 0
    c_big = exact_c(64, 1024)
    rich = interval_hit_probability(64, 1024, c_big, "upper", 10_000, np.random.default_rng(2))
    assert window(c_big, 64, 1024)[0] == 2
    assert rich.probability >= 0.05
    # a window of E = 0 is still reported: Z = 0 nearly always lands in [0, 1]
    degenerate = interval_hit_probability(
        2, 1 << 16, 0.5, "upper", 1000, np.random.default_rng(3)
    )
    assert window(0.5, 2, 1 << 16)[0] == 0 and degenerate.probability == 1.0
    with pytest.raises(ParameterError):
        interval_hit_probability(32, 1024, c, "sideways", 10, np.random.default_rng(0))


def test_wide_window_capture():
    # window of ten sigmas around the mean captures at least 0.9 of the mass
    values = sample_collision_counts(32, 1024, 20_000, np.random.default_rng(6))
    center = values.mean()
    half = 10.0 * values.std(ddof=1)
    inside = np.mean(np.abs(values - center) <= half)
    assert inside >= 0.9


def test_variance_check():
    # bin occupancies are negatively associated, so Var(Z) sits below E[Z]
    # up to a Monte-Carlo margin, and sigma_Z below sqrt(2/3) R / sqrt(M/2)
    values = sample_collision_counts(16, 256, 50_000, np.random.default_rng(4))
    var = values.var(ddof=1)
    assert var <= values.mean() * (1.0 + 5.0 / math.sqrt(50_000))
    assert math.sqrt(var) <= math.sqrt(2.0 / 3.0) * 16 / math.sqrt(128)


def test_multicollision_size_bound():
    assert multicollision_size_bound(4, 8, 3) == pytest.approx(560.0 / 65536.0, rel=1e-12)
    # decreasing in ell at fixed (n, m) once past the peak of the count term
    assert multicollision_size_bound(4, 8, 4) < multicollision_size_bound(4, 8, 3)
    # decreasing in m
    assert multicollision_size_bound(4, 9, 3) < multicollision_size_bound(4, 8, 3)
    # astronomically large pair counts overflow to inf and say so
    assert multicollision_size_bound(1002, 1002, 2) == math.inf
    # stable for domains far beyond float spacing: exact birthday value
    assert multicollision_size_bound(64, 64, 2) == pytest.approx(2.0**63, rel=1e-9)
    assert multicollision_size_bound(60, 120, 2) == pytest.approx(
        math.comb(1 << 60, 2) * 2.0**-120, rel=1e-9
    )
    # past ell = 4096 the count term is a difference of lgammas
    assert multicollision_size_bound(13, 1, 6300) == pytest.approx(
        2 ** (math.log2(math.comb(8192, 6300)) - 6299), rel=1e-9
    )
    with pytest.raises(ParameterError):
        multicollision_size_bound(4, 8, 1)
    with pytest.raises(ParameterError):
        multicollision_size_bound(4, 8, 17)
    with pytest.raises(ParameterError):
        multicollision_size_bound(0, 8, 2)


def test_verify_stats_report_shape_and_determinism():
    row = verify_stats_report(16, 256, 20_000, np.random.default_rng(12))
    again = verify_stats_report(16, 256, 20_000, np.random.default_rng(12))
    assert row == again
    assert set(row) == {
        "R", "M", "samples", "mean_Z", "var_Z", "c_hat", "p_upper", "p_lower",
    }
    assert row["R"] == 16 and row["M"] == 256 and row["samples"] == 20_000
    assert 0.0 <= row["p_upper"] <= 1.0
    assert 0.0 <= row["p_lower"] <= 1.0
