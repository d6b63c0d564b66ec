"""Tests for the scale-free exponent comparison and the memory trade-off."""

import math

import pytest

from chainwalk.errors import ParameterError
from chainwalk.regimes import evaluate, region_grid, tradeoff_curve


def test_reference_points():
    # full-range images, maximal collisions: everyone who is valid ties at 1
    # (BHT is valid here; the chained walk's extension reads 1.25)
    p = evaluate(1.0, 1.0)
    assert p.this_paper == pytest.approx(1.0)
    assert p.prior_best == pytest.approx(1.0)
    assert not p.improved

    # single collision in a width-2n image space
    # (the chained walk is valid here; BHT's extension reads 1)
    p = evaluate(2.0, 0.0)
    assert p.this_paper == pytest.approx(2.0 / 3.0)
    assert p.prior_best == pytest.approx(2.0 / 3.0)
    assert not p.improved

    # interior of the improvement triangle
    # (neither prior algorithm is valid; both extensions read 5/6)
    p = evaluate(4.0 / 3.0, 0.5)
    assert p.this_paper == pytest.approx(7.0 / 9.0)
    assert p.prior_best == pytest.approx(5.0 / 6.0)
    assert p.improved

    # both prior algorithms still valid: a three-way tie
    p = evaluate(1.2, 0.3)
    assert p.prior_best == pytest.approx(0.6)
    assert p.this_paper == pytest.approx(0.6)
    assert not p.improved


def test_point_validation():
    with pytest.raises(ParameterError):
        evaluate(0.9, 0.0)
    with pytest.raises(ParameterError):
        evaluate(2.1, 0.0)
    with pytest.raises(ParameterError):
        evaluate(1.5, 0.6)
    with pytest.raises(ParameterError):
        evaluate(1.0, -0.1)
    # boundary values are allowed
    evaluate(1.0, 1.0)
    evaluate(2.0, 0.0)
    evaluate(1.5, 0.5)


def test_prior_best_continuous_at_validity_boundary():
    # the tree-search exponent and its extension agree where validity flips
    for m_hat in (1.1, 1.25, 1.4):
        edge = 3.0 - 2.0 * m_hat
        below = evaluate(m_hat, edge - 1e-6).prior_best
        above = evaluate(m_hat, edge + 1e-6).prior_best
        assert abs(below - above) < 5e-6
    # the m_hat/4 edge only sits inside the domain while m_hat < 8/5
    for m_hat in (1.2, 1.4, 1.55):
        edge = m_hat / 4.0
        below = evaluate(m_hat, edge - 1e-6).prior_best
        above = evaluate(m_hat, edge + 1e-6).prior_best
        assert abs(below - above) < 5e-6


def test_never_worse_than_prior():
    for m_hat, k_hat, prior_best, this_paper, improved in region_grid(0.05):
        assert this_paper <= prior_best + 1e-9


def test_improved_region_is_the_two_condition_set():
    for m_hat, k_hat, prior_best, this_paper, improved in region_grid(0.05):
        expected = (k_hat > 3.0 - 2.0 * m_hat + 1e-6) and (k_hat > m_hat / 4.0 + 1e-6)
        assert improved == expected, (m_hat, k_hat)


def test_triangle_corners_are_boundary_points():
    corners = [(1.0, 1.0), (4.0 / 3.0, 1.0 / 3.0), (8.0 / 5.0, 2.0 / 5.0)]
    centroid = (
        sum(m for m, _ in corners) / 3.0,
        sum(k for _, k in corners) / 3.0,
    )
    assert evaluate(*centroid).improved
    for m_hat, k_hat in corners:
        assert not evaluate(m_hat, k_hat).improved
        # a short step toward the centroid enters the improvement region
        inside = evaluate(
            m_hat + 0.1 * (centroid[0] - m_hat),
            k_hat + 0.1 * (centroid[1] - k_hat),
        )
        assert inside.improved


def test_region_grid_shape_and_validation():
    rows = region_grid(0.1)
    assert len(rows) == 66
    m_values = sorted({row[0] for row in rows})
    assert m_values[0] == pytest.approx(1.0)
    assert m_values[-1] == pytest.approx(2.0)
    for m_hat, k_hat, *_ in rows:
        assert k_hat <= 2.0 - m_hat + 1e-9
    with pytest.raises(ParameterError):
        region_grid(0.0)
    with pytest.raises(ParameterError):
        region_grid(0.2)


def test_tradeoff_curve():
    m_hat, k_hat = 4.0 / 3.0, 0.5
    curve = tradeoff_curve(m_hat, k_hat, 40)
    assert len(curve) == 41
    assert curve[0].ell_hat == pytest.approx(0.0)
    assert curve[0].time_exponent == pytest.approx(k_hat + m_hat / 2.0)
    assert curve[-1].ell_hat == pytest.approx((2.0 * k_hat + m_hat) / 3.0)
    assert curve[-1].time_exponent == pytest.approx(evaluate(m_hat, k_hat).this_paper)
    times = [p.time_exponent for p in curve]
    assert all(a > b for a, b in zip(times, times[1:]))
    ells = [p.ell_hat for p in curve]
    assert all(a < b for a, b in zip(ells, ells[1:]))
    with pytest.raises(ParameterError):
        tradeoff_curve(m_hat, k_hat, 0)
