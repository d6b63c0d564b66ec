"""Query-complexity regimes for multiple collision search, scale-free in n.

Everything is expressed in exponents divided by n: m_hat = m/n in [1, 2] and
k_hat = k/n in [0, 2 - m_hat].  Three algorithm families compete.  The
grow-and-prune tree search reaches 2k/3 + m/3 only while k_hat <= 3 - 2m_hat
and degrades to k + m - n beyond; the chained-walk predecessor reaches the
same exponent while k_hat <= min(2 - m_hat, m_hat/4) and degrades to
k + m/4; the algorithm simulated by this package achieves 2k/3 + m/3 over
the whole parameter range.  The improved region, where that exponent beats
every prior entry, is the triangle with corners (1, 1), (4/3, 1/3) and
(8/5, 2/5).

The memory-time trade-off holds the exponent k + m/2 - ell/2 for memory
2^ell with ell up to 2k/3 + m/3, meeting the optimum at the endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import ParameterError
from .oracle import require_int, require_real

_TOL = 1e-9


@dataclass(frozen=True)
class RegimePoint:
    """This paper's exponent and the best prior one at one (m_hat, k_hat).
    Inside its validity range each prior algorithm reaches this_paper's
    exponent."""

    this_paper: float
    prior_best: float

    @property
    def improved(self) -> bool:
        return self.this_paper < self.prior_best - _TOL


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the memory-time curve."""

    ell_hat: float
    time_exponent: float


def _validate_point(m_hat: float, k_hat: float) -> None:
    require_real(m_hat=m_hat, k_hat=k_hat)
    if not (1.0 - _TOL <= m_hat <= 2.0 + _TOL):
        raise ParameterError(f"m_hat must lie in [1, 2], got {m_hat}")
    if not (-_TOL <= k_hat <= 2.0 - m_hat + _TOL):
        raise ParameterError(
            f"k_hat must lie in [0, {2.0 - m_hat:.6f}] for m_hat={m_hat}, got {k_hat}"
        )


def evaluate(m_hat: float, k_hat: float) -> RegimePoint:
    """Exponents of every algorithm at one parameter point.

    Outside an algorithm's validity range the extended variant's exponent
    stands in; the pieces agree on the boundary, so prior_best is continuous.
    """
    _validate_point(m_hat, k_hat)
    base = 2.0 * k_hat / 3.0 + m_hat / 3.0
    bht_valid = k_hat <= 3.0 - 2.0 * m_hat + _TOL
    bht_ext = k_hat + m_hat - 1.0
    chained_valid = k_hat <= min(2.0 - m_hat, m_hat / 4.0) + _TOL
    chained_ext = k_hat + m_hat / 4.0
    prior_best = min(
        base if bht_valid else bht_ext,
        base if chained_valid else chained_ext,
    )
    return RegimePoint(this_paper=base, prior_best=prior_best)


def region_grid(step: float) -> List[Tuple[float, float, float, float, bool]]:
    """Rows (m_hat, k_hat, prior_best, this_paper, improved) over the range.

    The grid walks m_hat from 1 to 2 and k_hat from 0 to 2 - m_hat in the
    given step.  Grid coordinates are built from integer multiples of the
    step so boundary membership is stable.
    """
    require_real(step=step)
    if not (0.0 < step <= 0.1):
        raise ParameterError(f"step must lie in (0, 0.1], got {step}")
    m_steps = int(round(1.0 / step))
    rows = []
    for i in range(m_steps + 1):
        m_hat = 1.0 + i * step
        k_cap = 2.0 - m_hat
        k_steps = int(round(k_cap / step + _TOL))
        for j in range(k_steps + 1):
            k_hat = j * step
            if k_hat > k_cap + _TOL:
                break
            point = evaluate(m_hat, min(k_hat, k_cap))
            rows.append(
                (m_hat, k_hat, point.prior_best, point.this_paper, point.improved)
            )
    return rows


def tradeoff_curve(m_hat: float, k_hat: float, steps: int) -> List[TradeoffPoint]:
    """Memory-time curve k_hat + m_hat/2 - ell_hat/2 for ell_hat up to the optimum."""
    _validate_point(m_hat, k_hat)
    require_int(steps=steps)
    if steps < 1:
        raise ParameterError("steps must be positive")
    ell_max = 2.0 * k_hat / 3.0 + m_hat / 3.0
    points = []
    for i in range(steps + 1):
        ell_hat = ell_max * i / steps
        points.append(
            TradeoffPoint(
                ell_hat=ell_hat,
                time_exponent=k_hat + m_hat / 2.0 - ell_hat / 2.0,
            )
        )
    return points
