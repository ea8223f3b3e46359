"""Revenue-optimal threshold mechanisms under a return-on-investment target.

For target ratio M over a DMR distribution the optimizer is a power ramp
(v / D)^(1/(M-1)) capped at one from the threshold D on. The threshold makes
the weighted integral of the marginal-revenue curve vanish:

    H(D) = integral_0^D psi(v) v^(1/(M-1)) dv = 0,  psi(v) = v f(v) + F(v) - 1.

All root finding happens on the rescaled form G(D) = H(D) / D^(c+1) with
c = 1 / (M - 1), i.e. G(D) = integral_0^1 psi(D s) s^c ds; unlike H it does
not underflow as M -> 1, and the revenue derivative is its fixed multiple
-(c + 1) G(D), so the bisected sign is the quantity that actually matters.

G is exact, not quadrature: every distribution lowers psi to pieces of power
terms a (v / vmax)^e (``ValueDistribution.psi_pieces``), which in s = v / D
are a (D / vmax)^e s^e, and G is their product with the one-piece weight s^c
on [0, D], summed in closed-form moments by ``numerics.power_product_integral``.
No step of this depends on how steep the weight s^c is, so ratios near 1
need no special path.

The shape checks a solution must pass are ``audit.structural_audit``; this
module builds on ``revenue`` and imports nothing from ``audit``.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .allocation import make_power_ramp
from .distributions import ValueDistribution
from .errors import ConstructionError, DomainError, PreconditionError, QuadratureError
from .numerics import Pieces, bisect_root, power_product_integral
from .payments import DEFAULT_GRID_N, PaymentSchedule, RoiTarget, payment_schedule
from .revenue import expected_revenue_quadrature

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class BoundaryCase(enum.Enum):
    INTERIOR_ROOT = "interior_root"
    FULL_SUPPORT = "full_support"


def _scaled_integral(dist: ValueDistribution, m: RoiTarget, threshold: float) -> float:
    """G(threshold) = integral_0^1 psi(threshold * s) s^c ds, from exact piece moments."""
    c = np.full((1, 1), 1.0 / (m.ratio - 1.0))
    weight = Pieces(np.zeros(1), np.full(1, threshold), np.ones((1, 1)), c)
    return power_product_integral(weight, dist.psi_pieces(), threshold, threshold / dist.vmax)


def threshold_integral(dist: ValueDistribution, m: RoiTarget, upper: float) -> float:
    """H(upper) = integral_0^upper psi(v) v^(1/(ratio-1)) dv."""
    if not 0.0 <= upper <= dist.vmax * (1.0 + 1e-12):
        raise DomainError(f"upper limit {upper!r} outside [0, {dist.vmax}]")
    if upper <= 0.0:
        return 0.0
    c = 1.0 / (m.ratio - 1.0)
    return upper ** (c + 1.0) * _scaled_integral(dist, m, upper)


def solve_threshold(
    dist: ValueDistribution, m: RoiTarget, tol: float = 1e-9
) -> tuple[float, BoundaryCase]:
    """Threshold where the weighted marginal-revenue integral vanishes.

    Refuses non-DMR inputs: without a monotone weighted curve the sign of G
    no longer brackets a unique root and the ramp is not optimal. Stops when
    the bracket is below tol * vmax and |G(mid)| (mid / vmax)^(c+1), the
    residual |H(mid)| / vmax^(c+1), is at most tol, so values scaled by 2^k
    give the threshold times 2^k bitwise. Once no float lies strictly inside
    the bracket (a tol below float resolution), its midpoint is returned if
    its residual is at most tol, and a QuadratureError raised if not. A vmax
    whose power c + 1 overflows, so that H itself cannot be reported, is a
    DomainError; a tol that is not positive and finite is a ConstructionError.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConstructionError(f"solver tolerance must be positive and finite, got {tol!r}")
    report = dist.check_dmr()
    if not report.passed:
        raise PreconditionError(
            "threshold solver needs non-decreasing marginal revenue; " + report.summary(),
            report=report,
        )
    vmax = dist.vmax
    c = 1.0 / (m.ratio - 1.0)
    if (c + 1.0) * math.log(vmax) > _LOG_FLOAT_MAX:
        # H = D^(c+1) G(D), which threshold_integral reports, needs a finite scale
        raise DomainError(
            f"vmax**(1 + 1/(ratio - 1)) overflows a float (vmax={vmax!r}, "
            f"ratio={m.ratio!r}); rescale the values"
        )
    if dist.marginal_revenue(0.0) >= 0.0:
        # F(0) = 0 forces the curve to start at -1; anything else is degenerate
        raise PreconditionError("marginal revenue must start negative at v = 0")
    g_top = _scaled_integral(dist, m, vmax)
    if not math.isfinite(g_top):
        raise DomainError(f"the power terms of v f(v) + F(v) - 1 overflow a float (vmax={vmax!r})")
    if g_top <= 0.0:
        return vmax, BoundaryCase.FULL_SUPPORT
    if dist.marginal_revenue(vmax) <= 0.0:
        return vmax, BoundaryCase.FULL_SUPPORT
    lo = bisect_root(dist.marginal_revenue, 0.0, vmax, x_tol=1e-13 * vmax)
    hi = vmax
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = _scaled_integral(dist, m, mid)
        residual = g_mid * (mid / vmax) ** (c + 1.0)
        # with no float strictly inside the bracket, this midpoint is the last
        last = not lo < mid < hi
        if g_mid > 0.0:
            hi = mid
        else:
            lo = mid
        if (last or hi - lo <= 0.5 * tol * vmax) and abs(residual) <= tol:
            return mid, BoundaryCase.INTERIOR_ROOT
        if last:
            break
    raise QuadratureError(
        f"threshold residual stalled at {residual:.3e} (target {tol:.3e})",
        achieved_tol=abs(residual),
    )


@dataclass(frozen=True, eq=False)
class OptimalSolution:
    """Solved threshold plus the mechanism built from it, its payment ``schedule``."""

    threshold: float
    boundary_case: BoundaryCase
    schedule: PaymentSchedule
    expected_revenue: float


def optimal_mechanism(
    dist: ValueDistribution,
    m: RoiTarget,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = 1e-9,
) -> OptimalSolution:
    """Solve for the threshold and assemble the capped power-ramp mechanism."""
    threshold, case = solve_threshold(dist, m, tol=tol)
    rule = make_power_ramp(threshold, m.ratio, dist.vmax)
    schedule = payment_schedule(rule, m, grid_n)
    revenue = expected_revenue_quadrature(schedule, dist).mean
    return OptimalSolution(
        threshold=threshold,
        boundary_case=case,
        schedule=schedule,
        expected_revenue=revenue,
    )
