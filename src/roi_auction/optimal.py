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
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .allocation import make_power_ramp
from .audit import AuditCheck, AuditReport, _verdict
from .distributions import ValueDistribution
from .errors import ConstructionError, DomainError, PreconditionError, QuadratureError
from .numerics import bisect_root, power_product_integral
from .payments import DEFAULT_GRID_N, PaymentSchedule, RoiTarget, _envelope, payment_schedule
from .revenue import expected_revenue_quadrature

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

#: Grid and pass tolerance of structural_audit's shape checks.
STRUCTURAL_GRID_N = 2001
STRUCTURAL_TOL = 1e-7


class BoundaryCase(enum.Enum):
    INTERIOR_ROOT = "interior_root"
    FULL_SUPPORT = "full_support"


def _scaled_integral(dist: ValueDistribution, m: RoiTarget, threshold: float) -> float:
    """G(threshold) = integral_0^1 psi(threshold * s) s^c ds, from exact piece moments."""
    weight = ((0.0, threshold, ((1.0, 1.0 / (m.ratio - 1.0)),)),)
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


def structural_audit(sol: OptimalSolution, dist: ValueDistribution) -> AuditReport:
    """Shape checks any optimizer must satisfy, applied to a candidate solution.

    Each check passes within ``STRUCTURAL_TOL`` on a ``STRUCTURAL_GRID_N``-point
    grid plus the rule's knots. Flat detection works on forward-difference
    slopes, so a ramp steeper than the tolerance per cell everywhere (true for
    ratio >= 1.5 on these grids) is never mistaken for a plateau.
    """
    tol = STRUCTURAL_TOL
    sched = sol.schedule
    rule = sched.allocation
    ratio = sched.m.ratio
    vmax = rule.vmax
    threshold = min(sol.threshold, vmax)
    grid = np.unique(
        np.concatenate([np.linspace(0.0, vmax, STRUCTURAL_GRID_N), np.asarray(rule.knots()), [threshold]])
    )
    x, _, cap = _envelope(rule, ratio, grid)
    p = sched.value_many(grid)
    checks = [_verdict("payment_cap", cap, tol, lambda i: {"v": float(grid[i])})]

    slopes = np.abs(np.diff(x)) / np.diff(grid)
    slope_at = np.append(slopes, slopes[-1])
    tight = np.abs(p - grid * x)
    vio = np.minimum(slope_at, tight)
    i = int(np.argmax(vio))
    worst = float(vio[i])
    checks.append(
        AuditCheck(
            "first_price_or_flat",
            worst <= tol,
            worst,
            {"v": float(grid[i])} if worst > tol else None,
        )
    )

    flat = slopes <= tol
    n_runs = int(np.sum(flat[1:] & ~flat[:-1])) + int(flat[0] if flat.size else False)
    ends_at_top = bool(flat[-1]) if flat.size else True
    tail_ok = n_runs == 0 or (n_runs == 1 and ends_at_top)
    checks.append(
        AuditCheck(
            "single_flat_tail",
            tail_ok,
            0.0 if tail_ok else float(n_runs - int(ends_at_top)),
            None if tail_ok else {"flat_runs": n_runs, "ends_at_vmax": ends_at_top},
        )
    )

    x_at_threshold = float(rule.evaluate(threshold))
    below = grid <= threshold * (1.0 + 1e-15)
    if threshold > 0.0:
        expected = (grid[below] / threshold) ** (1.0 / (ratio - 1.0)) * x_at_threshold
    else:
        expected = np.full(int(np.sum(below)), x_at_threshold)
    dev = np.abs(x[below] - expected)
    i = int(np.argmax(dev)) if dev.size else 0
    worst = float(dev[i]) if dev.size else 0.0
    checks.append(
        AuditCheck(
            "power_ramp_shape",
            worst <= tol,
            worst,
            {"v": float(grid[below][i])} if worst > tol else None,
        )
    )

    worst = abs(x_at_threshold - 1.0)
    checks.append(
        AuditCheck(
            "full_allocation_at_threshold",
            worst <= tol,
            worst,
            {"x_at_threshold": x_at_threshold} if worst > tol else None,
        )
    )

    if sol.boundary_case is BoundaryCase.INTERIOR_ROOT:
        residual = abs(threshold_integral(dist, sched.m, threshold))
        checks.append(
            AuditCheck(
                "threshold_stationarity",
                residual <= tol,
                residual,
                {"threshold": threshold} if residual > tol else None,
            )
        )
    else:
        # at the boundary the integral need not vanish, only point the right way
        checks.append(AuditCheck("threshold_stationarity", True, 0.0, None))
    return AuditReport(tuple(checks))
