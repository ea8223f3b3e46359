"""Truthful payments for bidders with a hard ex post return constraint.

Write p~(v) = v x(v) - integral_0^v x(z) dz for the classical envelope payment
of a monotone rule. A bidder who must earn ``ratio`` times any payment accepts
p(v) = ratio * p~(v) - rebate(v), where the rebate is the largest constraint
violation left at lower reports:

    rebate(v) = max_{0 <= z <= v} [ ratio * p~(z) - z x(z) ].

The kernel ``_envelope`` gives x, p~ and the violation g = ratio p~ - v x for
every payment here. The max runs over a candidate set: a uniform grid, every
segment endpoint (right-continuous, so post-jump values are included), the
stationary points of g on linear pieces, and the query point itself; this
makes the rebate exact for all structured shapes. One running max R of g
(``schedule_on``) gives a schedule, with p = v x - (R - g): exactly v x where
g is its own running max, and never above v x in floating point.

Ratio limit: g and R grow like ratio * vmax, so for ratios of 100 and more the
payment error is up to about ratio 2^-52 vmax (tested below twice that); at
ratio 1e8 on [0, 1] it exceeds the audits' 1e-9 characterization tolerance.
From ratio 2^51 on that bound is vmax itself, the whole payment range, so
``RoiTarget`` refuses such ratios.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import IO

import numpy as np

from .allocation import AllocationRule
from .errors import ConstructionError
from .formatting import fmt

DEFAULT_GRID_N = 10_001

#: Feasibility slack for the hard constraint v * x >= p, fixed package-wide.
FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class RoiTarget:
    """Return multiple demanded by the bidder; must satisfy 1 < ratio < 2^51."""

    ratio: float

    def __post_init__(self):
        ok = (
            isinstance(self.ratio, (int, float))
            and not isinstance(self.ratio, bool)
            and math.isfinite(self.ratio)
            and self.ratio > 1.0
        )
        if not ok:
            raise ConstructionError(f"ROI ratio must satisfy 1 < ratio < inf, got {self.ratio!r}")
        # from here the payment error bound 2 ratio 2^-52 vmax is vmax itself
        if self.ratio >= 2.0**51:
            raise ConstructionError(
                "ROI ratio must be below 2**51; payments from there keep no correct digit, "
                f"got {self.ratio!r}"
            )
        object.__setattr__(self, "ratio", float(self.ratio))


def _envelope(rule: AllocationRule, ratio: float, v, side: str = "right"):
    """(x, p~, g) at v: the allocation, the envelope payment v x - integral_0^v x,
    and the violation g = ratio * p~ - v x; ``side="left"`` takes x's left limits."""
    x = rule.left_value(v) if side == "left" else rule.evaluate(v)
    vx = v * x
    pt = vx - rule.prefix_integral(v)
    return x, pt, ratio * pt - vx


def myerson_payment(rule: AllocationRule, v):
    """Envelope payment v x(v) - integral_0^v x, exact via prefix integrals."""
    return _envelope(rule, 1.0, v)[1]


def roi_violation(rule: AllocationRule, m: RoiTarget, z):
    """ratio * p~(z) - z x(z); positive where scaled envelope payments break even."""
    return _envelope(rule, m.ratio, z)[2]


@lru_cache(maxsize=128)
def _candidate_grid(rule: AllocationRule, ratio: float, grid_n: int) -> np.ndarray:
    if grid_n < 2:
        raise ConstructionError("payment grids need at least two points")
    uniform = np.linspace(0.0, rule.vmax, grid_n)
    return np.unique(np.concatenate([uniform, rule.knots(), rule.stationary_candidates(ratio)]))


def schedule_on(rule: AllocationRule, m: RoiTarget, grid: np.ndarray) -> PaymentSchedule:
    """Derived payments on an increasing grid from 0, via one running-max sweep."""
    x, pt, g = _envelope(rule, m.ratio, grid)
    reb = np.maximum.accumulate(g)
    return PaymentSchedule(
        grid=grid,
        allocations=x,
        myerson=pt,
        rebates=reb,
        payments=grid * x - (reb - g),
        allocation=rule,
        m=m,
        derived=True,
    )


def payment_schedule(
    rule: AllocationRule, m: RoiTarget, grid_n: int = DEFAULT_GRID_N
) -> PaymentSchedule:
    """Payments on the candidate grid: uniform points, knots and stationary points."""
    return schedule_on(rule, m, _candidate_grid(rule, m.ratio, grid_n))


@dataclass(frozen=True, eq=False)
class PaymentSchedule:
    """A mechanism: an allocation rule, its ROI target and the payments it charges.

    Audits, revenue estimators and the CLI all take this one type. The payments
    are sampled on ``grid``; a derived schedule holds the truthful ones.

    ``derived`` schedules evaluate off-grid payments by exact recomputation
    (the running max is a prefix of the stored sweep, plus the query point);
    hand-supplied schedules interpolate their stored grid instead.
    """

    grid: np.ndarray
    allocations: np.ndarray
    myerson: np.ndarray
    rebates: np.ndarray
    payments: np.ndarray
    allocation: AllocationRule
    m: RoiTarget
    derived: bool = True

    def _sweep(self, a: np.ndarray, side: str = "right"):
        """(x, g, R) at a: R joins g with the stored sweep's running max below a
        (up to and including a when side is "right")."""
        x, _, g = _envelope(self.allocation, self.m.ratio, a, side)
        idx = np.searchsorted(self.grid, a, side=side) - 1
        prev = np.where(idx >= 0, self.rebates[np.maximum(idx, 0)], 0.0)
        return x, g, np.maximum(np.maximum(prev, g), 0.0)

    def value_many(self, vs, side: str = "right") -> np.ndarray:
        a = np.atleast_1d(np.asarray(vs, dtype=float))
        if not self.derived:
            return np.interp(a, self.grid, self.payments)
        x, g, reb = self._sweep(a, side)
        return a * x - (reb - g)

    def value_at(self, v: float, side: str = "right") -> float:
        return float(self.value_many(np.asarray([v]), side=side)[0])

    def rebate_at(self, v: float) -> float:
        if not self.derived:
            raise ConstructionError("rebates of a hand-supplied schedule are not defined")
        return float(self._sweep(np.asarray([v], dtype=float))[2][0])

    def with_payments(self, payments: np.ndarray) -> PaymentSchedule:
        """Copy with replaced payment values; the result interpolates, never recomputes."""
        new = np.asarray(payments, dtype=float)
        if new.shape != self.grid.shape:
            raise ConstructionError("replacement payments must match the grid length")
        return replace(self, payments=new, derived=False)

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def write_csv(self, fp: IO[str]) -> None:
        fp.write("v,x,p_myerson,p_roi,rebate\n")
        for v, x, pm, pr, rb in zip(
            self.grid, self.allocations, self.myerson, self.payments, self.rebates
        ):
            fp.write(f"{fmt(v)},{fmt(x)},{fmt(pm)},{fmt(pr)},{fmt(rb)}\n")
