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
makes the rebate exact for all structured shapes. A derived schedule is its
(rule, target) pair: ``payment_schedule`` and ``schedule_on`` check it when
they build it, and it is sampled on its grid on first read, by one running max
R of g, with p = v x - (R - g): exactly v x where g is its own running max,
and never above v x in floating point.

Ratio limit: g and R grow like ratio * vmax, so for ratios of 100 and more the
payment error is up to about ratio 2^-52 vmax (tested below twice that); at
ratio 1e8 on [0, 1] it exceeds the audits' 1e-9 characterization tolerance.
From ratio 2^51 on that bound is vmax itself, the whole payment range, so
``RoiTarget`` refuses such ratios. Payments stay within (ratio + 1) vmax in
magnitude, so a derived schedule refuses a rule and ratio where that passes
half the float range.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import IO, Callable

import numpy as np

from .allocation import AllocationRule
from .errors import ConstructionError

DEFAULT_GRID_N = 10_001

# rows per write in ``write_csv``: one %-format call each, so the text of a
# whole schedule is never held at once
_CSV_BLOCK_ROWS = 1024

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


def _envelope(rule: AllocationRule, ratio: float, v):
    """(x, p~, g) at v: the allocation, the envelope payment v x - integral_0^v x,
    and the violation g = ratio * p~ - v x."""
    x, area = rule._value_and_integral(v)
    vx = v * x
    pt = vx - area
    return x, pt, ratio * pt - vx


@lru_cache(maxsize=128)
def _candidate_grid(rule: AllocationRule, ratio: float, grid_n: int) -> np.ndarray:
    uniform = np.linspace(0.0, rule.vmax, grid_n)
    return np.unique(np.concatenate([uniform, rule.knots(), rule.stationary_candidates(ratio)]))


def schedule_on(rule: AllocationRule, m: RoiTarget, grid: np.ndarray) -> PaymentSchedule:
    """Derived payments on an increasing grid from 0, sampled on first read."""
    return PaymentSchedule(rule, m, lambda: grid)


def payment_schedule(
    rule: AllocationRule, m: RoiTarget, grid_n: int = DEFAULT_GRID_N
) -> PaymentSchedule:
    """Payments on the candidate grid: uniform points, knots and stationary points."""
    if grid_n < 2:
        raise ConstructionError("payment grids need at least two points")
    try:
        # the grid is built on first read; a size no array can take is refused here
        np.empty(grid_n)
    except (ValueError, MemoryError):
        raise ConstructionError(f"cannot hold a {grid_n}-point payment grid in memory") from None
    return PaymentSchedule(rule, m, partial(_candidate_grid, rule, m.ratio, grid_n))


@dataclass(frozen=True, eq=False)
class PaymentSchedule:
    """A mechanism: an allocation rule, its ROI target and the payments it charges.

    Audits, revenue estimators and the CLI all take this one type. A derived
    schedule holds the truthful payments: it is its (rule, target) pair, plus
    ``make_grid``, the grid it is sampled on. Its columns ``grid``,
    ``allocations``, ``myerson``, ``rebates`` and ``payments`` come from one
    running-max sweep on first read and are kept; the exact revenue reads only
    the rule and the target, so it never samples them. Off-grid payments are
    exact recomputations (the running max is a prefix of the sweep, plus the
    query point). A hand-supplied schedule (``hand``, ``with_payments``) holds
    explicit columns and interpolates its grid instead.
    """

    allocation: AllocationRule
    m: RoiTarget
    make_grid: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        # with x in [0, 1], g, R - g and p = v x - (R - g) stay within (ratio + 1) vmax;
        # keep that a factor 2 inside the float range, for the revenue sums built on it
        ratio, vmax = self.m.ratio, self.allocation.vmax
        if self.derived and not (ratio + 1.0) * vmax <= sys.float_info.max / 2.0:
            raise ConstructionError(
                f"ROI ratio {ratio!r} times vmax {vmax!r} leaves the float range; "
                "payments would overflow"
            )

    @classmethod
    def hand(cls, allocation, m, grid, allocations, myerson, rebates, payments) -> PaymentSchedule:
        """A hand-supplied schedule with these columns."""
        sched = cls(allocation, m)
        object.__setattr__(sched, "_columns", (grid, allocations, myerson, rebates, payments))
        return sched

    @property
    def derived(self) -> bool:
        return self.make_grid is not None

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """(grid, x, p~, R, p) of a derived schedule, by one running-max sweep."""
        grid = self.make_grid()
        x, pt, g = _envelope(self.allocation, self.m.ratio, grid)
        reb = np.maximum.accumulate(g)
        return grid, x, pt, reb, grid * x - (reb - g)

    grid = property(lambda self: self._columns[0])
    allocations = property(lambda self: self._columns[1])
    myerson = property(lambda self: self._columns[2])
    rebates = property(lambda self: self._columns[3])
    payments = property(lambda self: self._columns[4])

    def _sweep(self, a: np.ndarray):
        """(x, g, R) at a: R joins g with the stored sweep's running max up to a."""
        x, _, g = _envelope(self.allocation, self.m.ratio, a)
        idx = np.searchsorted(self.grid, a, side="right") - 1
        prev = np.where(idx >= 0, self.rebates[np.maximum(idx, 0)], 0.0)
        return x, g, np.maximum(np.maximum(prev, g), 0.0)

    def value_many(self, vs) -> np.ndarray:
        a = np.atleast_1d(np.asarray(vs, dtype=float))
        if not self.derived:
            return np.interp(a, self.grid, self.payments)
        x, g, reb = self._sweep(a)
        return a * x - (reb - g)

    def value_at(self, v: float) -> float:
        return float(self.value_many(np.asarray([v]))[0])

    def rebate_at(self, v: float) -> float:
        if not self.derived:
            raise ConstructionError("rebates of a hand-supplied schedule are not defined")
        return float(self._sweep(np.asarray([v], dtype=float))[2][0])

    def with_payments(self, payments: np.ndarray) -> PaymentSchedule:
        """Copy with replaced payment values; the result interpolates, never recomputes."""
        new = np.asarray(payments, dtype=float)
        if new.shape != self.grid.shape:
            raise ConstructionError("replacement payments must match the grid length")
        return PaymentSchedule.hand(self.allocation, self.m, *self._columns[:4], new)

    def columns(self) -> dict[str, np.ndarray]:
        """The output columns by name, in CSV order."""
        return {
            "v": self.grid,
            "x": self.allocations,
            "p_myerson": self.myerson,
            "p_roi": self.payments,
            "rebate": self.rebates,
        }

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def write_csv(self, fp: IO[str]) -> None:
        """The ``columns`` at 12 significant digits (``cli.fmt``'s spec), one
        %-formatted block of rows per write."""
        cols = self.columns()
        fp.write(",".join(cols) + "\n")
        row = ",".join(["%.12g"] * len(cols)) + "\n"
        rows = np.column_stack(tuple(cols.values()))
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            fp.write(row * len(block) % tuple(block.ravel().tolist()))
