"""Truthful payments for bidders with a hard ex post return constraint.

Write p~(v) = v x(v) - integral_0^v x(z) dz for the classical envelope payment
of a monotone rule. A bidder who must earn ``ratio`` times any payment accepts
p(v) = ratio * p~(v) - rebate(v), where the rebate is the largest constraint
violation left at lower reports:

    rebate(v) = max_{0 <= z <= v} [ ratio * p~(z) - z x(z) ].

This is the one module that knows how a schedule pays. A derived schedule,
``PaymentSchedule(rule, m, grid_n)``, charges these payments. The kernel
``_envelope`` gives x, p~ and the violation g = ratio p~ - v x. On first read
they are sampled on a candidate grid (``grid_n`` uniform points, every segment
endpoint, right-continuous, and the stationary points of g on linear pieces),
and one running max R of g gives p = v x - (R - g): exactly v x where g is its
own running max, and never above v x in floating point. An off-grid payment
joins the query point to that running max, so the rebate is exact for all
structured shapes. A hand schedule, ``PaymentSchedule.hand(rule, m, grid,
payments)``, holds only its grid and payments and charges their interpolant.
``PaymentSchedule.pieces`` gives either kind's payment as power terms in
t = v / vmax for the exact revenue: a derived one is cut where the running max
switches between tight (p = v x) and flat (p = ratio p~ - R), so it never
samples the grid, and a hand one is its interpolant.

Ratio limit: g and R grow like ratio * vmax, so for ratios of 100 and more the
payment error is up to about ratio 2^-52 vmax (tested below twice that); at
ratio 1e8 on [0, 1] it exceeds the audits' 1e-9 characterization tolerance.
From ratio 2^51 on that bound is vmax itself, the whole payment range, so
``RoiTarget`` refuses such ratios. Payments stay within (ratio + 1) vmax in
magnitude, so a schedule of either kind refuses a rule and ratio where that
passes half the float range.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import IO

import numpy as np

from .allocation import AllocationRule
from .errors import ConstructionError
from .numerics import PowerPiece

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
    grid = np.unique(np.concatenate([uniform, rule.knots(), rule.stationary_candidates(ratio)]))
    # every schedule with this rule, ratio and size shares the array
    grid.flags.writeable = False
    return grid


def payment_schedule(
    rule: AllocationRule, m: RoiTarget, grid_n: int = DEFAULT_GRID_N
) -> PaymentSchedule:
    """The derived schedule on the candidate grid: uniform points, knots and stationary points."""
    return PaymentSchedule(rule, m, grid_n)


@dataclass(frozen=True, eq=False)
class PaymentSchedule:
    """A mechanism: an allocation rule, its ROI target and the payments it charges.

    Audits, revenue estimators and the CLI all take this one type. A derived
    schedule (``grid_n`` set) is its (rule, target) pair; its columns
    ``grid``, ``allocations``, ``myerson``, ``rebates`` and ``payments`` come
    from one running-max sweep on first read and are kept. A hand schedule
    (``hand``) holds only ``grid`` and ``payments``; its other columns,
    ``rebate_at``, ``columns`` and ``write_csv`` raise ``ConstructionError``.
    """

    allocation: AllocationRule
    m: RoiTarget
    grid_n: int | None

    def __post_init__(self):
        if self.derived:
            if self.grid_n < 2:
                raise ConstructionError("payment grids need at least two points")
            try:
                # the grid is built on first read; a size no array can take is refused here
                np.empty(self.grid_n)
            except (ValueError, MemoryError):
                raise ConstructionError(
                    f"cannot hold a {self.grid_n}-point payment grid in memory"
                ) from None
        # with x in [0, 1], g, R - g and p = v x - (R - g) stay within (ratio + 1) vmax;
        # keep that a factor 2 inside the float range, for the revenue sums built on it
        ratio, vmax = self.m.ratio, self.allocation.vmax
        if not (ratio + 1.0) * vmax <= sys.float_info.max / 2.0:
            raise ConstructionError(
                f"ROI ratio {ratio!r} times vmax {vmax!r} leaves the float range; "
                "payments would overflow"
            )

    @classmethod
    def hand(cls, allocation, m, grid, payments) -> PaymentSchedule:
        """A hand-supplied schedule: these payments on this grid, interpolated."""
        sched = cls(allocation, m, None)
        grid = np.asarray(grid, dtype=float)
        payments = np.asarray(payments, dtype=float)
        if payments.shape != grid.shape:
            raise ConstructionError("hand-supplied payments must match the grid length")
        object.__setattr__(sched, "_hand", (grid, payments))
        return sched

    @property
    def derived(self) -> bool:
        return self.grid_n is not None

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """(grid, x, p~, R, p) of a derived schedule, by one running-max sweep."""
        if not self.derived:
            raise ConstructionError(
                "a hand-supplied schedule holds only its grid and payments; "
                "its allocations, Myerson payments and rebates are not defined"
            )
        grid = _candidate_grid(self.allocation, self.m.ratio, self.grid_n)
        x, pt, g = _envelope(self.allocation, self.m.ratio, grid)
        reb = np.maximum.accumulate(g)
        return grid, x, pt, reb, grid * x - (reb - g)

    grid = property(lambda self: self._columns[0] if self.derived else self._hand[0])
    allocations = property(lambda self: self._columns[1])
    myerson = property(lambda self: self._columns[2])
    rebates = property(lambda self: self._columns[3])
    payments = property(lambda self: self._columns[4] if self.derived else self._hand[1])

    def _sweep(self, a: np.ndarray):
        """(x, g, R) at a: R joins g with the stored sweep's running max up to a."""
        grid, rebates = self.grid, self.rebates
        x, _, g = _envelope(self.allocation, self.m.ratio, a)
        idx = np.searchsorted(grid, a, side="right") - 1
        prev = np.where(idx >= 0, rebates[np.maximum(idx, 0)], 0.0)
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
        return float(self._sweep(np.asarray([v], dtype=float))[2][0])

    def pieces(self) -> list[PowerPiece]:
        """The payment as power terms in t = v / vmax, as ``value_many`` charges it."""
        if self.derived:
            return _payment_pieces(self)
        return _interpolant_pieces(self, self.allocation.vmax)

    def columns(self) -> dict[str, np.ndarray]:
        """The output columns by name, in CSV order."""
        return {
            "v": self.grid,
            "x": self.allocations,
            "p_myerson": self.myerson,
            "p_roi": self.payments,
            "rebate": self.rebates,
        }

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


def _payment_pieces(sched: PaymentSchedule) -> list[PowerPiece]:
    """Truthful payments of a derived schedule as power terms in t = v / vmax.

    On a rule piece x = sum a t^e, with C = integral_0^lo x, the envelope
    payment is p~ = sum vmax a e / (e + 1) t^(e+1) + K, K = sum vmax a
    (lo / vmax)^(e+1) / (e + 1) - C, and the violation is g = ratio p~ - v x. The
    pieces are cut at the rule's stationary candidates, so g is monotone on
    each; a left-to-right pass carries the running max R of g (from g(0) = 0)
    and splits a rising piece where g crosses R. Where g is the max the piece
    is tight, p = v x; elsewhere it is flat, p = ratio p~ - R.
    """
    rule = sched.allocation
    ratio = sched.m.ratio
    vmax = rule.vmax
    pieces = rule.pieces()
    below = rule.prefix_integral(np.asarray([lo for lo, _, _ in pieces]))
    stationary = rule.stationary_candidates(ratio)
    out: list[PowerPiece] = []
    best = 0.0
    for (lo, hi, terms), area in zip(pieces, below):
        terms = [(a, e) for a, e in terms if a != 0.0]
        t0 = lo / vmax
        env0 = sum(vmax * a * t0 ** (e + 1.0) / (e + 1.0) for a, e in terms) - float(area)
        tight = tuple((vmax * a, e + 1.0) for a, e in terms)
        flat = [(ratio * vmax * a * e / (e + 1.0), e + 1.0) for a, e in terms if e != 0.0]
        g = [(vmax * a * (ratio * e / (e + 1.0) - 1.0), e + 1.0) for a, e in terms]
        g = [(c, q) for c, q in g if c != 0.0]
        inner = stationary[bisect.bisect_right(stationary, lo):bisect.bisect_left(stationary, hi)]
        for l, u in zip((lo, *inner), (*inner, hi)):
            g_l = ratio * env0 + sum(c * (l / vmax) ** q for c, q in g)
            g_u = ratio * env0 + sum(c * (u / vmax) ** q for c, q in g)
            start = max(best, g_l)
            if g_u <= start:
                out.append((l, u, (*flat, (ratio * env0 - start, 0.0))))
                best = start
                continue
            if g_l < best:
                cross = _rising_root(g, ratio * env0 - best, l, u, vmax)
                out.append((l, cross, (*flat, (ratio * env0 - best, 0.0))))
                l = cross
            out.append((l, u, tight))
            best = g_u
    return out


def _rising_root(
    terms: list[tuple[float, float]], const: float, lo: float, hi: float, vmax: float
) -> float:
    """The v in [lo, hi] where const + sum c (v / vmax)^q rises through zero.

    Rule pieces give either one term (power segments, constants) or the
    exponents 1 and 2 (linear segments and table cells).
    """
    if len(terms) == 1:
        (c, q), = terms
        t = max(-const / c, 0.0) ** (1.0 / q)
    else:
        by_q = {q: c for c, q in terms}
        c1, c2 = by_q[1.0], by_q[2.0]
        # the rising root is the one where 2 c2 t + c1 = +sqrt(disc); take
        # whichever of its two forms does not cancel
        root = math.sqrt(max(c1 * c1 - 4.0 * c2 * const, 0.0))
        t = -2.0 * const / (c1 + root) if c1 >= 0.0 else (root - c1) / (2.0 * c2)
    return min(max(vmax * t, lo), hi)


def _interpolant_pieces(sched: PaymentSchedule, vmax: float) -> list[PowerPiece]:
    """A hand-supplied schedule as value_many reads it: linear between grid
    points, flat outside them."""
    grid = [float(v) for v in sched.grid]
    pays = [float(p) for p in sched.payments]
    out: list[PowerPiece] = []
    if grid[0] > 0.0:
        out.append((0.0, grid[0], ((pays[0], 0.0),)))
    for va, vb, pa, pb in zip(grid[:-1], grid[1:], pays[:-1], pays[1:]):
        slope = (pb - pa) / (vb - va)
        out.append((va, vb, ((pa - slope * va, 0.0), (slope * vmax, 1.0))))
    if grid[-1] < vmax:
        out.append((grid[-1], vmax, ((pays[-1], 0.0),)))
    return out
