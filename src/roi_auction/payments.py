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
payments)``, holds only its grid and payments and charges their interpolant;
it refuses a grid that does not rise strictly from 0 within vmax, and
payments or slopes that are not finite.
``PaymentSchedule.pieces`` gives either kind's payment as ``numerics.Pieces``
in t = v / vmax for the exact revenue, and never samples the grid. A derived
one comes from one array walk over the rule's ``pieces``: g at every sub-piece
end, one running max over them, and a cut wherever that max switches between
tight (p = v x) and flat (p = ratio p~ - R). A hand one is its interpolant.

Ratio limit: g and R grow like ratio * vmax, so for ratios of 100 and more the
payment error is up to about ratio 2^-52 vmax (tested below twice that); at
ratio 1e8 on [0, 1] it exceeds the audits' 1e-9 characterization tolerance.
From ratio 2^51 on that bound is vmax itself, the whole payment range, so
``RoiTarget`` refuses such ratios. Payments stay within (ratio + 1) vmax in
magnitude, so a schedule of either kind refuses a rule and ratio where that
passes half the float range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import IO

import numpy as np

from .allocation import AllocationRule
from .errors import ConstructionError
from .numerics import Pieces

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
        """A hand-supplied schedule: these payments on this grid, interpolated.

        The grid must rise strictly from 0 to at most vmax, up to the rule's
        own slack of 1e-12 max(1, vmax), and the payments must be finite,
        with a finite slope between each pair of neighbours.
        """
        grid = np.asarray(grid, dtype=float)
        payments = np.asarray(payments, dtype=float)
        if grid.ndim != 1 or payments.shape != grid.shape or grid.size < 2:
            raise ConstructionError("schedule arrays must share a length of at least 2")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(payments))):
            raise ConstructionError("schedule grid and payments must be finite numbers")
        rises = np.diff(grid)
        # the rule itself is defined that far past vmax, and a derived grid can reach it
        top = allocation.vmax + 1e-12 * max(1.0, allocation.vmax)
        if grid[0] != 0.0 or np.any(rises <= 0.0) or grid[-1] > top:
            raise ConstructionError("schedule grid must increase strictly from 0 within [0, vmax]")
        with np.errstate(over="ignore"):
            slopes = np.diff(payments) / rises
        if not np.all(np.isfinite(slopes)):
            # the schedule is interpolated between its points, so each slope must be a float
            raise ConstructionError(
                "schedule payments change too fast between grid points to interpolate"
            )
        sched = cls(allocation, m, None)
        object.__setattr__(sched, "_hand", (grid, payments, slopes))
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

    def pieces(self) -> Pieces:
        """The payment as power terms in t = v / vmax, as ``value_many`` charges it.

        A derived schedule's come from one array walk over its rule's lowered
        pieces, and each float is the one a per-piece loop of Python arithmetic
        gives; a hand schedule's are its interpolant, flat past the last point.
        """
        if self.derived:
            return _derived_pieces(self)
        return _interpolant_pieces(self)

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


def _derived_pieces(sched: PaymentSchedule) -> Pieces:
    """Truthful payments of a derived schedule as power terms in t = v / vmax.

    On a rule piece x = sum a t^e, with C = integral_0^lo x, the envelope
    payment is p~ = sum vmax a e / (e + 1) t^(e+1) + K, K = sum vmax a
    (lo / vmax)^(e+1) / (e + 1) - C, and the violation is g = ratio p~ - v x.
    Cut at the rule's stationary candidates, g is monotone on each sub-piece,
    so the running max R of g (from g(0) = 0) before a sub-piece is the max of
    g at all earlier sub-piece ends: one accumulate over them. Where g is the
    max the sub-piece is tight, p = v x; elsewhere it is flat, p = ratio p~ - R;
    a sub-piece where g rises through R splits at the crossing.

    Each sum runs in term order from +0.0, skipping absent terms, and every
    power is ``np.float_power`` (libm pow), so each float is the one a
    per-piece loop of Python arithmetic gives.
    """
    rule, ratio = sched.allocation, sched.m.ratio
    vmax = rule.vmax
    (lo, hi, a, e), area = rule.pieces(), rule._below
    stationary = np.asarray(rule.stationary_candidates(ratio), dtype=float)
    # as in Python float arithmetic, an overflow or nan passes on silently
    with np.errstate(all="ignore"):
        q = e + 1.0
        live = a != 0.0
        base = ratio * (_sum(vmax * a * np.float_power((lo / vmax)[:, None], q) / q, live) - area)
        gc = vmax * a * (ratio * e / q - 1.0)
        g_live = live & (gc != 0.0)

        # sub-pieces: rule piece i is cut at the stationary points strictly inside it
        left = np.searchsorted(stationary, lo, side="right")
        inner = np.maximum(np.searchsorted(stationary, hi, side="left") - left, 0)
        owner = np.repeat(np.arange(lo.size), inner + 1)
        j = np.arange(owner.size) - (np.cumsum(inner + 1) - (inner + 1))[owner]
        cut = np.append(stationary, 0.0)  # the pad is read only where lo or hi is taken
        at = left[owner] + j
        l = np.where(j == 0, lo[owner], cut[at - 1])
        u = np.where(j == inner[owner], hi[owner], cut[at])
        b, c, p, ok = base[owner], gc[owner], q[owner], g_live[owner]
        # g at both ends of each sub-piece, g_l, g_u, g_l, ... once raveled
        t = np.stack([l, u], axis=1) / vmax
        g = b[:, None] + _sum(c[:, None] * np.float_power(t[:, :, None], p[:, None]), ok[:, None])
        g_l, g_u = g[:, 0], g[:, 1]
        # no end is -0.0 (each adds a sum from +0.0), so where no g is nan this
        # running max is the loop's max(best, g), which keeps best on ties
        run = np.maximum.accumulate(np.concatenate([[0.0], g.ravel()]))
        best, start = run[:-1:2], run[1::2]
        flat = g_u <= start
        crossing = ~flat & (g_l < best)
        cross = np.zeros_like(l)
        k = np.flatnonzero(crossing)
        cross[k] = _rising_roots(c[k], p[k], ok[k], b[k] - best[k], l[k], u[k], vmax)
        level = b - start
        # a flat row's terms are the rule row's one term with e != 0 (every shape
        # lowers to at most one), lifted, and the level; a tight row's are both
        one = np.argmax(e != 0.0, axis=1)[owner]
        flat_c, flat_q = (ratio * vmax * a * e / q)[owner, one], q[owner, one]
        tight_c, tight_q = vmax * a[owner], q[owner]

    # each sub-piece has a flat row (l to u, or to the crossing) and a tight row
    # (from l, or from the crossing, to u); the rows it has are kept, flat first
    keep = np.array([flat | crossing, ~flat]).T.ravel()
    row_lo = np.array([l, np.where(crossing, cross, l)]).T.ravel()[keep]
    row_hi = np.array([np.where(flat, u, cross), u]).T.ravel()[keep]
    coef = np.array([[flat_c, tight_c[:, 0]], [level, tight_c[:, 1]]]).T
    expo = np.array([[flat_q, tight_q[:, 0]], [np.zeros_like(level), tight_q[:, 1]]]).T
    return Pieces(row_lo, row_hi, coef.reshape(-1, 2)[keep], expo.reshape(-1, 2)[keep])


def _sum(terms: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The sum of the live terms along the last axis, in order from +0.0."""
    total = np.zeros(terms.shape[:-1])
    for col in range(terms.shape[-1]):
        total = np.where(live[..., col], total + terms[..., col], total)
    return total


def _rising_roots(c, q, live, const, lo, hi, vmax: float) -> np.ndarray:
    """Each v in [lo, hi] where const + sum c (v / vmax)^q rises through zero.

    Rule pieces give either one live term (power segments, constants) or the
    exponents 1 and 2 in columns 0 and 1 (linear segments and table cells).
    """
    one = np.where(live[:, 0], 0, 1)
    rows = np.arange(len(c))
    x = -const / c[rows, one]
    t = np.float_power(np.where(0.0 > x, 0.0, x), 1.0 / q[rows, one])
    c1, c2 = c[:, 0], c[:, 1]
    # the rising root is the one where 2 c2 t + c1 = +sqrt(disc); take
    # whichever of its two forms does not cancel
    disc = c1 * c1 - 4.0 * c2 * const
    root = np.sqrt(np.where(0.0 > disc, 0.0, disc))
    both = np.where(c1 >= 0.0, -2.0 * const / (c1 + root), (root - c1) / (2.0 * c2))
    v = vmax * np.where(live.all(axis=1), both, t)
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _interpolant_pieces(sched: PaymentSchedule) -> Pieces:
    """A hand-supplied schedule as value_many reads it: linear between grid
    points, flat past the last one."""
    grid, pays, slopes = sched._hand
    vmax = sched.allocation.vmax
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.column_stack([pays[:-1] - slopes * grid[:-1], slopes * vmax])
    lo, hi, expo = grid[:-1], grid[1:], np.broadcast_to([0.0, 1.0], coef.shape)
    if grid[-1] < vmax:
        lo, hi = np.append(lo, grid[-1]), np.append(hi, vmax)
        coef, expo = np.vstack([coef, [pays[-1], 0.0]]), np.vstack([expo, [0.0, 0.0]])
    return Pieces(lo, hi, coef, expo)
