"""Truthful payments for bidders with a hard ex post return constraint.

Write p~(v) = v x(v) - integral_0^v x(z) dz for the classical envelope payment
of a monotone rule. A bidder who must earn ``ratio`` times any payment accepts
p(v) = ratio * p~(v) - rebate(v), where the rebate is the largest constraint
violation left at lower reports:

    rebate(v) = max_{0 <= z <= v} [ ratio * p~(z) - z x(z) ].

This is the one module that knows how a schedule pays. A derived schedule,
``PaymentSchedule(rule, m, grid_n)``, charges these payments. The kernel
``_envelope`` gives x, v x, p~ and the violation g = ratio p~ - v x. On first read
they are sampled on a candidate grid (``grid_n`` uniform points, every segment
endpoint, right-continuous, and the stationary points of g on linear pieces),
and one running max R of g gives p = v x - (R - g): exactly v x where g is its
own running max, and never above v x in floating point. An off-grid payment
joins the query point's g to that running max, so the rebate is exact for all
structured shapes; the lookup reads that max at its change points only, each
the start of one slice of the sorted query points. On the paper's first-price
ramp g = 0 (the constraint binds) and past it g only falls, so R changes at a
few dozen of the default 10,002 points. A hand schedule,
``PaymentSchedule.hand(rule, m, grid, payments)``, holds only its grid and
payments and charges their interpolant; it refuses a grid that does not rise
strictly from 0 within vmax, and payments or slopes that are not finite, and
its lookup refuses the points a derived one does, without clipping them.
``PaymentSchedule.pieces`` gives either kind's payment as ``numerics.Pieces``
in t = v / vmax for the exact revenue, and never samples the grid. A derived
one comes from one array walk over the rule's ``pieces``: g at every sub-piece
end, one running max over them, and a cut wherever that max switches between
tight (p = v x) and flat (p = ratio p~ - R). A hand one is its interpolant.
``PaymentSchedule.lookup`` is the payment Monte Carlo charges: a derived
schedule's ``pieces`` summed on the points by ``numerics.sum_sorted``, a hand
schedule's ``value_many``.

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
from functools import cache, cached_property, lru_cache
from typing import IO, Callable, Iterator

import numpy as np

from .allocation import AllocationRule
from .errors import ConstructionError
from .numerics import Pieces, _in_order, _prepare, piece_terms, sum_sorted

DEFAULT_GRID_N = 10_001

# rows per block of ``_g12_blocks``: a block's arrays stay in cache, and the text
# of a whole schedule is never held at once
_CSV_BLOCK_ROWS = 1024

# decimal exponents k the renderer's tables cover: |x| < 1e290 of the cells it
# renders itself, a first guess one off and the carry of a rounding to 10^12
_G12_EXP = 292

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


def _envelope(rule: AllocationRule, ratio: float, v: np.ndarray):
    """(x, v x, p~, g) at points v in non-decreasing order: the allocation, v x,
    the envelope payment p~ = v x - integral_0^v x, and the violation
    g = ratio * p~ - v x. The rule reads v clipped onto [0, vmax] by the domain
    check (``numerics._prepare``); v x reads v itself."""
    x, area = rule._runs(_prepare(v, rule.vmax)[0])
    vx = v * x
    pt = np.subtract(vx, area, out=area)
    g = ratio * pt
    g -= vx
    return x, vx, pt, g


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
        x, vx, pt, g = _envelope(self.allocation, self.m.ratio, grid)
        reb = np.maximum.accumulate(g)
        return grid, x, pt, reb, vx - (reb - g)

    grid = property(lambda self: self._columns[0] if self.derived else self._hand[0])
    allocations = property(lambda self: self._columns[1])
    myerson = property(lambda self: self._columns[2])
    rebates = property(lambda self: self._columns[3])
    payments = property(lambda self: self._columns[4] if self.derived else self._hand[1])

    @cached_property
    def _rebate_steps(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid points where ``rebates`` changes its bits (the first always),
        and one level more: 0.0 below the first, then ``rebates`` at each; between
        two of them the grid holds the same float. Only ``_sweep`` reads them,
        for ``value_many``, ``value_at``, ``rebate_at`` and the audits; Monte
        Carlo charges ``lookup()`` instead."""
        bits = self.rebates.view(np.int64)
        at = np.flatnonzero(np.concatenate([[True], bits[1:] != bits[:-1]]))
        return self.grid[at], np.concatenate([[0.0], self.rebates[at]])

    def _sweep(self, v):
        """(x, g, R, p) at the points v, p = v x - (R - g): R joins g with the
        running max stored at its change points, which the paper's ramps (g = 0,
        the constraint binding) keep to a few dozen. One domain check and one
        order check serve the whole sweep; on the points in non-decreasing
        order each rule segment and each change point starts one slice."""
        steps, levels = self._rebate_steps

        def runs(a):
            x, vx, pt, g = _envelope(self.allocation, self.m.ratio, a)
            bounds = np.concatenate(([0], a.searchsorted(steps, side="left"), [a.size]))
            reb = levels.repeat(bounds[1:] - bounds[:-1])
            np.maximum(reb, g, out=reb)
            np.maximum(reb, 0.0, out=reb)
            # p = v x - (R - g), formed in the buffers of v x and p~
            vx -= np.subtract(reb, g, out=pt)
            return x, g, reb, vx

        return _in_order(runs, np.atleast_1d(np.asarray(v, dtype=float)))

    def value_many(self, vs) -> np.ndarray:
        if self.derived:
            return self._sweep(vs)[3]
        a = np.atleast_1d(np.asarray(vs, dtype=float))
        # the derived kind's refusals; the interpolant already holds its end
        # values, so the points are not clipped
        _prepare(a, self.allocation.vmax)
        return np.interp(a, self.grid, self.payments)

    def value_at(self, v: float) -> float:
        return float(self.value_many(np.asarray([v]))[0])

    def rebate_at(self, v: float) -> float:
        return float(self._sweep(np.asarray([v]))[2][0])

    def lookup(self) -> Callable[[np.ndarray], np.ndarray]:
        """The payments at points v, as a function made once: a hand schedule's
        ``value_many``; a derived schedule's ``pieces()``, lowered here, summed
        by ``numerics.sum_sorted`` behind one domain and one order check. This
        is the payment the exact revenue integrates; ``value_many``'s
        v x - (R - g) can differ from it in the last bits."""
        if not self.derived:
            return self.value_many
        lowered, vmax = piece_terms(self.pieces()), self.allocation.vmax

        def charge(v):
            return _in_order(lambda a: (sum_sorted(lowered, a, vmax),), _prepare(v, vmax)[0])[0]

        return charge

    def pieces(self) -> Pieces:
        """The payment as power terms in t = v / vmax, which the exact revenue
        integrates and ``lookup`` charges; ``value_many`` forms it another way.

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
        block of rows per write: each cell is the text of ``"%.12g" % x``,
        rendered by ``_g12_blocks``."""
        cols = self.columns()
        fp.write(",".join(cols) + "\n")
        for text in _g12_blocks(np.column_stack(tuple(cols.values()))):
            fp.write(text)


@cache
def _g12_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of ``_g12_blocks``, built on its first call.

    By decimal exponent k, at k + _G12_EXP: 10^(11 - k) correctly rounded (the
    float Python parses from the literal); the base of k's layout rows; and
    "e" with the signed exponent, at bytes 2 to 6 of a word (0 where %g writes
    k in fixed notation). By 4-digit group g < 10^4: its ASCII digits, first
    digit in the lowest byte; and, for g as the first, second or third group
    of 12 digits, how many of the 12 end with g's last nonzero digit (0 for
    g = 0). A layout row (columns below) serves every cell of one exponent
    class, significant-digit count and sign.
    """
    def le(text: bytes) -> int:  # first byte lowest
        return int.from_bytes(text, "little")

    exps = range(-_G12_EXP, _G12_EXP + 1)
    powers = np.array([float(f"1e{11 - k}") for k in exps])
    suffix = np.array([0 if -4 <= k < 12 else le(b"e%+03d" % k) << 16 for k in exps], np.uint64)
    g = np.arange(10_000, dtype=np.uint64)
    digits = [g // 1000, g // 100 % 10, g // 10 % 10, g % 10]
    ascii4 = sum((48 + d) << np.uint64(8 * j) for j, d in enumerate(digits))
    last = np.select([d > 0 for d in digits[::-1]], [4, 3, 2, 1], 0)
    ends = np.array([last, np.where(last > 0, last + 4, 0), np.where(last > 0, last + 8, 0)], np.uint8)

    # A cell's 12 digits are a 16-byte string in two words. Its text keeps the
    # first nd of them with "." after the first p, where p = 12 means no point;
    # the columns: the head mask (bytes before min(nd, p)), the tail mask
    # (bytes p to nd, moved up one byte for the point), the point, the sign and
    # the "0.000" of a fixed -4 <= k < 0 at bytes 0 to 5, and the shift that
    # puts the digits at byte 6 there and at byte 1 otherwise, with 64 minus it
    def mask(n):
        return [(1 << 8 * min(n, 8)) - 1, (1 << 8 * max(n - 8, 0)) - 1]

    rows = []
    for kk in range(-5, 13):  # k clipped: -5 is every k < -4, 12 every k >= 12
        sci, small = kk in (-5, 12), -4 <= kk < 0
        fixed = not (sci or small)
        for s in range(13):  # significant digits; 0 only for x = 0, as "0"
            nd = max(s, kk + 1) if fixed else s
            # the point follows the integer part, or the first digit of d.ddd
            p = kk + 1 if fixed and s > kk + 1 else 1 if sci and s > 1 else 12
            head, keep, cut = mask(min(nd, p)), mask(nd), mask(p)
            dot = le(b"\0" * p + b".") if p < 12 else 0
            shift = 48 if small else 8
            for sign in (b"\0", b"-"):
                prefix = sign + (b"0." + b"0" * (-kk - 1) if small else b"")
                rows.append([*head, keep[0] & ~cut[0], keep[1] & ~cut[1],
                             dot & (2**64 - 1), dot >> 64, le(prefix), shift, 64 - shift])
    layout = np.array(rows, np.uint64).T.copy()  # field by field: one take gathers all
    bases = 26 * (np.clip(np.arange(-_G12_EXP, _G12_EXP + 1), -5, 12) + 5)
    return powers, bases, suffix, ascii4, ends, layout


def _g12_percent(cells: np.ndarray) -> np.ndarray:
    """``"%.12g" % x`` of each cell, NUL-padded to 23 bytes: the renderer's
    text for the cells whose digits it does not prove."""
    text = b"".join(("%.12g" % x).encode().ljust(23, b"\0") for x in cells.tolist())
    return np.frombuffer(text, np.uint8).reshape(-1, 23)


def _g12_blocks(table: np.ndarray) -> Iterator[str]:
    """The text of a 2-D float table with each cell at ``"%.12g"``, cells
    joined by "," and each row ended by "\\n", one block of _CSV_BLOCK_ROWS
    rows per string.

    Every byte is %-formatting's. A cell with 1e-290 <= |x| < 1e290 whose
    digits can be proved is rendered here: y = |x| 10^(11 - k) at its
    decimal exponent k, N = rint(y) its 12 digits, laid out as %g does (fixed
    notation for -4 <= k < 12, else d.ddde±XX, trailing zeros dropped), and
    so is a signed zero. The rest fall back to Python's ``"%.12g" %``: NaN,
    the infinities, nonzero |x| < 1e-290 or >= 1e290, and a y within 2^-9 of
    a half-integer, which holds every exact tie. Each cell is built in a
    24-byte NUL-padded slot: sign and "0.000" at bytes 0 to 5, the digits
    with their point from byte 1 or 6, the exponent at 18 to 22 and the
    separator at 23; the NULs are then deleted.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    powers, bases, suffix, ascii4, ends, layout = _g12_tables()
    seps = np.array([ord(",")] * (cols - 1) + [ord("\n")], np.uint64) << np.uint64(56)
    seps = np.tile(seps, min(rows, _CSV_BLOCK_ROWS))
    byte, half = np.uint64(8), np.uint64(32)
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        x = table[start:start + _CSV_BLOCK_ROWS].ravel()
        a = np.abs(x)
        own = (a >= 1e-290) & (a < 1e290)
        a = np.where(own, a, 1.0)
        # log10 only guesses k; y checks the guess and moves it by one
        k = np.floor(np.log10(a)).astype(np.intp) + _G12_EXP
        y = a * powers[k]
        k += y >= 1e12
        k -= y < 1e11
        # two roundings of relative size 2^-53 each (the power and the
        # product), so |y - exact| < 2^-12 for y < 2^40: a y at least 2^-9 from
        # every half-integer rounds as the exact product does. A y just outside
        # [1e11, 1e12] is within 2^-9 + 2^-12 of the end, where the exact
        # product rounds to that end's 10^k at either exponent
        y = a * powers[k]
        n = np.rint(y)
        back = ~own & (x != 0.0)
        back |= np.abs(y - n) > 0.5 - 2.0**-9
        back |= (y < 1e11 - 2.0**-9) | (y > 1e12 + 2.0**-9)
        top = n == 1e12
        n -= 9e11 * top
        k += top
        n *= own & ~back
        # the three 4-digit groups of N, exact in floats below 2^53
        g0 = np.floor(n / 1e8)
        n -= g0 * 1e8
        g1 = np.floor(n / 1e4)
        g2 = (n - g1 * 1e4).astype(np.intp)
        g0, g1 = g0.astype(np.intp), g1.astype(np.intp)
        sig = np.maximum(np.maximum(ends[0][g0], ends[1][g1]), ends[2][g2])
        form = np.take(layout, bases[k] + 2 * sig + np.signbit(x), axis=1)
        lo, hi = ascii4[g0] | (ascii4[g1] << half), ascii4[g2]
        tail = lo & form[2]
        m0 = (lo & form[0]) | form[4] | (tail << byte)
        m1 = (hi & form[1]) | form[5] | ((hi & form[3]) << byte) | (tail >> np.uint64(56))
        slots = np.empty((x.size, 3), "<u8")
        slots[:, 0] = form[6] | (m0 << form[7])
        slots[:, 1] = (m0 >> form[8]) | (m1 << form[7])
        slots[:, 2] = (m1 >> form[8]) | suffix[k] | seps[:x.size]
        fallback = np.flatnonzero(back)
        if fallback.size:
            slots.view(np.uint8).reshape(-1, 24)[fallback, :23] = _g12_percent(x[fallback])
        yield slots.tobytes().translate(None, b"\0").decode("ascii")


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
