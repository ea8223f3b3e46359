"""Expected revenue, two ways, plus the posted-price baseline.

The exact path (``expected_revenue_quadrature``) lowers the payment and the
density to power terms in t = v / vmax on a common partition and sums their
closed-form moments. Derived payments are cut at the rule's pieces, its
stationary candidates and the exact points where the rebate's running max
switches between tight (p = v x) and flat (p = ratio p~ - R); hand-supplied
schedules are their linear interpolant. Jumps sit on cuts, so no left limits
are needed. Monte Carlo draws values by quantile transform from
counter-based substreams, so results are byte-identical for a given seed
regardless of chunking order. Each chunk of draws is evaluated in sorted
order, which turns the table lookups into sequential scans, and scattered
back; quantile and payment are elementwise, so every draw gets the same float
and the sums still run in draw order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass

import numpy as np

from .allocation import make_step
from .distributions import ValueDistribution
from .errors import ConstructionError, PreconditionError, RoiAuctionError
from .numerics import PowerPiece, bisect_root
from .payments import DEFAULT_GRID_N, PaymentSchedule, RoiTarget, payment_schedule

_MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class RevenueEstimate:
    mean: float
    stderr: float
    method: str
    n_samples: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _shared_support(mech: PaymentSchedule, dist: ValueDistribution) -> float:
    """The rule's vmax, once the distribution is known to share it."""
    vmax = mech.allocation.vmax
    if abs(dist.vmax - vmax) > 1e-9 * max(1.0, vmax):
        raise ConstructionError(
            f"distribution support [0, {dist.vmax}] does not match the rule's [0, {vmax}]"
        )
    return vmax


def expected_revenue_quadrature(mech: PaymentSchedule, dist: ValueDistribution) -> RevenueEstimate:
    """Exact integral of the truthful payment against the value density.

    The payment and the density are both sums of power terms in t = v / vmax
    on every piece of a common partition, so the integral is a sum of
    closed-form moments a b (u^q - l^q) / q. The name and the method label
    "quadrature" stay as callers know them.
    """
    vmax = _shared_support(mech, dist)
    pay = _payment_pieces(mech) if mech.derived else _interpolant_pieces(mech, vmax)
    # the density's terms, restated in the rule's t = v / vmax
    rescale = vmax / dist.vmax
    dens = [(lo, [(b * rescale**k, k) for b, k in f]) for lo, _, f in dist.pdf_pieces()]
    pay_los = [lo for lo, _, _ in pay]
    dens_los = [lo for lo, _ in dens]
    cuts = sorted({0.0, vmax, *(v for v in pay_los + dens_los if 0.0 < v < vmax)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        p_terms = pay[bisect.bisect_right(pay_los, mid) - 1][2]
        f_terms = dens[bisect.bisect_right(dens_los, mid) - 1][1]
        t_lo, t_hi = lo / vmax, hi / vmax
        for a, e in p_terms:
            for b, k in f_terms:
                q = e + k + 1.0
                total += a * (t_hi**q - t_lo**q) * b / q
    return RevenueEstimate(mean=vmax * total, stderr=0.0, method="quadrature")


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


def expected_revenue_mc(
    mech: PaymentSchedule, dist: ValueDistribution, n: int, seed: int = 0
) -> RevenueEstimate:
    """Sample-mean revenue with its standard error.

    Each 65536-draw chunk runs on its own Philox key derived from (seed,
    chunk index), so the stream for chunk k never depends on how many draws
    preceded it; seeds run from 0 to 2^64 - 1. A chunk's uniforms are
    evaluated in sorted order, so every lookup into a grid or table scans
    forward, and the payments are scattered back to draw order. Each draw
    gets the float it would get alone, and the mean and standard error sum
    the same array in the same order.
    """
    if n < 1:
        raise ConstructionError(f"need at least one sample, got {n}")
    if not 0 <= seed < 2**64:
        raise ConstructionError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    vmax = _shared_support(mech, dist)
    try:
        pays = np.empty(n)
    except (ValueError, MemoryError):
        raise ConstructionError(f"cannot hold {n} Monte Carlo payments in memory") from None
    for k, start in enumerate(range(0, n, _MC_CHUNK)):
        stop = min(start + _MC_CHUNK, n)
        gen = np.random.Generator(np.random.Philox(key=seed * 2**64 + k))
        u = gen.random(stop - start)
        order = np.argsort(u)
        pays[start:stop][order] = mech.value_many(dist.quantile(u[order]))
    # moments of pays / 2^e with 2^e near vmax, so squares cannot overflow; scaling
    # by a power of two is exact, so mean and stderr are those of pays itself.
    # Scaled in place: a second n-float array would raise peak memory.
    e = math.frexp(vmax)[1]
    np.ldexp(pays, -e, out=pays)
    mean = math.ldexp(float(np.mean(pays)), e)
    stderr = math.ldexp(float(np.std(pays, ddof=1) / math.sqrt(n)), e) if n > 1 else 0.0
    return RevenueEstimate(mean=mean, stderr=stderr, method="monte_carlo", n_samples=n, seed=seed)


def myerson_baseline(
    dist: ValueDistribution, m: RoiTarget | None = None, grid_n: int = DEFAULT_GRID_N
) -> PaymentSchedule:
    """Posted price at the root of the density-weighted virtual value.

    The step rule's truthful payment equals the price itself for every
    target ratio, so the schedule's ratio (default 2) only labels it.
    """
    report = dist.check_dmr()
    if not report.passed:
        raise PreconditionError(
            "posted-price baseline needs non-decreasing marginal revenue; " + report.summary(),
            report=report,
        )
    psi_lo = dist.marginal_revenue(0.0)
    psi_hi = dist.marginal_revenue(dist.vmax)
    if psi_lo >= 0.0 or psi_hi <= 0.0:
        raise PreconditionError(
            "marginal revenue does not change sign on the support; no interior posted price"
        )
    price = bisect_root(
        dist.marginal_revenue, 0.0, dist.vmax, x_tol=1e-13 * max(1.0, dist.vmax)
    )
    rule = make_step(price, dist.vmax)
    return payment_schedule(rule, m if m is not None else RoiTarget(2.0), grid_n)


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    threshold: float
    rev_quad: float
    rev_mc: float | None
    stderr: float | None


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def to_dict(self) -> dict:
        return {"rows": [asdict(r) for r in self.rows]}

    def text(self) -> str:
        lines = []
        for r in self.rows:
            parts = [f"{r.name:<14}", f"threshold={r.threshold:.6f}", f"rev(quad)={r.rev_quad:.6f}"]
            if r.rev_mc is not None:
                parts.append(f"rev(mc)={r.rev_mc:.6f} +/- {r.stderr:.6f}")
            lines.append("  ".join(parts))
        return "\n".join(lines) + "\n"


def compare(
    dist: ValueDistribution,
    m: RoiTarget,
    *,
    mc_samples: int = 100_000,
    seed: int = 0,
    grid_n: int = DEFAULT_GRID_N,
) -> ComparisonTable:
    """Posted-price baseline versus the threshold-optimal mechanism; 0 samples skips Monte Carlo."""
    from .optimal import optimal_mechanism  # deferred: optimal builds on this module

    if mc_samples < 0:
        raise ConstructionError(f"need mc_samples >= 0 (0 skips Monte Carlo), got {mc_samples}")
    base = myerson_baseline(dist, m, grid_n)
    jumps = base.allocation.jump_points()
    base_threshold = jumps[0][0] if jumps else 0.0
    sol = optimal_mechanism(dist, m, grid_n=grid_n)
    rows = []
    for name, mech, threshold, rev_quad in (
        ("posted_price", base, base_threshold, expected_revenue_quadrature(base, dist).mean),
        # the solver already took the quadrature revenue of its schedule
        ("roi_optimal", sol.schedule, sol.threshold, sol.expected_revenue),
    ):
        mc = expected_revenue_mc(mech, dist, mc_samples, seed) if mc_samples > 0 else None
        rev_mc, stderr = (mc.mean, mc.stderr) if mc is not None else (None, None)
        rows.append(ComparisonRow(name, threshold, rev_quad, rev_mc, stderr))
    if rows[1].rev_quad < rows[0].rev_quad - 1e-9:
        raise RoiAuctionError(
            f"threshold mechanism earned {rows[1].rev_quad!r}, below the posted-price "
            f"baseline {rows[0].rev_quad!r}; this indicates a solver defect"
        )
    return ComparisonTable(tuple(rows))
