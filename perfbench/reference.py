"""Independent references for the benchmark's output checks.

Nothing here imports roi_auction. The formulas come straight from the
paper's characterization:

* psi(v) = v f(v) + F(v) - 1 is the density-weighted virtual value;
* the optimal single-bidder mechanism for ratio M is the ramp
  x(v) = (v / D)^c, c = 1 / (M - 1), capped at 1 from the threshold D on,
  where D solves H(D) = integral_0^D psi(v) v^c dv = 0;
* its revenue is integral_0^D v (v / D)^c f(v) dv + D (1 - F(D)): first-price
  payments v x(v) below D, the flat price D above it;
* the posted price r solves psi(r) = 0 and earns r (1 - F(r)).

Uniform and power-CDF values use closed forms. Piecewise-linear densities
and tabulated CDFs have piecewise-polynomial psi, so H(D) and the ramp
revenue are summed exactly piece by piece and the root is bisected to the
last representable bracket. Payments for arbitrary piecewise-linear rules
come from a dense grid with the rebate taken as a running max, and revenue
from composite Simpson on that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: The package-wide feasibility slack for v * x >= p, mirrored for the
#: explicit-loop misreport search so both sides classify reports alike.
FEASIBILITY_TOL = 1e-12
#: Simpson intervals per cut of the dense-grid payment schedule
N_SUB = 64


# ---------------------------------------------------------------------------
# distributions as piecewise polynomials


def _poly_eval(coefs, v: float) -> float:
    return sum(a * v**j for j, a in enumerate(coefs))


@dataclass(frozen=True)
class Piece:
    """One piece [lo, hi) with density f(v) = sum_j dens[j] v^j and F(lo) = cdf_lo."""

    lo: float
    hi: float
    dens: tuple[float, ...]
    cdf_lo: float

    def cdf(self, v: float) -> float:
        # F(v) = F(lo) + integral_lo^v f
        prim = lambda t: sum(a * t ** (j + 1) / (j + 1) for j, a in enumerate(self.dens))
        return self.cdf_lo + prim(v) - prim(self.lo)

    def psi_coefs(self) -> tuple[float, ...]:
        """Coefficients of psi(v) = v f(v) + F(v) - 1 on this piece, in global v."""
        deg = len(self.dens) + 1
        out = [0.0] * (deg + 1)
        for j, a in enumerate(self.dens):
            out[j + 1] += a  # v f(v)
            out[j + 1] += a / (j + 1)  # antiderivative of f
        prim_lo = sum(a * self.lo ** (j + 1) / (j + 1) for j, a in enumerate(self.dens))
        out[0] += self.cdf_lo - prim_lo - 1.0
        return tuple(out)


@dataclass(frozen=True)
class RefDistribution:
    """Reference view of one distribution descriptor."""

    kind: str
    vmax: float
    exponent: float | None  # power_cdf only
    pieces: tuple[Piece, ...]  # empty for power_cdf

    def cdf(self, v: float) -> float:
        if self.kind == "power_cdf":
            return (v / self.vmax) ** self.exponent
        return self._piece(v).cdf(v)

    def pdf(self, v: float) -> float:
        if self.kind == "power_cdf":
            k = self.exponent
            return k * v ** (k - 1.0) / self.vmax**k
        return _poly_eval(self._piece(v).dens, v)

    def psi(self, v: float) -> float:
        return v * self.pdf(v) + self.cdf(v) - 1.0

    def kinks(self) -> tuple[float, ...]:
        return tuple(p.lo for p in self.pieces[1:])

    def _piece(self, v: float) -> Piece:
        for p in self.pieces:
            if v < p.hi:
                return p
        return self.pieces[-1]


def from_descriptor(desc: dict) -> RefDistribution:
    kind = desc["kind"]
    vmax = float(desc["vmax"])
    if kind == "uniform":
        return RefDistribution(kind, vmax, None, (Piece(0.0, vmax, (1.0 / vmax,), 0.0),))
    if kind == "power_cdf":
        return RefDistribution(kind, vmax, float(desc["exponent"]), ())
    pieces = []
    if kind == "piecewise_linear_density":
        bs = [float(b) for b in desc["breakpoints"]]
        ds = [float(d) for d in desc["densities"]]
        cdf = 0.0
        for lo, hi, d0, d1 in zip(bs[:-1], bs[1:], ds[:-1], ds[1:]):
            slope = (d1 - d0) / (hi - lo)
            pieces.append(Piece(lo, hi, (d0 - slope * lo, slope), cdf))
            cdf += 0.5 * (d0 + d1) * (hi - lo)
    elif kind == "tabulated_cdf":
        pts = [(float(v), float(F)) for v, F in desc["points"]]
        for (v0, F0), (v1, F1) in zip(pts[:-1], pts[1:]):
            pieces.append(Piece(v0, v1, ((F1 - F0) / (v1 - v0),), F0))
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    return RefDistribution(kind, vmax, None, tuple(pieces))


# ---------------------------------------------------------------------------
# threshold, ramp revenue, posted price


def weight_exponent(ratio: float) -> float:
    return 1.0 / (ratio - 1.0)


def scaled_integral(dist: RefDistribution, c: float, d: float) -> float:
    """G(d) = integral_0^1 psi(d s) s^c ds, summed exactly over polynomial pieces."""
    total = 0.0
    for p in dist.pieces:
        if p.lo >= d:
            break
        t0, t1 = p.lo / d, min(p.hi, d) / d
        for j, q in enumerate(p.psi_coefs()):
            e = j + c + 1.0
            total += q * d**j * (t1**e - t0**e) / e
    return total


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi], where f changes sign, down to adjacent floats."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def posted_price(dist: RefDistribution) -> float:
    """Root of psi; closed form for uniform and power-CDF values."""
    if dist.kind == "uniform":
        return 0.5 * dist.vmax
    if dist.kind == "power_cdf":
        return dist.vmax * (dist.exponent + 1.0) ** (-1.0 / dist.exponent)
    return _bisect(dist.psi, 0.0, dist.vmax)


def posted_revenue(dist: RefDistribution, price: float) -> float:
    return price * (1.0 - dist.cdf(price))


def threshold(dist: RefDistribution, ratio: float) -> float:
    """D with H(D) = 0, or vmax when the weighted integral never turns positive."""
    c = weight_exponent(ratio)
    vmax = dist.vmax
    if dist.kind == "uniform":
        return (c + 2.0) * vmax / (2.0 * (c + 1.0))
    if dist.kind == "power_cdf":
        k = dist.exponent
        return vmax * ((k + c + 1.0) / ((k + 1.0) * (c + 1.0))) ** (1.0 / k)
    if scaled_integral(dist, c, vmax) <= 0.0:
        return vmax
    # psi < 0 below its root, so G is negative there and the root lies above it
    return _bisect(lambda d: scaled_integral(dist, c, d), posted_price(dist), vmax)


def ramp_revenue(dist: RefDistribution, ratio: float, d: float) -> float:
    """integral_0^d v (v/d)^c f(v) dv + d (1 - F(d)), exact."""
    c = weight_exponent(ratio)
    tail = d * (1.0 - dist.cdf(d))
    if dist.kind == "power_cdf":
        k = dist.exponent
        return k * d ** (k + 1.0) / ((k + c + 1.0) * dist.vmax**k) + tail
    head = 0.0
    for p in dist.pieces:
        if p.lo >= d:
            break
        t0, t1 = p.lo / d, min(p.hi, d) / d
        for j, a in enumerate(p.dens):
            # a v^j * v * (v/d)^c, with v = d s
            e = j + c + 2.0
            head += a * d ** (j + 2) * (t1**e - t0**e) / e
    return head + tail


def ramp_value(v, d: float, ratio: float):
    """Allocation of the optimal ramp at v (array or float)."""
    c = weight_exponent(ratio)
    return np.where(np.asarray(v) >= d, 1.0, (np.minimum(np.asarray(v), d) / d) ** c)


# ---------------------------------------------------------------------------
# dense-grid payments and revenue for piecewise-linear rules


@dataclass(frozen=True)
class LinearPiece:
    """x(v) = intercept + slope * v on [lo, hi); the value at lo is the post-jump one."""

    lo: float
    hi: float
    intercept: float
    slope: float


def table_pieces(points) -> tuple[LinearPiece, ...]:
    out = []
    for (v0, x0), (v1, x1) in zip(points[:-1], points[1:]):
        slope = (x1 - x0) / (v1 - v0)
        out.append(LinearPiece(v0, v1, x0 - slope * v0, slope))
    return tuple(out)


def staircase_pieces(edges, levels) -> tuple[LinearPiece, ...]:
    return tuple(
        LinearPiece(lo, hi, float(x), 0.0) for lo, hi, x in zip(edges[:-1], edges[1:], levels)
    )


def _violation(pc: LinearPiece, ratio: float, area: float):
    """g(v) = ratio (v x - int_0^v x) - v x on one linear piece, as a callable."""

    def g(v):
        x = pc.intercept + pc.slope * v
        integral_x = area + pc.intercept * (v - pc.lo) + 0.5 * pc.slope * (v * v - pc.lo**2)
        return ratio * (v * x - integral_x) - v * x

    return g


def dense_schedule(pieces, ratio: float, dist: RefDistribution | None = None):
    """Truthful payments ratio * (v x - int x) - rebate on a dense grid of cuts.

    Each linear piece is cut at density kinks and at the vertex of the
    violation parabola g, so g is monotone on every cut. Where a rising g
    overtakes the running max from below, the cut is split at the crossing,
    found by bisection. On every resulting cut the payment is one polynomial
    (the rebate is either flat or equal to g), which makes Simpson exact for
    polynomial densities. Returns node arrays (v, x, p) of shape
    (n_cuts, N_SUB + 1), in increasing v; each row uses its own piece's
    formulas, so its last node holds the left limit at a jump.
    """
    kinks = dist.kinks() if dist is not None else ()
    vs, xs, ps = [], [], []
    area = 0.0  # integral of x over the previous pieces
    best = 0.0  # running max of g, with g(0) = 0
    for pc in pieces:
        g = _violation(pc, ratio, area)
        cuts = {pc.lo, pc.hi}
        cuts.update(k for k in kinks if pc.lo < k < pc.hi)
        denom = pc.slope * (ratio - 2.0)
        if denom != 0.0:
            z = pc.intercept / denom  # g'(z) = (ratio - 2) slope z - intercept = 0
            if pc.lo < z < pc.hi:
                cuts.add(z)
        cuts = sorted(cuts)
        spans = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            if g(a) < best < g(b):
                cross = _bisect(lambda t: g(t) - best, a, b)
                spans += [(a, cross), (cross, b)]
            else:
                spans.append((a, b))
        for a, b in spans:
            v = np.linspace(a, b, N_SUB + 1)
            x = pc.intercept + pc.slope * v
            gv = g(v)
            rebate = np.maximum(np.maximum.accumulate(gv), best)
            best = float(rebate[-1])
            vs.append(v)
            xs.append(x)
            ps.append(gv + v * x - rebate)  # ratio * envelope - rebate
        area += pc.intercept * (pc.hi - pc.lo) + 0.5 * pc.slope * (pc.hi**2 - pc.lo**2)
    return np.asarray(vs), np.asarray(xs), np.asarray(ps)


def dense_revenue(pieces, ratio: float, dist: RefDistribution) -> float:
    """Composite Simpson of p(v) f(v) over the dense-grid payment schedule."""
    v, _, p = dense_schedule(pieces, ratio, dist)
    if dist.kind == "power_cdf":
        k = dist.exponent
        f = k * v ** (k - 1.0) / dist.vmax**k
    else:
        # each cut lies inside one density piece; use that piece's polynomial
        # so the right end of a cut takes the left limit of a density jump
        f = np.empty_like(v)
        for i in range(v.shape[0]):
            f[i] = _poly_eval(dist._piece(0.5 * (v[i, 0] + v[i, -1])).dens, v[i])
    y = p * f
    h = (v[:, -1] - v[:, 0]) / (v.shape[1] - 1)
    inner = 4.0 * y[:, 1:-1:2].sum(axis=1) + 2.0 * y[:, 2:-1:2].sum(axis=1)
    return float(np.sum(h / 3.0 * (y[:, 0] + y[:, -1] + inner)))


def staircase_payments(edges, levels, ratio: float, grid) -> np.ndarray:
    """Exact truthful payments of a right-continuous staircase at the given points.

    On a flat piece the violation g falls (g' = -x), so its running max is
    reached at piece starts; checking each start is exact.
    """
    grid = np.asarray(grid, dtype=float)
    out = np.empty_like(grid)
    for i, v in enumerate(grid):
        best = 0.0
        area = 0.0
        env_v = 0.0
        for lo, hi, x in zip(edges[:-1], edges[1:], levels):
            if lo > v:
                break
            env = lo * x - area  # envelope payment at the piece start
            best = max(best, ratio * env - lo * x)
            if v < hi or hi == edges[-1]:
                env_v = v * x - (area + x * (v - lo))
                best = max(best, ratio * env_v - v * x)
                break
            area += x * (hi - lo)
        out[i] = ratio * env_v - best
    return out


def staircase_value(edges, levels, v: float) -> float:
    for lo, hi, x in zip(edges[:-1], edges[1:], levels):
        if v < hi:
            return float(x)
    return float(levels[-1])


# ---------------------------------------------------------------------------
# explicit-loop misreport search


def misreport_gain(values, allocs, pays, ratio: float) -> float:
    """Worst gain from misreporting over all ordered pairs, by explicit loops.

    A bidder whose truthful outcome breaks v * x >= p while some report keeps
    it gains an unbounded amount; a bidder with no feasible report gains 0.
    """
    worst = 0.0
    for i, v in enumerate(values):
        truthful = None
        if v * allocs[i] >= pays[i] - FEASIBILITY_TOL:
            truthful = ratio * v * allocs[i] - pays[i]
        best = None
        for j in range(len(values)):
            if v * allocs[j] >= pays[j] - FEASIBILITY_TOL:
                u = ratio * v * allocs[j] - pays[j]
                if best is None or u > best:
                    best = u
        if best is None:
            continue
        if truthful is None:
            return math.inf
        worst = max(worst, best - truthful)
    return worst
