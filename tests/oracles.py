"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: dense trapezoid prefix sums instead of
closed-form piece integrals, explicit double loops instead of broadcasting,
fixed-step composite Simpson instead of adaptive subdivision. Slow but
obviously correct, so disagreement points at the library.
"""

from __future__ import annotations

import numpy as np


def simpson_integral(f, a: float, b: float, n: int = 2001) -> float:
    """Composite Simpson with n (odd) equally spaced nodes."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = np.asarray([f(x) for x in xs])
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def dense_prefix_integral(rule, v: float, n: int = 200_001) -> float:
    """Trapezoid integral of the allocation from 0 to v on a dense grid."""
    if v <= 0.0:
        return 0.0
    xs = np.linspace(0.0, v, n)
    return float(np.trapezoid(rule.evaluate(xs), xs))


def brute_rebate(rule, ratio: float, v: float, n: int = 20_001) -> float:
    """max over z in [0, v] of ratio * myerson(z) - z * x(z), trapezoid prefix sums."""
    zs = np.linspace(0.0, v, n)
    xs = rule.evaluate(zs)
    prefix = np.concatenate([[0.0], np.cumsum(0.5 * (xs[1:] + xs[:-1]) * np.diff(zs))])
    g = ratio * (zs * xs - prefix) - zs * xs
    # a jump inside (0, v] contributes through its right limit; sample it too
    extras = [z for z, _, _ in rule.jump_points() if 0.0 < z <= v]
    for z in extras:
        x_r = float(rule.evaluate(z))
        pre = dense_prefix_integral(rule, z, n=40_001)
        g = np.append(g, ratio * (z * x_r - pre) - z * x_r)
    return max(float(np.max(g)), 0.0)


def brute_roi_payment(rule, ratio: float, v: float, n: int = 20_001) -> float:
    x = float(rule.evaluate(v))
    myerson = v * x - dense_prefix_integral(rule, v)
    return ratio * myerson - brute_rebate(rule, ratio, v, n)


def brute_dsic_gain(values, allocs, pays, ratio: float, feas_tol: float = 1e-12) -> float:
    """Worst truthful-vs-misreport utility gap by explicit loops."""
    worst = 0.0
    for i, v in enumerate(values):
        truthful = None
        if v * allocs[i] >= pays[i] - feas_tol:
            truthful = ratio * v * allocs[i] - pays[i]
        best = None
        for j in range(len(values)):
            if v * allocs[j] >= pays[j] - feas_tol:
                u = ratio * v * allocs[j] - pays[j]
                if best is None or u > best:
                    best = u
        if truthful is None and best is not None:
            return float("inf")
        if truthful is not None and best is not None:
            worst = max(worst, best - truthful)
    return worst


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def full_matrix_dsic(grid, allocs, pays, ratio: float, tol: float, feas_tol: float = 1e-12):
    """(worst gain, passed, witness) of the misreport search over whole n x n matrices."""
    vx = grid[:, None] * allocs[None, :]
    feas = vx >= pays[None, :] - feas_tol
    util = ratio * vx - pays[None, :]
    util_feas = np.where(feas, util, -np.inf)
    best = util_feas.max(axis=1)
    best_at = util_feas.argmax(axis=1)
    truth_feas = np.diag(feas)
    gains = np.where(truth_feas, best - np.diag(util), np.inf)
    gains = np.where(~truth_feas & ~feas.any(axis=1), 0.0, gains)
    i = int(np.argmax(gains))
    worst = max(float(gains[i]), 0.0)
    witness = {"v": float(grid[i]), "b": float(grid[int(best_at[i])])} if worst > 0.0 else None
    return worst, worst <= tol, witness


def _bisect_crossing(g, level: float, a: float, b: float) -> float:
    """Point in [a, b] where a rising g passes level, down to adjacent floats."""
    for _ in range(2000):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if g(mid) < level:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def table_revenue(points, ratio: float, pdf, kinks=(), n: int = 64) -> float:
    """Revenue of the interpolated table rule through points, by composite Simpson.

    Payments come from their definition on each table cell: the violation
    g(v) = ratio (v x - int_0^v x) - v x is a parabola there, its running max
    the rebate. Cells are cut at density kinks, at the parabola's vertex and
    where a rising g overtakes the running max (by bisection), so on every
    cut the payment is one quadratic and n Simpson intervals see no kink.
    The density is read just left of each cut's right end.
    """
    total = 0.0
    area = 0.0  # integral of x over the earlier cells
    best = 0.0  # running max of g, with g(0) = 0
    for (v0, x0), (v1, x1) in zip(points[:-1], points[1:]):
        slope = (x1 - x0) / (v1 - v0)

        def x(v, v0=v0, x0=x0, slope=slope):
            return x0 + slope * (v - v0)

        def g(v, v0=v0, x0=x0, area=area, x=x):
            vx = v * x(v)
            return ratio * (vx - area - 0.5 * (x0 + x(v)) * (v - v0)) - vx

        cuts = {v0, v1} | {k for k in kinks if v0 < k < v1}
        if slope * (ratio - 2.0) != 0.0:
            vertex = (x0 - slope * v0) / (slope * (ratio - 2.0))
            if v0 < vertex < v1:
                cuts.add(vertex)
        cuts = sorted(cuts)
        spans = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            if g(a) < best < g(b):
                cross = _bisect_crossing(g, best, a, b)
                spans += [(a, cross), (cross, b)]
            else:
                spans.append((a, b))
        for a, b in spans:
            if b <= a:
                continue
            vs = np.linspace(a, b, n + 1)
            gv = g(vs)
            rebate = np.maximum(np.maximum.accumulate(gv), best)
            best = float(rebate[-1])
            pay = gv + vs * x(vs) - rebate
            dens = pdf(np.append(vs[:-1], np.nextafter(b, a)))
            y = pay * dens
            h = (b - a) / n
            total += h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
        area += 0.5 * (x0 + x1) * (v1 - v0)
    return total


def exact_payments(rule, ratio: float, grid) -> list[float]:
    """Truthful payments on the grid in rational arithmetic, rounded once at the end.

    For rules of constant and linear segments (a power segment of exponent 1
    is linear): x, its prefix integral, p~ = v x - integral and
    g = ratio p~ - v x are exact rationals of the stored floats, and the
    rebate is the running max of g over the grid, the candidates the
    library takes, so only the library's rounding separates the two.
    """
    from fractions import Fraction

    def coeffs(shape):
        kind = type(shape).__name__
        if kind == "Constant":
            return Fraction(0), Fraction(shape.level)
        if kind == "Linear":
            return Fraction(shape.slope), Fraction(shape.intercept)
        if kind == "PowerRamp" and shape.exponent == 1.0:
            return Fraction(shape.scale), Fraction(0)
        raise ValueError(f"no exact form for {shape!r}")

    def integral(slope, icpt, a, b):
        return slope * (b * b - a * a) / 2 + icpt * (b - a)

    segs = [(Fraction(s.lo), Fraction(s.hi), *coeffs(s.shape)) for s in rule.segments]
    below = [Fraction(0)]
    for lo, hi, slope, icpt in segs:
        below.append(below[-1] + integral(slope, icpt, lo, hi))
    m = Fraction(ratio)
    out = []
    best = None
    for v in grid:
        v = Fraction(float(v))
        i = max(k for k, seg in enumerate(segs) if seg[0] <= v or k == 0)
        lo, _, slope, icpt = segs[i]
        vx = v * (slope * v + icpt)
        pt = vx - below[i] - integral(slope, icpt, lo, v)
        g = m * pt - vx
        best = g if best is None else max(best, g)
        out.append(float(m * pt - best))
    return out


def per_profile_audit(
    factory,
    ms,
    vmax: float = 1.0,
    *,
    opponent_grid_n: int = 21,
    own_grid_n: int = 201,
    tol: float = 1e-6,
    ir_tol: float = 1e-9,
    schedule_grid_n: int = 2001,
):
    """profile_audit with every profile's induced mechanism derived and audited afresh."""
    import itertools

    from roi_auction.audit import AuditCheck, AuditReport, check_dsic, check_ir, mechanism_for
    from roi_auction.errors import ConstructionError

    n = len(ms)
    if n < 2:
        raise ConstructionError("profile audits need at least two bidders")
    if n > 3:
        raise ConstructionError("profile audits support at most three bidders")
    opponents = np.linspace(0.0, vmax, opponent_grid_n)
    worst = {"profile_monotone": 0.0, "profile_dsic": 0.0, "profile_ir": 0.0}
    witness: dict[str, dict | None] = {k: None for k in worst}
    for i in range(n):
        for profile in itertools.product(opponents, repeat=n - 1):
            bids = tuple(float(b) for b in profile)
            rule = factory(i, bids)
            mono = rule.check_monotone(grid_n=own_grid_n)
            if not mono.passed:
                if mono.worst_violation > worst["profile_monotone"]:
                    worst["profile_monotone"] = mono.worst_violation
                    witness["profile_monotone"] = {"bidder": i, "opponents": list(bids)}
                continue
            mech = mechanism_for(rule, ms[i], grid_n=schedule_grid_n)
            dsic = check_dsic(mech, grid_n=own_grid_n, tol=tol)
            if dsic.worst_violation > worst["profile_dsic"]:
                worst["profile_dsic"] = dsic.worst_violation
                witness["profile_dsic"] = {"bidder": i, "opponents": list(bids), **(dsic.witness or {})}
            ir = check_ir(mech, grid_n=own_grid_n, tol=ir_tol)
            if ir.worst_violation > worst["profile_ir"]:
                worst["profile_ir"] = ir.worst_violation
                witness["profile_ir"] = {"bidder": i, "opponents": list(bids), **(ir.witness or {})}
    checks = (
        AuditCheck(
            "profile_monotone",
            worst["profile_monotone"] == 0.0,
            worst["profile_monotone"],
            witness["profile_monotone"],
        ),
        AuditCheck(
            "profile_dsic", worst["profile_dsic"] <= tol, worst["profile_dsic"], witness["profile_dsic"]
        ),
        AuditCheck(
            "profile_ir", worst["profile_ir"] <= ir_tol, worst["profile_ir"], witness["profile_ir"]
        ),
    )
    return AuditReport(checks)


def broadcast_audit_grid(mech, grid_n: int):
    """The audit grid with each point's nearest knot found over the whole grid x knots matrix."""
    from roi_auction.payments import FEASIBILITY_TOL

    knots = np.asarray(mech.allocation.knots())
    if mech.derived:
        base = np.linspace(0.0, mech.allocation.vmax, grid_n)
    else:
        sg = mech.grid
        take = np.unique(np.linspace(0, sg.size - 1, min(grid_n, sg.size)).round().astype(int))
        base = sg[take]
    merge_tol = 10.0 * FEASIBILITY_TOL * max(1.0, mech.allocation.vmax)
    gap = np.min(np.abs(base[:, None] - knots[None, :]), axis=1)
    return np.unique(np.concatenate([base[gap > merge_tol], knots]))
