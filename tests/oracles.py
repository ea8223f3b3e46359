"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: dense trapezoid prefix sums instead of
closed-form piece integrals, explicit double loops instead of broadcasting,
fixed-step composite Simpson instead of adaptive subdivision. Slow but
obviously correct, so disagreement points at the library.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from roi_auction.numerics import Pieces

#: (lo, hi, ((a, e), ...)): a curve equal to the sum of a * (v / vmax)^e for
#: lo <= v < hi, the tuple form the package used before ``numerics.Pieces``
PowerPiece = tuple[float, float, tuple[tuple[float, float], ...]]


def piece_tuples(pieces) -> tuple[PowerPiece, ...]:
    """``numerics.Pieces`` (or such tuples) as one (lo, hi, terms) tuple per row,
    zero-coefficient (absent) terms left out."""
    if isinstance(pieces, Pieces):
        cols = (pieces.lo.tolist(), pieces.hi.tolist(), pieces.coef.tolist(), pieces.expo.tolist())
        pieces = [(lo, hi, zip(coef, expo)) for lo, hi, coef, expo in zip(*cols)]
    return tuple((lo, hi, tuple((a, e) for a, e in terms if a != 0.0)) for lo, hi, terms in pieces)


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
):
    """profile_audit with every profile's induced mechanism derived and audited afresh."""
    import itertools

    from roi_auction.audit import (
        AUDIT_GRID_N,
        DSIC_TOL,
        IR_TOL,
        PROFILE_SCHEDULE_GRID_N,
        AuditCheck,
        AuditReport,
        check_dsic,
        check_ir,
        mechanism_for,
    )
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
            mono = rule.check_monotone()
            if not mono.passed:
                if mono.worst_violation > worst["profile_monotone"]:
                    worst["profile_monotone"] = mono.worst_violation
                    witness["profile_monotone"] = {"bidder": i, "opponents": list(bids)}
                continue
            mech = mechanism_for(rule, ms[i], grid_n=PROFILE_SCHEDULE_GRID_N)
            dsic = check_dsic(mech)
            if dsic.worst_violation > worst["profile_dsic"]:
                worst["profile_dsic"] = dsic.worst_violation
                witness["profile_dsic"] = {"bidder": i, "opponents": list(bids), **(dsic.witness or {})}
            ir = check_ir(mech)
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
            "profile_dsic", worst["profile_dsic"] <= DSIC_TOL, worst["profile_dsic"], witness["profile_dsic"]
        ),
        AuditCheck(
            "profile_ir", worst["profile_ir"] <= IR_TOL, worst["profile_ir"], witness["profile_ir"]
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


def per_row_csv(sched) -> str:
    """A schedule's CSV text, one row and one ``format(x, ".12g")`` per cell at a time."""
    lines = ["v,x,p_myerson,p_roi,rebate\n"]
    for row in zip(sched.grid, sched.allocations, sched.myerson, sched.payments, sched.rebates):
        lines.append(",".join(format(float(c), ".12g") for c in row) + "\n")
    return "".join(lines)


def loop_scaled_integral(dist, m, threshold: float) -> float:
    """G(threshold) by the per-piece moment loop the solver ran on its own.

    Kept verbatim, with ``loop_revenue_quadrature``, as the bitwise reference
    for ``numerics.power_product_integral``, which replaced both loops.
    """
    c = 1.0 / (m.ratio - 1.0)
    top = threshold / dist.vmax
    total = 0.0
    for lo, hi, terms in piece_tuples(dist.psi_pieces()):
        if lo >= threshold:
            break
        s_lo = lo / threshold
        s_hi = min(hi, threshold) / threshold
        for a, e in terms:
            q = e + c + 1.0
            total += a * top**e * (s_hi**q - s_lo**q) / q
    return total


def loop_revenue_quadrature(mech, dist) -> float:
    """Expected revenue by the partition-merge loop the revenue ran on its own."""
    from roi_auction.revenue import _shared_support

    vmax = _shared_support(mech, dist)
    pay = piece_tuples(mech.pieces())
    # the density's terms, restated in the rule's t = v / vmax
    rescale = vmax / dist.vmax
    density = piece_tuples(dist.pdf_pieces())
    dens = [(lo, [(b * rescale**k, k) for b, k in f]) for lo, _, f in density]
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
    return vmax * total


def eager_schedule_columns(rule, m, grid_n: int) -> dict:
    """A derived schedule's five columns as the package built them before it
    sampled on first read: the candidate grid, then the running-max sweep.

    The bodies are kept verbatim, as the bitwise reference for the lazy
    ``PaymentSchedule``; the sweep returns its columns instead of a schedule.
    """
    import sys

    from roi_auction.errors import ConstructionError

    # _candidate_grid
    if grid_n < 2:
        raise ConstructionError("payment grids need at least two points")
    uniform = np.linspace(0.0, rule.vmax, grid_n)
    grid = np.unique(np.concatenate([uniform, rule.knots(), rule.stationary_candidates(m.ratio)]))

    # the schedule's overflow refusal and running-max sweep
    # with x in [0, 1], g, R - g and p = v x - (R - g) stay within (ratio + 1) vmax;
    # keep that a factor 2 inside the float range, for the revenue sums built on it
    if not (m.ratio + 1.0) * rule.vmax <= sys.float_info.max / 2.0:
        raise ConstructionError(
            f"ROI ratio {m.ratio!r} times vmax {rule.vmax!r} leaves the float range; "
            "payments would overflow"
        )
    # _envelope
    x, area = masked_per_segment(rule, grid)
    vx = grid * x
    pt = vx - area
    g = m.ratio * pt - vx
    reb = np.maximum.accumulate(g)
    return {
        "grid": grid,
        "allocations": x,
        "myerson": pt,
        "rebates": reb,
        "payments": grid * x - (reb - g),
    }


def composed_standard_audit(mech):
    """``run_standard_audit`` composed of the public checks, each run on its own.

    This is the battery as the package ran it before its checks shared one
    truthful-outcome evaluation: ``check_characterization``, ``check_dsic`` and
    ``check_ir`` each evaluate the mechanism afresh. The uniqueness probe is
    built here from its definition: truthful outcomes on the broadcast audit
    grid, each offset added to the payments from vmax / 2 on, the largest IR
    violation taken directly and the misreport search over whole matrices.
    """
    from roi_auction.audit import (
        AUDIT_GRID_N,
        DSIC_TOL,
        IR_TOL,
        PROBE_OFFSETS,
        AuditCheck,
        AuditReport,
        check_characterization,
        check_dsic,
        check_ir,
    )
    from roi_auction.payments import FEASIBILITY_TOL

    def uniqueness_probe(mech):
        vmax = mech.allocation.vmax
        grid = broadcast_audit_grid(mech, AUDIT_GRID_N)
        x = mech.allocation.evaluate(grid)
        pays = mech.value_many(grid)
        uncaught: list[float] = []
        for off in PROBE_OFFSETS:
            shifted = np.where(grid >= vmax / 2.0, pays + off * max(1.0, vmax), pays)
            ir_passed = max(float(np.max(shifted - grid * x)), 0.0) <= IR_TOL
            _, dsic_passed, _ = full_matrix_dsic(
                grid, x, shifted, mech.m.ratio, DSIC_TOL, FEASIBILITY_TOL
            )
            if ir_passed and dsic_passed:
                uncaught.append(off)
        witness = {"offsets": list(PROBE_OFFSETS), "uncaught": uncaught}
        return AuditCheck("uniqueness_probe", not uncaught, float(len(uncaught)), witness)

    mono = mech.allocation.check_monotone()
    checks = (
        AuditCheck(
            "monotone",
            mono.passed,
            mono.worst_violation,
            None if mono.passed else {"at_v": mono.at_v},
        ),
        check_characterization(mech),
        check_dsic(mech),
        check_ir(mech),
        uniqueness_probe(mech),
    )
    return AuditReport(checks)


def loop_payment_pieces(sched) -> list:
    """Truthful payments of a derived schedule as power terms in t = v / vmax.

    On a rule piece x = sum a t^e, with C = integral_0^lo x, the envelope
    payment is p~ = sum vmax a e / (e + 1) t^(e+1) + K, K = sum vmax a
    (lo / vmax)^(e+1) / (e + 1) - C, and the violation is g = ratio p~ - v x. The
    pieces are cut at the rule's stationary candidates, so g is monotone on
    each; a left-to-right pass carries the running max R of g (from g(0) = 0)
    and splits a rising piece where g crosses R. Where g is the max the piece
    is tight, p = v x; elsewhere it is flat, p = ratio p~ - R.

    Kept verbatim, with ``_loop_rising_root``, as the bitwise reference for the
    array walk behind ``PaymentSchedule.pieces``, which replaced both.
    """
    rule = sched.allocation
    ratio = sched.m.ratio
    vmax = rule.vmax
    pieces = piece_tuples(rule.pieces())
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
                cross = _loop_rising_root(g, ratio * env0 - best, l, u, vmax)
                out.append((l, cross, (*flat, (ratio * env0 - best, 0.0))))
                l = cross
            out.append((l, u, tight))
            best = g_u
    return out


def _loop_rising_root(
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


def loop_psi_pieces(dist) -> tuple[PowerPiece, ...]:
    """v f(v) + F(v) - 1 as power terms in v / vmax, by the per-piece loop
    ``ValueDistribution._psi_pieces`` ran on tuples of the density's pieces.

    Kept verbatim as the bitwise reference for the array arithmetic that
    replaced it; the density's rows come in through ``piece_tuples``.
    """
    vmax = dist.vmax
    pieces = piece_tuples(dist.pdf_pieces())
    starts = dist._cdf(np.asarray([lo for lo, _, _ in pieces]))
    out = []
    for (lo, hi, terms), start in zip(pieces, starts):
        t0 = lo / vmax
        const = float(start) - 1.0
        for b, k in terms:
            const -= vmax * b * t0 ** (k + 1.0) / (k + 1.0)
        lifted = tuple((vmax * b * (k + 2.0) / (k + 1.0), k + 1.0) for b, k in terms)
        out.append((lo, hi, lifted + ((const, 0.0),)))
    return tuple(out)


def tuple_power_product_integral(left, right, span: float, rescale: float) -> float:
    """``numerics.power_product_integral`` as it ran on lists of (lo, hi, terms) tuples.

    Kept verbatim as the bitwise reference for the array form that replaced it.
    """
    left = [piece for piece in left if piece[0] < span]
    right = [(lo, hi, [(b * rescale**k, k) for b, k in f]) for lo, hi, f in right if lo < span]
    left_los, right_los = [p[0] for p in left], [p[0] for p in right]
    cuts = sorted({0.0, span, *(v for v in left_los + right_los if 0.0 < v < span)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        r_terms = right[bisect.bisect_right(right_los, mid) - 1][2]
        t_lo, t_hi = lo / span, hi / span
        for a, e in left[bisect.bisect_right(left_los, mid) - 1][2]:
            for b, k in r_terms:
                q = e + k + 1.0
                total += a * (t_hi**q - t_lo**q) * b / q
    return total


def full_grid_sweep(sched, a):
    """(x, R, p) at the points a of a derived schedule: x and its integral from
    ``masked_per_segment``, the stored running max looked up by a binary search
    of the whole grid."""
    rule = sched.allocation
    x, area = masked_per_segment(rule, a)
    vx = a * x
    g = sched.m.ratio * (vx - area) - vx
    idx = np.searchsorted(sched.grid, a, side="right") - 1
    prev = np.where(idx >= 0, sched.rebates[np.maximum(idx, 0)], 0.0)
    reb = np.maximum(np.maximum(prev, g), 0.0)
    return x, reb, a * x - (reb - g)


def masked_per_segment(rule, v):
    """``AllocationRule._per_segment``, (x, integral of x from 0), with each point's
    segment found by a binary search of the segment starts, then one boolean gather
    and scatter per segment and output: the lookup the run slices replaced, kept as
    their reference."""
    from roi_auction.allocation import _JOIN_TOL
    from roi_auction.errors import DomainError

    arr = np.asarray(v, dtype=float)
    a = np.atleast_1d(arr)
    if a.size:
        slack = _JOIN_TOL * max(1.0, rule.vmax)
        if float(np.min(a)) < -slack or float(np.max(a)) > rule.vmax + slack:
            raise DomainError(f"evaluation point outside [0, {rule.vmax}]")
    a = np.clip(a, 0.0, rule.vmax)
    idx = np.clip(np.searchsorted(rule._los, a, side="right") - 1, 0, len(rule.segments) - 1)
    outs = [np.empty_like(a), np.empty_like(a)]
    for i, seg in enumerate(rule.segments):
        mask = idx == i
        if np.any(mask):
            points = a[mask]
            outs[0][mask] = seg.shape.value(points)
            outs[1][mask] = rule._cum[i] + seg.shape.integral(seg.lo, points)
    return tuple(float(out[0]) if arr.ndim == 0 else out for out in outs)



def grid_check_monotone(rule, grid_n: int) -> tuple[bool, float, float | None]:
    """(passed, worst_violation, at_v) of ``AllocationRule.check_monotone`` as it
    was with a grid: the drops on a grid_n-point linspace plus the knots, then
    the jumps and each segment's or table cell's end-to-end fall."""
    from roi_auction.allocation import MONOTONE_TOL

    grid = np.unique(np.concatenate([np.linspace(0.0, rule.vmax, grid_n), rule.knots()]))
    x = rule.evaluate(grid)
    drops = x[:-1] - x[1:]
    worst = float(np.max(drops))
    at = float(grid[int(np.argmax(drops))])
    for v0, left, right in rule.jump_points():
        if left - right > worst:
            worst = left - right
            at = v0
    for seg in rule.segments:
        ends = np.asarray((seg.lo, *seg.shape.interior_knots(seg.lo, seg.hi), seg.hi))
        falls = seg.shape.value(ends[:-1]) - seg.shape.value(ends[1:])
        i = int(np.argmax(falls))
        if falls[i] > worst:
            worst = float(falls[i])
            at = float(ends[i])
    return worst <= MONOTONE_TOL, max(worst, 0.0), at if worst > 0.0 else None


def searched_quantile(dist, u):
    """A table kind's quantile with each point's piece found by a binary search
    of the table and its coefficients gathered per point: the lookup the run
    slices replaced, kept as their reference. u lies in [0, 1] up to roundoff."""
    from roi_auction.distributions import TabulatedCdf

    arr = np.asarray(u, dtype=float)
    u = np.clip(np.atleast_1d(arr), 0.0, 1.0)
    if isinstance(dist, TabulatedCdf):
        Fs, vs = dist._Fs, dist._vs
        i = np.clip(np.searchsorted(Fs, u, side="left"), 0, Fs.size - 1)
        exact = Fs[i] == u
        lo = np.clip(i - 1, 0, Fs.size - 1)
        dF = Fs[i] - Fs[lo]
        frac = np.where(dF > 0.0, (u - Fs[lo]) / np.where(dF > 0.0, dF, 1.0), 0.0)
        out = np.where(exact, vs[i], vs[lo] + frac * (vs[i] - vs[lo]))
    else:
        (b, d), cum = dist._arrays, dist._cum
        i = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, b.size - 2)
        width = b[i + 1] - b[i]
        slope = dist._slopes[i]
        du = u - cum[i]
        disc = np.maximum(d[i] ** 2 + 2.0 * slope * du, 0.0)
        denom = d[i] + np.sqrt(disc)
        t = np.where(denom > 0.0, 2.0 * du / np.where(denom > 0.0, denom, 1.0), 0.0)
        out = np.minimum(b[i] + np.minimum(t, width), dist.vmax)
    return float(out[0]) if arr.ndim == 0 else out


def per_point_pieces(pieces, v, vmax: float) -> np.ndarray:
    """The curve of ``pieces`` at points v in [0, vmax], in any order, point by
    point: each point's row found by a binary search of the row starts, then
    its live terms summed in column order from +0.0, each power t^q exact for
    q in {0, 1, 2} (1, t, t * t) and libm ``pow`` otherwise. The per-point form
    of ``numerics.sum_sorted``, kept as its reference."""
    v = np.clip(np.asarray(v, dtype=float), 0.0, vmax)
    row = np.searchsorted(pieces.lo, v, side="right") - 1
    t = v / vmax
    total = np.zeros_like(t)
    for coef, q in zip(pieces.coef[row].T, pieces.expo[row].T):
        power = np.where(
            q == 0.0, 1.0, np.where(q == 1.0, t, np.where(q == 2.0, t * t, np.float_power(t, q)))
        )
        total = np.where(coef != 0.0, total + coef * power, total)
    return total
