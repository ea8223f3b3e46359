"""Root bracketing, integration, the piecewise power-term format, domain checks
and the sorted order that piecewise lookups read their points in.

The routines are deliberately small and deterministic: plain bisection with
an explicit bracket-width stopping rule, the closed-form integral of the
product of two ``Pieces`` (the threshold solve's G and the expected revenue),
one ``Pieces`` summed on sorted points (the Monte Carlo payments), and
adaptive Simpson with an absolute-tolerance budget split across
subintervals. No library path calls adaptive Simpson; it stays only because
the benchmark's tracer, ``perfbench/tracing.py``, wraps it by name.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError

#: roundoff past either end of [0, vmax], in units of max(1, vmax), that points may carry
_SUPPORT_SLACK = 1e-12


def _prepare(v, vmax: float, slack: float = _SUPPORT_SLACK) -> tuple[np.ndarray, bool]:
    """(points, v is a scalar): v as a float array, with points outside [0, vmax]
    by more than slack max(1, vmax), or nan, refused and roundoff clipped onto it.
    Points that need no clipping come back as they are, not copied."""
    arr = np.asarray(v, dtype=float)
    a = np.atleast_1d(arr)
    if a.size:
        lo, hi = float(np.minimum.reduce(a, axis=None)), float(np.maximum.reduce(a, axis=None))
        pad = slack * max(1.0, vmax)
        if not (lo >= -pad and hi <= vmax + pad):  # nan fails it too
            raise DomainError(f"point {hi if lo >= -pad else lo!r} outside [0, {vmax}]")
        if lo < 0.0 or hi > vmax:
            a = np.clip(a, 0.0, vmax)
    return a, arr.ndim == 0


def _in_order(fn, a: np.ndarray) -> tuple[np.ndarray, ...]:
    """fn(a), arrays shaped as the points a, from fn on a flattened and in
    non-decreasing order: other points are ``_permuted``, so no result depends
    on their order or shape. The one place a lookup's points are sorted."""
    flat = a.reshape(-1)
    shuffled = flat.size > 1 and np.less(flat[1:], flat[:-1]).any()
    outs = _permuted(fn, flat) if shuffled else fn(flat)
    return tuple(out.reshape(a.shape) for out in outs)


def _permuted(fn, a: np.ndarray) -> tuple[np.ndarray, ...]:
    """fn on a stably sorted copy of a, each output gathered back to a's order."""
    order = np.argsort(a, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(a.size)
    return tuple(out[inverse] for out in fn(a[order]))


class Pieces(NamedTuple):
    """The one piecewise power format: densities, psi, allocation rules and payments
    all lower to it. On [lo[i], hi[i]) the curve is the sum over j of coef[i, j]
    t^expo[i, j], t = v / vmax; lo and hi have shape (n,), coef and expo (n, k),
    and a zero coefficient is an absent term."""

    lo: np.ndarray
    hi: np.ndarray
    coef: np.ndarray
    expo: np.ndarray


def _pow(t: np.ndarray, q: float) -> np.ndarray:
    """t^q written over t, which it returns: exact for q in {0, 1, 2} (ones, t,
    the correctly rounded t * t) and libm ``pow`` per element
    (``np.float_power``) otherwise, so no float depends on numpy's CPU
    dispatch."""
    if q == 0.0:
        t.fill(1.0)
    elif q == 2.0:
        np.multiply(t, t, out=t)
    elif q != 1.0:
        np.float_power(t, q, out=t)
    return t


class PieceTerms(NamedTuple):
    """``Pieces`` lowered for ``sum_sorted``: the row starts past the first, and
    one entry per live (column, exponent) pair, in column order: (first row,
    end row, the coefficients of the rows from first to end, 0.0 where the
    pair is absent, exponent)."""

    starts: np.ndarray
    terms: tuple[tuple[int, int, np.ndarray, float], ...]


def piece_terms(p: Pieces) -> PieceTerms:
    """The terms of p that ``sum_sorted`` evaluates one slice each. A term
    spans the rows from the first to the last where it is live; zero
    coefficients are absent terms, whatever their exponent. Exponents must
    not be negative, as no payment's is, so that an absent term adds 0."""
    live = p.coef != 0.0
    if np.any(p.expo[live] < 0.0):
        raise ValueError("sum_sorted needs non-negative exponents")
    terms = []
    for j in range(p.coef.shape[1]):
        for q in np.unique(p.expo[live[:, j], j]).tolist():
            has = live[:, j] & (p.expo[:, j] == q)
            rows = np.flatnonzero(has)
            r0, r1 = int(rows[0]), int(rows[-1]) + 1
            terms.append((r0, r1, np.where(has[r0:r1], p.coef[r0:r1, j], 0.0), q))
    return PieceTerms(p.lo[1:], tuple(terms))


def sum_sorted(lowered: PieceTerms, a: np.ndarray, vmax: float) -> np.ndarray:
    """The curve at points a in [0, vmax], in non-decreasing order, each point
    on the last row starting at or below it (right-continuous).

    One search of the row starts in the points splits them into rows. Each
    term is one slice of the points, the rows it spans: t = a / vmax, then
    ``_pow`` of it, times the rows' coefficients repeated over their point
    counts, added to a sum that starts at +0.0. A point's absent terms add
    +-0.0 (t^q is finite), which leaves a sum that started at +0.0 as it was,
    so each point's float is the sum of its own live terms in column order
    from +0.0, as at that point alone. The Python steps are one per term, not
    one per row."""
    bounds = np.concatenate(([0], a.searchsorted(lowered.starts, side="left"), [a.size]))
    ends, sizes = bounds.tolist(), bounds[1:] - bounds[:-1]
    out = np.zeros_like(a)
    work = np.empty_like(a)
    for r0, r1, coef, q in lowered.terms:
        lo, hi = ends[r0], ends[r1]
        if hi > lo:
            term = _pow(np.divide(a[lo:hi], vmax, out=work[:hi - lo]), q)
            term *= coef.repeat(sizes[r0:r1])
            out[lo:hi] += term
    return out


def power_product_integral(left: Pieces, right: Pieces, span: float, rescale: float) -> float:
    """Integral over t = v / span in [0, 1] of the product of two piecewise power curves.

    Both tile [0, ...) in order, bounded in v. A left term (a, e) is a t^e,
    and a right term (b, k), b (rescale t)^k, is restated as b rescale^k t^k.
    Pieces starting at or beyond span add nothing; each cell [l, u] of the
    merged partition adds, pair by pair in term order, the moment

        integral_l^u a t^e b t^k dt = a b (u^q - l^q) / q,  q = e + k + 1.

    Zero left terms are absent and skipped. The cells stay a Python loop: the
    solve makes hundreds of one-cell calls, where a numpy form cost 65 us each.
    """
    scaled = right.coef * np.float_power(rescale, right.expo)
    left_los, right_los = left.lo.tolist(), right.lo.tolist()
    # each row's (coefficient, exponent) pairs as floats, built column by column
    left_terms = list(zip(*map(zip, left.coef.T.tolist(), left.expo.T.tolist())))
    right_terms = list(zip(*map(zip, scaled.T.tolist(), right.expo.T.tolist())))
    cuts = sorted({0.0, span, *(v for v in left_los + right_los if 0.0 < v < span)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        r_terms = right_terms[bisect.bisect_right(right_los, mid) - 1]
        t_lo, t_hi = lo / span, hi / span
        for a, e in left_terms[bisect.bisect_right(left_los, mid) - 1]:
            if a == 0.0:
                continue
            for b, k in r_terms:
                q = e + k + 1.0
                total += a * (t_hi**q - t_lo**q) * b / q
    return total


#: Bisection steps bisect_root takes at most before returning its bracket midpoint.
BISECT_MAX_ITER = 200


def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> tuple[float, float]:
    """Recursive step; returns (value, error_estimate)."""
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol or depth <= 0:
        return left + right + delta / 15.0, abs(delta) / 15.0
    lv, le = _adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
    rv, re = _adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    return lv + rv, le + re


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float,
    *,
    forced_nodes: Iterable[float] = (),
    max_depth: int = 48,
) -> float:
    """Integrate f over [a, b] to an absolute tolerance.

    ``forced_nodes`` are interior points (kinks, jumps) at which the domain is
    split before adaptation so that each piece is smooth inside. Raises
    :class:`QuadratureError` when the accumulated error estimate exceeds the
    requested tolerance after the depth budget is spent.
    """
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError(f"empty integration interval [{a}, {b}]")
    nodes = sorted({float(x) for x in forced_nodes if a < x < b})
    cuts = [a, *nodes, b]
    total = 0.0
    err = 0.0
    span = b - a
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        tol_piece = abs_tol * (hi - lo) / span
        fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
        whole = _simpson(fa, fm, fb, lo, hi)
        val, e = _adaptive(f, lo, hi, fa, fm, fb, whole, tol_piece, max_depth)
        total += val
        err += e
    if err > abs_tol:
        raise QuadratureError(
            f"quadrature did not converge: error estimate {err:.3e} > {abs_tol:.3e}",
            achieved_tol=err,
        )
    return total


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    x_tol: float,
) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must not share a sign.

    Stops when the bracket is narrower than ``x_tol``, or after
    ``BISECT_MAX_ITER`` steps, and returns its midpoint.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= x_tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)

