"""Root bracketing, scalar quadrature and the piecewise power-term format.

Both routines are deliberately small and deterministic: plain bisection with
an explicit bracket-width stopping rule, and adaptive Simpson with an
absolute-tolerance budget split across subintervals. No library path calls
adaptive Simpson (the threshold solve and the revenue are exact); it stays
only because the benchmark's tracer, ``perfbench/tracing.py``, wraps it by
name.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import QuadratureError

#: (lo, hi, ((a, e), ...)): a curve equal to the sum of a * (v / vmax)^e for lo <= v < hi;
#: densities, allocation rules and payments are lowered to tuples of these
PowerPiece = tuple[float, float, tuple[tuple[float, float], ...]]

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

