"""Value distributions on [0, vmax] and their revenue-theory curves.

Every distribution exposes the CDF F, a density f, and the density-weighted
virtual value v f(v) + F(v) - 1 whose monotonicity (the DMR property) gates
the threshold solver. Tabulated and piecewise kinds store the density and
integrate it exactly; no numerical differentiation happens at runtime.

Each kind lowers only its density, to ``numerics.Pieces`` of power terms in
the normalized value t = v / vmax (``pdf_pieces``, which a user subclass must
return as ``Pieces`` too). The base class derives the weighted curve's pieces
from them by array arithmetic (``psi_pieces``), which is what lets the
threshold solver and the revenue integral work in closed form.
"""

from __future__ import annotations

import abc
import math
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .errors import ConstructionError, DescriptorError, DomainError
from .errors import descriptor_number, descriptor_numbers, descriptor_pairs
from .numerics import Pieces

_SUPPORT_SLACK = 1e-12


def _prepare(v: Any, vmax: float) -> tuple[np.ndarray, bool]:
    """Coerce to a float array, reject points outside [0, vmax], clip roundoff."""
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    if a.size:
        slack = _SUPPORT_SLACK * max(1.0, vmax)
        lo = float(np.min(a))
        hi = float(np.max(a))
        if lo < -slack or hi > vmax + slack:
            bad = lo if lo < -slack else hi
            raise DomainError(f"value {bad!r} outside support [0, {vmax}]")
    return np.clip(a, 0.0, vmax), scalar


def _ret(a: np.ndarray, scalar: bool):
    return float(a[0]) if scalar else a


@dataclass(frozen=True)
class DmrReport:
    """Outcome of a grid check that v f(v) + F(v) - 1 is non-decreasing."""

    passed: bool
    worst_drop: float
    worst_at: float | None
    first_violation_at: float | None
    grid_n: int
    tol: float

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        if self.passed:
            return f"DMR: pass (worst drop {self.worst_drop:.3e} on {self.grid_n}-point grid)"
        return (
            f"DMR: FAIL (worst drop {self.worst_drop:.6g} at v={self.worst_at:.6g}, "
            f"first violation at v={self.first_violation_at:.6g})"
        )


class ValueDistribution(abc.ABC):
    """A value distribution on [0, vmax] with F(0) = 0 and F(vmax) = 1."""

    vmax: float

    @abc.abstractmethod
    def _cdf(self, v: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _pdf(self, v: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _quantile(self, u: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def pdf_pieces(self) -> Pieces:
        """The density f(v) as power terms in v / vmax.

        Its rows tile [0, vmax] in order; on [lo, hi) the density equals the sum
        of b * (v / vmax)^k over the row's (b, k) terms, with every k >= 0.
        """

    @abc.abstractmethod
    def descriptor(self) -> dict: ...

    def cdf(self, v):
        a, scalar = _prepare(v, self.vmax)
        return _ret(self._cdf(a), scalar)

    def pdf(self, v):
        a, scalar = _prepare(v, self.vmax)
        return _ret(self._pdf(a), scalar)

    def _psi(self, v: np.ndarray) -> np.ndarray:
        return v * self._pdf(v) + self._cdf(v) - 1.0

    def marginal_revenue(self, v):
        """Density-weighted virtual value v f(v) + F(v) - 1."""
        a, scalar = _prepare(v, self.vmax)
        return _ret(self._psi(a), scalar)

    def psi_pieces(self) -> Pieces:
        """v f(v) + F(v) - 1 as power terms in v / vmax, on the rows of
        ``pdf_pieces``: each density term lifted, then the constant."""
        return self._psi_pieces

    @cached_property
    def _psi_pieces(self) -> Pieces:
        # on a row from t0 = lo / vmax each density term b t^k gives v f the term
        # vmax b t^(k+1) and F the term vmax b (t^(k+1) - t0^(k+1)) / (k+1) over F(lo);
        # the constant subtracts those terms at t0 in order, as floats do one by one
        vmax = self.vmax
        lo, hi, b, k = self.pdf_pieces()
        k1 = k + 1.0
        const = self._cdf(lo) - 1.0
        # as in Python float arithmetic, an overflow passes on silently
        with np.errstate(over="ignore", invalid="ignore"):
            for term in (vmax * b * np.float_power((lo / vmax)[:, None], k1) / k1).T:
                const = const - term
            lifted = vmax * b * (k + 2.0) / k1
        coef = np.concatenate([lifted, const[:, None]], axis=1)
        return Pieces(lo, hi, coef, np.concatenate([k1, np.zeros_like(const)[:, None]], axis=1))

    def quantile(self, u):
        """Generalized inverse of the CDF; exact where closed forms exist."""
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 0
        a = np.atleast_1d(arr)
        if a.size and (float(np.min(a)) < -1e-15 or float(np.max(a)) > 1.0 + 1e-15):
            raise DomainError("quantile argument outside [0, 1]")
        a = np.clip(a, 0.0, 1.0)
        return _ret(self._quantile(a), scalar)

    def _piece_probes(self) -> tuple[list[float], list[float]]:
        """Pairs (start, end) of points inside each ``psi_pieces`` piece between
        which psi is monotone: the piece's start, a quadratic piece's vertex
        strictly inside it, and one float below its end. Every kind's psi piece
        is monotone or a quadratic, so psi falls inside a piece only across a pair.
        """
        starts: list[float] = []
        ends: list[float] = []
        for lo, hi, coef, expo in zip(*(col.tolist() for col in self.psi_pieces())):
            points = [lo]
            a2 = sum(a for a, e in zip(coef, expo) if e == 2.0)
            if a2 != 0.0:
                vertex = -sum(a for a, e in zip(coef, expo) if e == 1.0) / (2.0 * a2) * self.vmax
                if lo < vertex < hi:
                    points.append(vertex)
            points.append(math.nextafter(hi, 0.0))
            starts += points[:-1]
            ends += points[1:]
        return starts, ends

    def check_dmr(self, grid_n: int = 1001) -> DmrReport:
        """Test that the density-weighted virtual value never decreases: on a
        grid, across every interior breakpoint of ``pdf_pieces``, and, where
        those find no violation, inside each piece (``_piece_probes``)."""
        if grid_n < 2:
            raise ConstructionError("check_dmr needs at least two grid points")
        try:
            grid = np.linspace(0.0, self.vmax, grid_n)
        except (ValueError, MemoryError):
            raise ConstructionError(f"cannot hold a {grid_n}-point DMR grid in memory") from None
        with np.errstate(over="ignore", invalid="ignore"):
            starts, ends = self._piece_probes()
            points = np.concatenate([grid, starts, ends])
            psi_all = self._psi(points)
        if not np.all(np.isfinite(psi_all)):
            where = float(points[int(np.argmin(np.isfinite(psi_all)))])
            raise DomainError(f"v f(v) + F(v) - 1 is not a finite float at v={where:.6g}")
        psi, psi_starts, psi_ends = np.split(psi_all, [grid_n, grid_n + len(starts)])
        tol = 1e-9 * max(1.0, abs(float(psi[-1])))
        drops = psi[:-1] - psi[1:]
        worst_idx = int(np.argmax(drops))
        worst = float(drops[worst_idx])
        worst_at = float(grid[worst_idx]) if worst > 0.0 else None
        violating = drops > tol
        first = float(grid[int(np.argmax(violating))]) if np.any(violating) else None
        # F is continuous, so psi falls by b (f(b-) - f(b+)) where the density falls at
        # a breakpoint b, which a rising grid cell across b can hide; f(b-) is the
        # density one float below b, on the left piece
        knots = self.pdf_pieces().lo[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            jumps = knots * (self._pdf(np.nextafter(knots, 0.0)) - self._pdf(knots))
        for b, drop in zip(knots.tolist(), jumps.tolist()):
            if drop > tol:
                if drop > worst:
                    worst, worst_at = drop, b
                first = b if first is None else min(first, b)
        falls = psi_starts - psi_ends
        inside = falls > tol
        if first is None and np.any(inside):
            i = int(np.argmax(falls))
            worst, worst_at = float(falls[i]), starts[i]
            first = starts[int(np.argmax(inside))]
        return DmrReport(
            passed=first is None,
            worst_drop=max(worst, 0.0),
            worst_at=worst_at,
            first_violation_at=first,
            grid_n=grid_n,
            tol=tol,
        )


@dataclass(frozen=True)
class UniformDistribution(ValueDistribution):
    vmax: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.vmax) and self.vmax > 0.0):
            raise ConstructionError(f"vmax must be positive and finite, got {self.vmax}")

    def _cdf(self, v):
        return v / self.vmax

    def _pdf(self, v):
        return np.full_like(v, 1.0 / self.vmax)

    def _quantile(self, u):
        return u * self.vmax

    def pdf_pieces(self) -> Pieces:
        coef = np.array([[1.0 / self.vmax]])
        return Pieces(np.array([0.0]), np.array([self.vmax]), coef, np.zeros((1, 1)))

    def descriptor(self) -> dict:
        return {"kind": "uniform", "vmax": self.vmax}


@dataclass(frozen=True)
class PowerCdfDistribution(ValueDistribution):
    """F(v) = (v / vmax)^exponent with exponent >= 1, so the density is bounded."""

    exponent: float
    vmax: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.vmax) and self.vmax > 0.0):
            raise ConstructionError(f"vmax must be positive and finite, got {self.vmax}")
        if not (math.isfinite(self.exponent) and self.exponent >= 1.0):
            raise ConstructionError(f"exponent must be >= 1, got {self.exponent}")

    def _cdf(self, v):
        return (v / self.vmax) ** self.exponent

    def _pdf(self, v):
        # normalized first, so a huge vmax cannot overflow vmax**k
        k = self.exponent
        return (k / self.vmax) * (v / self.vmax) ** (k - 1.0)

    def _quantile(self, u):
        return self.vmax * u ** (1.0 / self.exponent)

    def pdf_pieces(self) -> Pieces:
        k = self.exponent
        coef, expo = np.array([[k / self.vmax]]), np.array([[k - 1.0]])
        return Pieces(np.array([0.0]), np.array([self.vmax]), coef, expo)

    def descriptor(self) -> dict:
        return {"kind": "power_cdf", "vmax": self.vmax, "exponent": self.exponent}


@dataclass(frozen=True)
class PiecewiseLinearDensity(ValueDistribution):
    """Density interpolated linearly between breakpoints; CDF integrated exactly."""

    breakpoints: tuple[float, ...]
    densities: tuple[float, ...]

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        d = np.asarray(self.densities, dtype=float)
        if b.size < 2 or b.size != d.size:
            raise ConstructionError("need matching breakpoints and densities, at least two")
        if b[0] != 0.0:
            raise ConstructionError("support must start at 0")
        if np.any(np.diff(b) <= 0.0):
            raise ConstructionError("breakpoints must be strictly increasing")
        if np.any(d < 0.0) or not np.all(np.isfinite(d)):
            raise ConstructionError("densities must be finite and non-negative")
        object.__setattr__(self, "breakpoints", tuple(float(x) for x in b))
        object.__setattr__(self, "densities", tuple(float(x) for x in d))
        # the density and CDF divide each step by its piece width first; below the
        # smallest normal float that slope has lost digits, or the whole step
        slopes = self._slopes
        lost = (np.diff(d) != 0.0) & (np.abs(slopes) < sys.float_info.min)
        if np.any(lost):
            i = int(np.argmax(lost))
            raise ConstructionError(
                f"density slope {float(slopes[i])!r} on [{float(b[i])!r}, {float(b[i + 1])!r}] "
                "is below the smallest normal float; the density cannot be represented"
            )
        mass = float(np.sum(0.5 * (d[:-1] + d[1:]) * np.diff(b)))
        if abs(mass - 1.0) > 1e-9:
            raise ConstructionError(f"density integrates to {mass!r}, expected 1")

    @property
    def vmax(self) -> float:
        return self.breakpoints[-1]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.breakpoints), np.asarray(self.densities)

    @cached_property
    def _slopes(self) -> np.ndarray:
        """Each piece's density slope (d[i+1] - d[i]) / (b[i+1] - b[i])."""
        b, d = self._arrays
        with np.errstate(over="ignore"):
            return np.diff(d) / np.diff(b)

    @cached_property
    def _cum(self) -> np.ndarray:
        b, d = self._arrays
        return np.concatenate([[0.0], np.cumsum(0.5 * (d[:-1] + d[1:]) * np.diff(b))])

    def _pdf(self, v):
        return np.interp(v, *self._arrays)

    def _cdf(self, v):
        b, d = self._arrays
        i = np.clip(np.searchsorted(b, v, side="right") - 1, 0, b.size - 2)
        slope = self._slopes[i]
        t = v - b[i]
        return np.minimum(self._cum[i] + d[i] * t + 0.5 * slope * t * t, 1.0)

    def _quantile(self, u):
        (b, d), cum = self._arrays, self._cum
        i = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, b.size - 2)
        width = b[i + 1] - b[i]
        slope = self._slopes[i]
        du = u - cum[i]
        # root of 0.5 s t^2 + f t - du in its stable form, valid for every slope sign
        disc = np.maximum(d[i] ** 2 + 2.0 * slope * du, 0.0)
        denom = d[i] + np.sqrt(disc)
        t = np.where(denom > 0.0, 2.0 * du / np.where(denom > 0.0, denom, 1.0), 0.0)
        return np.minimum(b[i] + np.minimum(t, width), self.vmax)

    def pdf_pieces(self) -> Pieces:
        # f = d_i + slope (v - b_i), with slope per unit t = v / vmax
        vmax, (b, d) = self.vmax, self._arrays
        s = self._slopes * vmax
        coef = np.array([d[:-1] - s * b[:-1] / vmax, s]).T
        return Pieces(b[:-1], b[1:], coef, np.broadcast_to([0.0, 1.0], coef.shape))

    def descriptor(self) -> dict:
        return {
            "kind": "piecewise_linear_density",
            "vmax": self.vmax,
            "breakpoints": list(self.breakpoints),
            "densities": list(self.densities),
        }


@dataclass(frozen=True)
class TabulatedCdf(ValueDistribution):
    """CDF given at sorted sample points and interpolated linearly between them.

    The implied density is the per-segment slope, hence piecewise constant.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(v), float(F)) for v, F in self.points)
        if len(pts) < 2:
            raise ConstructionError("need at least two (v, F) points")
        vs = np.asarray([p[0] for p in pts])
        Fs = np.asarray([p[1] for p in pts])
        if vs[0] != 0.0 or abs(Fs[0]) > 1e-12:
            raise ConstructionError("tabulated CDF must start at (0, 0)")
        if abs(Fs[-1] - 1.0) > 1e-12:
            raise ConstructionError("tabulated CDF must end at (vmax, 1)")
        if np.any(np.diff(vs) <= 0.0):
            raise ConstructionError("value points must be strictly increasing")
        if np.any(np.diff(Fs) < 0.0) or np.any(Fs < 0.0) or np.any(Fs > 1.0 + 1e-12):
            raise ConstructionError("CDF values must be non-decreasing within [0, 1]")
        pts = tuple(pts[:-1]) + ((pts[-1][0], 1.0),)
        object.__setattr__(self, "points", pts)

    @property
    def vmax(self) -> float:
        return self.points[-1][0]

    @cached_property
    def _vs(self) -> np.ndarray:
        return np.asarray([p[0] for p in self.points])

    @cached_property
    def _Fs(self) -> np.ndarray:
        return np.asarray([p[1] for p in self.points])

    @cached_property
    def _slopes(self) -> np.ndarray:
        return np.diff(self._Fs) / np.diff(self._vs)

    def _cdf(self, v):
        return np.interp(v, self._vs, self._Fs)

    def _pdf(self, v):
        # right-continuous: at a knot the next segment's slope applies
        i = np.clip(np.searchsorted(self._vs, v, side="right") - 1, 0, self._slopes.size - 1)
        return self._slopes[i]

    def _quantile(self, u):
        Fs = self._Fs
        vs = self._vs
        i = np.clip(np.searchsorted(Fs, u, side="left"), 0, Fs.size - 1)
        exact = Fs[i] == u
        lo = np.clip(i - 1, 0, Fs.size - 1)
        dF = Fs[i] - Fs[lo]
        frac = np.where(dF > 0.0, (u - Fs[lo]) / np.where(dF > 0.0, dF, 1.0), 0.0)
        interp = vs[lo] + frac * (vs[i] - vs[lo])
        return np.where(exact, vs[i], interp)

    def pdf_pieces(self) -> Pieces:
        slopes = self._slopes[:, None]
        return Pieces(self._vs[:-1], self._vs[1:], slopes, np.zeros_like(slopes))

    def descriptor(self) -> dict:
        return {
            "kind": "tabulated_cdf",
            "vmax": self.vmax,
            "points": [[v, F] for v, F in self.points],
        }


_REQUIRED_FIELDS = {
    "uniform": frozenset({"kind", "vmax"}),
    "power_cdf": frozenset({"kind", "vmax", "exponent"}),
    "piecewise_linear_density": frozenset({"kind", "vmax", "breakpoints", "densities"}),
    "tabulated_cdf": frozenset({"kind", "vmax", "points"}),
}


def distribution_from_descriptor(data: dict) -> ValueDistribution:
    """Build a distribution from its JSON-friendly descriptor; strict about fields."""
    if not isinstance(data, dict):
        raise DescriptorError(f"descriptor must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _REQUIRED_FIELDS:
        raise DescriptorError(f"unknown distribution kind {kind!r}")
    expected = _REQUIRED_FIELDS[kind]
    got = set(data)
    if got != expected:
        unknown = sorted(got - expected)
        missing = sorted(expected - got)
        raise DescriptorError(
            f"descriptor fields for kind {kind!r}: unknown {unknown}, missing {missing}"
        )
    vmax = descriptor_number(data["vmax"], "field 'vmax'")
    if kind == "uniform":
        return UniformDistribution(vmax=vmax)
    if kind == "power_cdf":
        return PowerCdfDistribution(descriptor_number(data["exponent"], "field 'exponent'"), vmax)
    if kind == "piecewise_linear_density":
        dist = PiecewiseLinearDensity(
            breakpoints=descriptor_numbers(data["breakpoints"], "field 'breakpoints'"),
            densities=descriptor_numbers(data["densities"], "field 'densities'"),
        )
    else:
        dist = TabulatedCdf(points=descriptor_pairs(data["points"], "field 'points'"))
    if abs(dist.vmax - vmax) > 1e-9 * vmax:
        raise DescriptorError(
            f"declared vmax {vmax!r} disagrees with the data endpoint {dist.vmax!r}"
        )
    return dist
