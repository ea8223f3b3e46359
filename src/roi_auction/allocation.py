"""Piecewise allocation rules on [0, vmax].

A rule is an ordered list of segments tiling [0, vmax], each carrying a shape
in global coordinates (constant, linear, power, or an interpolated table).
Evaluation is right-continuous at segment joins, so the stored value at a jump
is the post-jump one; prefix integrals use the per-shape closed forms, and
``pieces`` lowers a rule to power terms in v / vmax for exact integration.

Range ([0, 1]) and tiling are enforced at construction. Monotonicity is NOT:
check_monotone reports it, and the named constructors reject violations, which
lets audit code build deliberately broken rules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConditioningWarning, ConstructionError, DescriptorError, DomainError
from .numerics import PowerPiece

_RANGE_TOL = 1e-12
_JOIN_TOL = 1e-12
#: |ln x| below which x and 1 / x are both normal floats (ln of 2^-1022 is -708.4)
_LOG_NORMAL_RANGE = 708.0


@dataclass(frozen=True)
class Constant:
    level: float

    def validate(self, lo: float, hi: float) -> None:
        if not math.isfinite(self.level) or not -_RANGE_TOL <= self.level <= 1.0 + _RANGE_TOL:
            raise ConstructionError(f"constant level {self.level!r} outside [0, 1]")

    def value(self, v: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(v, dtype=float), self.level)

    def integral(self, a, b):
        return self.level * (np.asarray(b, dtype=float) - a)

    def stationary(self, lo: float, hi: float, ratio: float) -> tuple[float, ...]:
        return ()

    def interior_knots(self, lo: float, hi: float) -> tuple[float, ...]:
        return ()

    def pieces(self, lo: float, hi: float, vmax: float) -> tuple[PowerPiece, ...]:
        return ((lo, hi, ((self.level, 0.0),)),)

    def descriptor(self) -> dict:
        return {"type": "constant", "level": self.level}


@dataclass(frozen=True)
class Linear:
    """x(v) = slope * v + intercept, in global coordinates."""

    slope: float
    intercept: float

    def validate(self, lo: float, hi: float) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ConstructionError("linear shape needs finite slope and intercept")
        for end in (lo, hi):
            y = self.slope * end + self.intercept
            if not -_RANGE_TOL <= y <= 1.0 + _RANGE_TOL:
                raise ConstructionError(f"linear shape leaves [0, 1] at v={end!r} (x={y!r})")

    def value(self, v):
        return self.slope * np.asarray(v, dtype=float) + self.intercept

    def integral(self, a, b):
        b = np.asarray(b, dtype=float)
        return 0.5 * self.slope * (b * b - a * a) + self.intercept * (b - a)

    def stationary(self, lo: float, hi: float, ratio: float) -> tuple[float, ...]:
        # interior zero of g'(z) = slope * z * (ratio - 2) - intercept
        denom = self.slope * (ratio - 2.0)
        if denom == 0.0:
            return ()
        z = self.intercept / denom
        return (z,) if lo < z < hi else ()

    def interior_knots(self, lo: float, hi: float) -> tuple[float, ...]:
        return ()

    def pieces(self, lo: float, hi: float, vmax: float) -> tuple[PowerPiece, ...]:
        return ((lo, hi, ((self.intercept, 0.0), (self.slope * vmax, 1.0))),)

    def descriptor(self) -> dict:
        return {"type": "linear", "slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True)
class PowerRamp:
    """x(v) = scale * v ** exponent with scale >= 0 and exponent > 0."""

    scale: float
    exponent: float

    def validate(self, lo: float, hi: float) -> None:
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ConstructionError(f"power scale must be >= 0, got {self.scale!r}")
        if not (math.isfinite(self.exponent) and self.exponent > 0.0):
            raise ConstructionError(f"power exponent must be > 0, got {self.exponent!r}")
        try:
            top = self.scale * hi**self.exponent
        except OverflowError:
            raise ConstructionError(
                f"power shape needs {hi!r}**{self.exponent!r}, past the float range"
            ) from None
        if top > 1.0 + max(_RANGE_TOL, 1e-9 * top):
            raise ConstructionError(f"power shape exceeds 1 at v={hi!r} (x={top!r})")

    def value(self, v):
        return self.scale * np.asarray(v, dtype=float) ** self.exponent

    def integral(self, a, b):
        e1 = self.exponent + 1.0
        b = np.asarray(b, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.scale * (b**e1 - np.float64(a) ** e1) / e1
        if np.all(np.isfinite(out)):
            return out
        # v^(e+1) left the float range; v x(v) / (e+1) is the same antiderivative
        return (b * self.value(b) - a * self.value(a)) / e1

    def stationary(self, lo: float, hi: float, ratio: float) -> tuple[float, ...]:
        # g' keeps one sign on a power piece, so the extremes sit at the ends
        return ()

    def interior_knots(self, lo: float, hi: float) -> tuple[float, ...]:
        return ()

    def pieces(self, lo: float, hi: float, vmax: float) -> tuple[PowerPiece, ...]:
        # the coefficient is x extrapolated to vmax
        e = self.exponent
        if e * abs(math.log(vmax)) <= _LOG_NORMAL_RANGE:
            a = self.scale * vmax**e
        else:
            # vmax^e alone leaves the float range; through its e-th root the product may not
            try:
                a = (self.scale ** (1.0 / e) * vmax) ** e
            except OverflowError:
                a = math.inf
        if not math.isfinite(a):
            raise DomainError(
                f"power segment on [{lo!r}, {hi!r}] extrapolated to vmax={vmax!r} "
                "leaves the float range"
            )
        return ((lo, hi, ((a, e),)),)

    def descriptor(self) -> dict:
        return {"type": "power", "scale": self.scale, "exponent": self.exponent}


@dataclass(frozen=True)
class TableShape:
    """Linear interpolation through sample points spanning the segment."""

    points: tuple[tuple[float, float], ...]

    def validate(self, lo: float, hi: float) -> None:
        if len(self.points) < 2:
            raise ConstructionError("table shape needs at least two points")
        vs = self._vs
        xs = self._xs
        if not np.all(np.isfinite(vs)) or not np.all(np.isfinite(xs)):
            raise ConstructionError("table points must be finite")
        if np.any(np.diff(vs) <= 0.0):
            raise ConstructionError("table sample points must be strictly increasing")
        if abs(vs[0] - lo) > _JOIN_TOL or abs(vs[-1] - hi) > _JOIN_TOL:
            raise ConstructionError("table points must span the segment exactly")
        if np.any(xs < -_RANGE_TOL) or np.any(xs > 1.0 + _RANGE_TOL):
            raise ConstructionError("table values must stay within [0, 1]")

    @cached_property
    def _vs(self) -> np.ndarray:
        return np.asarray([p[0] for p in self.points], dtype=float)

    @cached_property
    def _xs(self) -> np.ndarray:
        return np.asarray([p[1] for p in self.points], dtype=float)

    @cached_property
    def _cum(self) -> np.ndarray:
        areas = 0.5 * (self._xs[:-1] + self._xs[1:]) * np.diff(self._vs)
        return np.concatenate([[0.0], np.cumsum(areas)])

    def value(self, v):
        return np.interp(np.asarray(v, dtype=float), self._vs, self._xs)

    def integral(self, a, b):
        return self._prefix(np.asarray(b, dtype=float)) - self._prefix(a)

    def _prefix(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self._vs, t, side="right") - 1, 0, self._vs.size - 2)
        va = self._vs[i]
        xa = self._xs[i]
        xt = np.interp(t, self._vs, self._xs)
        return self._cum[i] + 0.5 * (xa + xt) * (t - va)

    def stationary(self, lo: float, hi: float, ratio: float) -> tuple[float, ...]:
        out = []
        vs, xs = self._vs, self._xs
        for va, vb, xa, xb in zip(vs[:-1], vs[1:], xs[:-1], xs[1:]):
            slope = (xb - xa) / (vb - va)
            denom = slope * (ratio - 2.0)
            if denom == 0.0:
                continue
            z = (xa - slope * va) / denom
            if va < z < vb:
                out.append(float(z))
        return tuple(out)

    def interior_knots(self, lo: float, hi: float) -> tuple[float, ...]:
        return tuple(float(v) for v in self._vs[1:-1])

    def pieces(self, lo: float, hi: float, vmax: float) -> tuple[PowerPiece, ...]:
        # one linear piece per cell; the outer cell ends are the segment's own
        edges = (lo, *self.interior_knots(lo, hi), hi)
        out = []
        for i, ((va, xa), (vb, xb)) in enumerate(zip(self.points[:-1], self.points[1:])):
            slope = (xb - xa) / (vb - va)
            out.append((edges[i], edges[i + 1], ((xa - slope * va, 0.0), (slope * vmax, 1.0))))
        return tuple(out)

    def descriptor(self) -> dict:
        return {"type": "table", "points": [[v, x] for v, x in self.points]}


Shape = Constant | Linear | PowerRamp | TableShape


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float
    shape: Shape


@dataclass(frozen=True)
class AllocationRule:
    vmax: float
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not (math.isfinite(self.vmax) and self.vmax > 0.0):
            raise ConstructionError(f"vmax must be positive and finite, got {self.vmax!r}")
        if not self.segments:
            raise ConstructionError("an allocation rule needs at least one segment")
        segs = tuple(self.segments)
        if abs(segs[0].lo) > _JOIN_TOL or abs(segs[-1].hi - self.vmax) > _JOIN_TOL:
            raise ConstructionError("segments must tile [0, vmax] exactly")
        prev_hi = 0.0
        for seg in segs:
            if abs(seg.lo - prev_hi) > _JOIN_TOL:
                raise ConstructionError(f"gap or overlap at v={seg.lo!r}")
            if not seg.hi > seg.lo:
                raise ConstructionError(f"empty segment at v={seg.lo!r}")
            seg.shape.validate(seg.lo, seg.hi)
            prev_hi = seg.hi

    @cached_property
    def _los(self) -> np.ndarray:
        return np.asarray([s.lo for s in self.segments])

    @cached_property
    def _cum(self) -> np.ndarray:
        parts = [float(s.shape.integral(s.lo, s.hi)) for s in self.segments]
        return np.concatenate([[0.0], np.cumsum(parts)])

    def _per_segment(self, v, side: str, fn):
        """fn(i, segment, points) on the points in each segment, which must lie in
        [0, vmax] up to the join tolerance; a float for a scalar v."""
        arr = np.asarray(v, dtype=float)
        a = np.atleast_1d(arr)
        if a.size:
            slack = _JOIN_TOL * max(1.0, self.vmax)
            if float(np.min(a)) < -slack or float(np.max(a)) > self.vmax + slack:
                raise DomainError(f"evaluation point outside [0, {self.vmax}]")
        a = np.clip(a, 0.0, self.vmax)
        idx = np.clip(np.searchsorted(self._los, a, side=side) - 1, 0, len(self.segments) - 1)
        out = np.empty_like(a)
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if np.any(mask):
                out[mask] = fn(i, seg, a[mask])
        return float(out[0]) if arr.ndim == 0 else out

    def evaluate(self, v):
        """Allocation at v; the right limit at every jump."""
        return self._per_segment(v, "right", lambda i, seg, a: seg.shape.value(a))

    def left_value(self, v):
        """Limit of the allocation from below; equals evaluate away from joins."""
        return self._per_segment(v, "left", lambda i, seg, a: seg.shape.value(a))

    def prefix_integral(self, v):
        """Exact integral of the allocation from 0 to v."""
        return self._per_segment(
            v, "right", lambda i, seg, a: self._cum[i] + seg.shape.integral(seg.lo, a)
        )

    def knots(self) -> tuple[float, ...]:
        """Segment endpoints plus interior table vertices, sorted."""
        pts = {0.0, self.vmax}
        for seg in self.segments:
            pts.add(seg.lo)
            pts.add(seg.hi)
            pts.update(seg.shape.interior_knots(seg.lo, seg.hi))
        return tuple(sorted(pts))

    def pieces(self) -> tuple[PowerPiece, ...]:
        """The rule as power terms in v / vmax, one piece per segment or table cell."""
        out: list[PowerPiece] = []
        for seg in self.segments:
            out.extend(seg.shape.pieces(seg.lo, seg.hi, self.vmax))
        return tuple(out)

    def jump_points(self) -> tuple[tuple[float, float, float], ...]:
        """(v, left limit, right value) at every discontinuous segment join."""
        out = []
        for prev, nxt in zip(self.segments[:-1], self.segments[1:]):
            left = float(prev.shape.value(np.asarray(prev.hi)))
            right = float(nxt.shape.value(np.asarray(nxt.lo)))
            if left != right:
                out.append((nxt.lo, left, right))
        return tuple(out)

    def stationary_candidates(self, ratio: float) -> tuple[float, ...]:
        """Interior stationary points of the rebate curve g for an ROI ratio."""
        out: list[float] = []
        for seg in self.segments:
            out.extend(seg.shape.stationary(seg.lo, seg.hi, ratio))
        return tuple(sorted(out))

    def check_monotone(self, grid_n: int = 2001, tol: float = 1e-12) -> MonotonicityReport:
        """Grid-plus-endpoints test that the rule never decreases."""
        grid = np.unique(np.concatenate([np.linspace(0.0, self.vmax, grid_n), self.knots()]))
        x = self.evaluate(grid)
        drops = x[:-1] - x[1:]
        worst = float(np.max(drops)) if drops.size else 0.0
        at = float(grid[int(np.argmax(drops))]) if drops.size else 0.0
        for v0, left, right in self.jump_points():
            if left - right > worst:
                worst = left - right
                at = v0
        passed = worst <= tol
        return MonotonicityReport(
            passed=passed,
            worst_violation=max(worst, 0.0),
            at_v=at if worst > 0.0 else None,
            grid_n=grid_n,
            tol=tol,
        )

    def with_floor(self, level: float) -> AllocationRule:
        """Copy of the rule clamped below at ``level``: x'(v) = max(x(v), level).

        For a monotone rule this prepends a flat run at ``level`` and keeps the
        tail; the crossing point is solved per shape, not sampled.
        """
        if not 0.0 < level <= 1.0:
            raise ConstructionError(f"floor level must lie in (0, 1], got {level!r}")
        if float(self.evaluate(0.0)) >= level:
            return self
        cross = self._first_reach(level)
        if cross is None or cross >= self.vmax:
            return AllocationRule(self.vmax, (Segment(0.0, self.vmax, Constant(level)),))
        head = Segment(0.0, cross, Constant(level))
        tail: list[Segment] = []
        for seg in self.segments:
            if seg.hi <= cross:
                continue
            lo = max(seg.lo, cross)
            shape = seg.shape
            if isinstance(shape, TableShape) and lo > seg.lo:
                keep = [(v, x) for v, x in shape.points if v > lo]
                entry = (lo, float(shape.value(np.asarray(lo))))
                shape = TableShape(points=(entry, *keep))
            tail.append(Segment(lo, seg.hi, shape))
        return AllocationRule(self.vmax, (head, *tail))

    def _first_reach(self, level: float) -> float | None:
        """Smallest v with x(v) >= level, assuming a monotone rule."""
        for seg in self.segments:
            start = float(seg.shape.value(np.asarray(seg.lo)))
            if start >= level:
                return seg.lo
            end = float(seg.shape.value(np.asarray(seg.hi)))
            if end < level:
                continue
            sh = seg.shape
            if isinstance(sh, Linear) and sh.slope > 0.0:
                return min(max((level - sh.intercept) / sh.slope, seg.lo), seg.hi)
            if isinstance(sh, PowerRamp) and sh.scale > 0.0:
                return min(max((level / sh.scale) ** (1.0 / sh.exponent), seg.lo), seg.hi)
            if isinstance(sh, TableShape):
                vs, xs = sh._vs, sh._xs
                for va, vb, xa, xb in zip(vs[:-1], vs[1:], xs[:-1], xs[1:]):
                    if xb >= level:
                        if xb == xa:
                            return float(va)
                        t = float(va + (level - xa) * (vb - va) / (xb - xa))
                        return min(max(t, float(va)), float(vb))
            if isinstance(sh, Constant):
                continue
        return None

    def descriptor(self) -> dict:
        return {
            "vmax": self.vmax,
            "segments": [
                {"lo": s.lo, "hi": s.hi, "shape": s.shape.descriptor()} for s in self.segments
            ],
        }


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    worst_violation: float
    at_v: float | None
    grid_n: int
    tol: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "at_v": self.at_v,
            "grid_n": self.grid_n,
            "tol": self.tol,
        }


def make_constant(level: float, vmax: float = 1.0) -> AllocationRule:
    """Rule allocating a fixed fraction everywhere (level 0 gives the null rule)."""
    return AllocationRule(vmax, (Segment(0.0, vmax, Constant(level)),))


def make_step(threshold: float, vmax: float = 1.0) -> AllocationRule:
    """Win fully at or above the threshold, nothing below it."""
    if not 0.0 <= threshold < vmax:
        raise ConstructionError(f"step threshold must lie in [0, vmax), got {threshold!r}")
    if threshold == 0.0:
        return make_constant(1.0, vmax)
    return AllocationRule(
        vmax,
        (Segment(0.0, threshold, Constant(0.0)), Segment(threshold, vmax, Constant(1.0))),
    )


def make_piecewise_constant(
    breaks: Sequence[float], levels: Sequence[float], vmax: float = 1.0
) -> AllocationRule:
    """Right-continuous staircase: levels[i] applies on [breaks[i-1], breaks[i])."""
    breaks = [float(b) for b in breaks]
    levels = [float(x) for x in levels]
    if len(levels) != len(breaks) + 1:
        raise ConstructionError("need exactly one more level than breaks")
    edges = [0.0, *breaks, vmax]
    if any(b - a <= 0.0 for a, b in zip(edges[:-1], edges[1:])):
        raise ConstructionError("breaks must be strictly increasing inside (0, vmax)")
    if any(b > a + _RANGE_TOL for a, b in zip(levels[1:], levels[:-1])):
        raise ConstructionError("staircase levels must be non-decreasing")
    segs = tuple(
        Segment(lo, hi, Constant(level)) for lo, hi, level in zip(edges[:-1], edges[1:], levels)
    )
    return AllocationRule(vmax, segs)


def make_power_ramp(threshold: float, roi_ratio: float, vmax: float = 1.0) -> AllocationRule:
    """x(v) = (v / threshold)^(1 / (roi_ratio - 1)) below the threshold, then 1."""
    if not (math.isfinite(roi_ratio) and roi_ratio > 1.0):
        raise ConstructionError(f"roi_ratio must exceed 1, got {roi_ratio!r}")
    if not 0.0 < threshold <= vmax:
        raise ConstructionError(f"threshold must lie in (0, vmax], got {threshold!r}")
    exponent = 1.0 / (roi_ratio - 1.0)
    if exponent * abs(math.log(threshold)) > _LOG_NORMAL_RANGE:
        # the rule is stored as scale * v^exponent, so D^-exponent must be a normal float
        raise ConstructionError(
            f"ramp (v / {threshold!r})^{exponent:.6g} leaves the float range: "
            "roi_ratio is too close to 1 for this threshold"
        )
    if exponent > 50.0:
        warnings.warn(
            f"ramp exponent {exponent:.3g} is ill-conditioned (roi_ratio near 1); "
            "results are valid but clustered near the threshold",
            ConditioningWarning,
            stacklevel=2,
        )
    ramp = Segment(0.0, threshold, PowerRamp(scale=threshold**-exponent, exponent=exponent))
    if threshold == vmax:
        return AllocationRule(vmax, (ramp,))
    return AllocationRule(vmax, (ramp, Segment(threshold, vmax, Constant(1.0))))


def make_table(points: Sequence[Sequence[float]], vmax: float | None = None) -> AllocationRule:
    """Monotone piecewise-linear rule through the given (v, x) samples."""
    pts = tuple((float(v), float(x)) for v, x in points)
    if len(pts) < 2 or pts[0][0] != 0.0:
        raise ConstructionError("table rules need points starting at v=0")
    top = pts[-1][0] if vmax is None else float(vmax)
    if pts[-1][0] != top:
        raise ConstructionError("last table point must sit at vmax")
    xs = [x for _, x in pts]
    if any(b < a - _RANGE_TOL for a, b in zip(xs[:-1], xs[1:])):
        raise ConstructionError("table values must be non-decreasing")
    return AllocationRule(top, (Segment(0.0, top, TableShape(points=pts)),))


_SHAPE_FIELDS = {
    "constant": frozenset({"type", "level"}),
    "linear": frozenset({"type", "slope", "intercept"}),
    "power": frozenset({"type", "scale", "exponent"}),
    "table": frozenset({"type", "points"}),
}


def _shape_from_descriptor(data: dict) -> Shape:
    if not isinstance(data, dict):
        raise DescriptorError("shape descriptor must be an object")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _SHAPE_FIELDS:
        raise DescriptorError(f"unknown shape type {kind!r}")
    if set(data) != _SHAPE_FIELDS[kind]:
        unknown = sorted(set(data) - _SHAPE_FIELDS[kind])
        missing = sorted(_SHAPE_FIELDS[kind] - set(data))
        raise DescriptorError(f"shape fields for {kind!r}: unknown {unknown}, missing {missing}")
    try:
        if kind == "constant":
            return Constant(level=float(data["level"]))
        if kind == "linear":
            return Linear(slope=float(data["slope"]), intercept=float(data["intercept"]))
        if kind == "power":
            return PowerRamp(scale=float(data["scale"]), exponent=float(data["exponent"]))
        return TableShape(points=tuple((float(v), float(x)) for v, x in data["points"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"malformed {kind!r} shape: {exc}") from exc


def allocation_from_descriptor(data: dict) -> AllocationRule:
    """Build an allocation rule from its JSON-friendly descriptor; strict about fields."""
    if not isinstance(data, dict):
        raise DescriptorError("allocation descriptor must be an object")
    if set(data) != {"vmax", "segments"}:
        raise DescriptorError(
            f"allocation descriptor must have exactly 'vmax' and 'segments', got {sorted(data)}"
        )
    segments = data["segments"]
    if not isinstance(segments, list) or not segments:
        raise DescriptorError("'segments' must be a non-empty list")
    segs = []
    for item in segments:
        if not isinstance(item, dict) or set(item) != {"lo", "hi", "shape"}:
            raise DescriptorError("each segment needs exactly 'lo', 'hi' and 'shape'")
        try:
            lo = float(item["lo"])
            hi = float(item["hi"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise DescriptorError(f"segment bounds must be numbers: {exc}") from exc
        segs.append(Segment(lo, hi, _shape_from_descriptor(item["shape"])))
    try:
        vmax = float(data["vmax"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"'vmax' must be a number: {exc}") from exc
    return AllocationRule(vmax, tuple(segs))
