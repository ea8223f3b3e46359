"""Piecewise allocation rules on [0, vmax].

A rule is an ordered list of segments tiling [0, vmax], each carrying a shape
in global coordinates (constant, linear, power, or an interpolated table).
Evaluation is right-continuous at segment joins, so the stored value at a jump
is the post-jump one; prefix integrals use the per-shape closed forms. Each
segment evaluates one slice of the sorted points (other points are sorted there
and back). For exact integration a rule lowers itself once to
``numerics.Pieces``, power terms in v / vmax with one row per segment or table
cell and two term columns, at most one of them with a nonzero exponent;
``pieces`` gives that lowering and the payment walk reads it.

Range ([0, 1]) and tiling are enforced at construction. Monotonicity is NOT:
check_monotone reports it, and the named constructors reject violations, which
lets audit code build deliberately broken rules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConditioningWarning, ConstructionError, DescriptorError, DomainError
from .errors import descriptor_number, descriptor_pairs
from .numerics import Pieces, _in_order, _prepare

_RANGE_TOL = 1e-12
_JOIN_TOL = 1e-12
#: |ln x| below which x and 1 / x are both normal floats (ln of 2^-1022 is -708.4)
_LOG_NORMAL_RANGE = 708.0

#: Largest drop in the allocation that check_monotone still passes.
MONOTONE_TOL = 1e-12

#: (lo, hi, slope, intercept) of a shape's linear pieces, each of shape (k,)
Lines = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
_NO_LINES: Lines = (np.empty(0),) * 4


class _Shape:
    """What a shape has unless it says otherwise: no linear piece and no knot
    inside its segment."""

    def lines(self, lo: float, hi: float) -> Lines:
        # g' keeps one sign on a constant or power piece, so the extremes sit at the ends
        return _NO_LINES

    def interior_knots(self, lo: float, hi: float) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class Constant(_Shape):
    level: float

    def validate(self, lo: float, hi: float) -> None:
        if not math.isfinite(self.level) or not -_RANGE_TOL <= self.level <= 1.0 + _RANGE_TOL:
            raise ConstructionError(f"constant level {self.level!r} outside [0, 1]")

    def value(self, v: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(v, dtype=float), self.level)

    def integral(self, a, b):
        return self.level * (np.asarray(b, dtype=float) - a)

    def lower(self, lo: float, hi: float, vmax: float) -> Pieces:
        coef = np.array([[self.level, 0.0]])
        return Pieces(np.array([lo]), np.array([hi]), coef, np.zeros((1, 2)))

    def descriptor(self) -> dict:
        return {"type": "constant", "level": self.level}


@dataclass(frozen=True)
class Linear(_Shape):
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
        with np.errstate(over="ignore", invalid="ignore"):
            out = 0.5 * self.slope * (b * b - a * a) + self.intercept * (b - a)
            finite = np.isfinite(out)
            if np.all(finite):
                return out
            # b^2 left the float range; (b - a)(b + a) keeps the same integral inside it
            factored = 0.5 * (b - a) * (self.slope * (b + a)) + self.intercept * (b - a)
        return np.where(finite, out, factored)

    def lines(self, lo: float, hi: float) -> Lines:
        return tuple(np.asarray([v]) for v in (lo, hi, self.slope, self.intercept))

    def lower(self, lo: float, hi: float, vmax: float) -> Pieces:
        coef = np.array([[self.intercept, self.slope * vmax]])
        return Pieces(np.array([lo]), np.array([hi]), coef, np.array([[0.0, 1.0]]))

    def descriptor(self) -> dict:
        return {"type": "linear", "slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True)
class PowerRamp(_Shape):
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

    def lower(self, lo: float, hi: float, vmax: float) -> Pieces:
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
        return Pieces(np.array([lo]), np.array([hi]), np.array([[a, 0.0]]), np.array([[e, 0.0]]))

    def descriptor(self) -> dict:
        return {"type": "power", "scale": self.scale, "exponent": self.exponent}


@dataclass(frozen=True)
class TableShape(_Shape):
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

    @cached_property
    def _cell_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """Slope and intercept of the line through each pair of neighbouring points."""
        vs, xs = self._vs, self._xs
        with np.errstate(over="ignore", invalid="ignore"):
            slope = (xs[1:] - xs[:-1]) / (vs[1:] - vs[:-1])
            return slope, xs[:-1] - slope * vs[:-1]

    def lines(self, lo: float, hi: float) -> Lines:
        return (self._vs[:-1], self._vs[1:], *self._cell_lines)

    def interior_knots(self, lo: float, hi: float) -> tuple[float, ...]:
        return tuple(float(v) for v in self._vs[1:-1])

    def lower(self, lo: float, hi: float, vmax: float) -> Pieces:
        # one linear piece per cell; the outer cell ends are the segment's own
        edges = self._vs.copy()
        edges[0], edges[-1] = lo, hi
        slope, intercept = self._cell_lines
        with np.errstate(over="ignore"):
            coef = np.column_stack([intercept, slope * vmax])
        return Pieces(edges[:-1], edges[1:], coef, np.broadcast_to([0.0, 1.0], coef.shape))

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

    def _per_segment(self, v) -> tuple:
        """(x, integral of x from 0) at v, which must lie in [0, vmax] up to the
        support slack; each a float for a scalar v."""
        a, scalar = _prepare(v, self.vmax)
        return tuple(float(out[0]) if scalar else out for out in _in_order(self._runs, a))

    def _runs(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_per_segment`` on points a already sorted and clipped onto [0, vmax]:
        the segment starts are searched in the points, not each point, and each
        segment evaluates x and its integral on one slice."""
        bounds = [0, *np.searchsorted(a, self._los[1:], side="left").tolist(), a.size]
        x, area = np.empty_like(a), np.empty_like(a)
        for below, seg, lo, hi in zip(self._cum, self.segments, bounds[:-1], bounds[1:]):
            if hi > lo:
                x[lo:hi] = seg.shape.value(a[lo:hi])
                area[lo:hi] = below + seg.shape.integral(seg.lo, a[lo:hi])
        return x, area

    def evaluate(self, v):
        """Allocation at v; the right limit at every jump."""
        return self._per_segment(v)[0]

    def prefix_integral(self, v):
        """Exact integral of the allocation from 0 to v."""
        return self._per_segment(v)[1]

    def knots(self) -> tuple[float, ...]:
        """Segment endpoints plus interior table vertices, sorted."""
        pts = {0.0, self.vmax}
        for seg in self.segments:
            pts.add(seg.lo)
            pts.add(seg.hi)
            pts.update(seg.shape.interior_knots(seg.lo, seg.hi))
        return tuple(sorted(pts))

    @cached_property
    def _pieces(self) -> Pieces:
        rows = [seg.shape.lower(seg.lo, seg.hi, self.vmax) for seg in self.segments]
        return Pieces(*(np.concatenate(col) for col in zip(*rows)))

    def pieces(self) -> Pieces:
        """The rule as power terms in v / vmax, one row per segment or table cell."""
        return self._pieces

    @cached_property
    def _below(self) -> np.ndarray:
        """The integral of the rule from 0 to each row start of ``pieces``."""
        return self.prefix_integral(self._pieces.lo)

    def jump_points(self) -> tuple[tuple[float, float, float], ...]:
        """(v, left limit, right value) at every discontinuous segment join."""
        out = []
        for prev, nxt in zip(self.segments[:-1], self.segments[1:]):
            left = float(prev.shape.value(np.asarray(prev.hi)))
            right = float(nxt.shape.value(np.asarray(nxt.lo)))
            if left != right:
                out.append((nxt.lo, left, right))
        return tuple(out)

    @cached_property
    def _lines(self) -> Lines:
        lines = [seg.shape.lines(seg.lo, seg.hi) for seg in self.segments]
        return tuple(np.concatenate(col) for col in zip(*lines))

    def stationary_candidates(self, ratio: float) -> tuple[float, ...]:
        """Interior stationary points of the rebate curve g for an ROI ratio.

        On a linear piece x = slope v + intercept, g'(z) = slope z (ratio - 2) -
        intercept vanishes at z = intercept / (slope (ratio - 2)); other pieces
        have none inside."""
        lo, hi, slope, intercept = self._lines
        with np.errstate(all="ignore"):
            denom = slope * (ratio - 2.0)
            z = intercept / denom
        inside = (denom != 0.0) & (lo < z) & (z < hi)
        return tuple(np.sort(z[inside], kind="stable").tolist())

    def check_monotone(self) -> MonotonicityReport:
        """Test that the rule never decreases: across each jump, and from end to
        end of each segment and table cell. Every shape is monotone between its
        knots, so these are the rule's only falls, each read on its own: a fall
        and the jump that ends it are two falls, not one."""
        worst, at = -math.inf, 0.0
        for v0, left, right in self.jump_points():
            if left - right > worst:
                worst = left - right
                at = v0
        for seg in self.segments:
            ends = np.asarray((seg.lo, *seg.shape.interior_knots(seg.lo, seg.hi), seg.hi))
            falls = seg.shape.value(ends[:-1]) - seg.shape.value(ends[1:])
            i = int(np.argmax(falls))
            if falls[i] > worst:
                worst = float(falls[i])
                at = float(ends[i])
        return MonotonicityReport(
            passed=worst <= MONOTONE_TOL,
            worst_violation=max(worst, 0.0),
            at_v=at if worst > 0.0 else None,
            tol=MONOTONE_TOL,
        )

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
    tol: float

    def to_dict(self) -> dict:
        return asdict(self)


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


def make_table(points: Sequence[Sequence[float]]) -> AllocationRule:
    """Monotone piecewise-linear rule through (v, x) samples from v = 0 to vmax."""
    pts = tuple((float(v), float(x)) for v, x in points)
    if len(pts) < 2 or pts[0][0] != 0.0:
        raise ConstructionError("table rules need points starting at v=0")
    top = pts[-1][0]
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
    if kind == "table":
        return TableShape(points=descriptor_pairs(data["points"], "'table' shape field 'points'"))
    # every other shape's fields are numbers named as the shape's own fields
    num = {k: descriptor_number(v, f"{kind!r} shape field {k!r}") for k, v in data.items()
           if k != "type"}
    return {"constant": Constant, "linear": Linear, "power": PowerRamp}[kind](**num)


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
        lo = descriptor_number(item["lo"], "segment bound 'lo'")
        hi = descriptor_number(item["hi"], "segment bound 'hi'")
        segs.append(Segment(lo, hi, _shape_from_descriptor(item["shape"])))
    return AllocationRule(descriptor_number(data["vmax"], "'vmax'"), tuple(segs))
