"""Seeded generators for the allocation rules that tests and robustness sweeps use.

Every generator is a pure function of its seed (numpy's default PCG64
stream), so failures reproduce exactly from the seed alone.
"""

from __future__ import annotations

import numpy as np

from roi_auction.allocation import AllocationRule, Constant, Linear, Segment, TableShape, make_table


def random_monotone_rule(seed: int, vmax: float = 1.0) -> AllocationRule:
    """A non-decreasing rule mixing flat pieces, jumps and ramps."""
    rng = np.random.default_rng(seed)
    n_pieces = int(rng.integers(2, 7))
    raw = np.sort(rng.uniform(0.0, vmax, n_pieces - 1))
    edges = [0.0]
    for r in raw:
        if r - edges[-1] > 1e-3 * vmax and vmax - r > 1e-3 * vmax:
            edges.append(float(r))
    edges.append(vmax)
    k = len(edges) - 1
    levels = np.sort(rng.uniform(0.0, 1.0, k + 1))
    if rng.random() < 0.5:
        levels[0] = 0.0
    if rng.random() < 0.5:
        levels[-1] = 1.0
    segments = []
    for i in range(k):
        lo, hi = edges[i], edges[i + 1]
        if rng.random() < 0.5 or levels[i + 1] == levels[i]:
            # flat piece; any rise shows up as a jump at the right edge
            segments.append(Segment(lo, hi, Constant(float(levels[i]))))
        else:
            slope = (levels[i + 1] - levels[i]) / (hi - lo)
            segments.append(Segment(lo, hi, Linear(float(slope), float(levels[i] - slope * lo))))
    return AllocationRule(vmax, tuple(segments))


def random_nonmonotone_rule(seed: int, vmax: float = 1.0) -> AllocationRule:
    """A table rule with one interior dip, for exercising failure paths."""
    rng = np.random.default_rng(seed)
    n = 8
    knots = np.linspace(0.0, vmax, n)
    ys = np.sort(rng.uniform(0.1, 1.0, n))
    j = int(rng.integers(1, n - 1))
    ys[j] = max(0.0, ys[j - 1] - float(rng.uniform(0.05, 0.3)))
    points = tuple((float(v), float(y)) for v, y in zip(knots, ys))
    return AllocationRule(vmax, (Segment(0.0, vmax, TableShape(points)),))


def perturbed_table_copy(
    rule: AllocationRule, seed: int, n_knots: int = 101, magnitude: float = 0.02
) -> AllocationRule:
    """Resample a rule onto a table and nudge it, keeping monotonicity and bounds."""
    rng = np.random.default_rng(seed)
    knots = np.linspace(0.0, rule.vmax, n_knots)
    values = rule.evaluate(knots) + rng.uniform(-magnitude, magnitude, n_knots)
    values = np.clip(np.maximum.accumulate(values), 0.0, 1.0)
    return make_table(list(zip(knots.tolist(), values.tolist())))


def flat_start_copy(ramp: AllocationRule, level: float) -> AllocationRule:
    """A power ramp held at ``level`` until it reaches it: x'(v) = max(x(v), level).

    The ramp scale * v^exponent crosses ``level`` at (level / scale)^(1 / exponent),
    which for the optimal ramp (v / D)^(1 / (M - 1)) is D level^(M - 1).
    """
    head, *tail = ramp.segments
    shape = head.shape
    cross = (level / shape.scale) ** (1.0 / shape.exponent)
    flat = Segment(0.0, cross, Constant(level))
    return AllocationRule(ramp.vmax, (flat, Segment(cross, head.hi, shape), *tail))
