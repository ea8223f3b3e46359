"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of the workload seed. It draws from the
standard library's Mersenne Twister, seeded with a string per purpose, and
imports nothing from roi_auction, so a change to the package cannot change a
workload. Descriptors keep full-precision floats: json.dumps writes the
shortest repr that reads back to the same double.
"""

from __future__ import annotations

import random

import numpy as np

import reference as ref

KINDS = ("uniform", "power_cdf", "piecewise_linear_density", "tabulated_cdf")


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{purpose}:{seed}")


# ---------------------------------------------------------------------------
# value distributions (every one has non-decreasing marginal revenue)


def _uniform(rng: random.Random) -> dict:
    return {"kind": "uniform", "vmax": rng.uniform(0.95, 1.0)}


def _power_cdf(rng: random.Random) -> dict:
    return {"kind": "power_cdf", "vmax": rng.uniform(0.95, 1.0), "exponent": rng.uniform(2.0, 2.5)}


def _pld_is_dmr(bs, ds) -> bool:
    # psi' = v f' + 2 f is linear on each piece, so checking both ends suffices
    for lo, hi, d0, d1 in zip(bs[:-1], bs[1:], ds[:-1], ds[1:]):
        slope = (d1 - d0) / (hi - lo)
        if 2.0 * d0 + slope * lo < 0.0 or 2.0 * d1 + slope * hi < 0.0:
            return False
    return True


def _piecewise_linear_density(rng: random.Random) -> dict:
    """A hump: rising density, a plateau-ish middle, a mild fall at the top."""
    vmax = rng.uniform(0.95, 1.0)
    bs = [0.0, vmax * rng.uniform(0.3, 0.35), vmax * rng.uniform(0.65, 0.7), vmax]
    for _ in range(1000):
        ds = [rng.uniform(0.3, 0.4), rng.uniform(1.0, 1.1), rng.uniform(1.0, 1.1), rng.uniform(0.8, 0.9)]
        if _pld_is_dmr(bs, ds):
            break
    else:
        raise RuntimeError("no DMR density drawn in 1000 tries")
    mass = sum(0.5 * (d0 + d1) * (hi - lo) for lo, hi, d0, d1 in zip(bs[:-1], bs[1:], ds[:-1], ds[1:]))
    return {
        "kind": "piecewise_linear_density",
        "vmax": vmax,
        "breakpoints": bs,
        "densities": [d / mass for d in ds],
    }


def _tabulated_cdf(rng: random.Random) -> dict:
    """A convex CDF: increasing slopes keep psi rising through every knot."""
    vmax = rng.uniform(0.95, 1.0)
    vs = [0.0, vmax * rng.uniform(0.23, 0.27), vmax * rng.uniform(0.48, 0.52), vmax * rng.uniform(0.73, 0.77), vmax]
    slopes = [rng.uniform(0.4, 0.5)]
    for _ in range(3):
        slopes.append(slopes[-1] * rng.uniform(1.2, 1.4))
    mass = sum(s * (hi - lo) for s, lo, hi in zip(slopes, vs[:-1], vs[1:]))
    points = [[0.0, 0.0]]
    cdf = 0.0
    for s, lo, hi in zip(slopes[:-1], vs[:-2], vs[1:-1]):
        cdf += s * (hi - lo) / mass
        points.append([hi, cdf])
    points.append([vmax, 1.0])
    return {"kind": "tabulated_cdf", "vmax": vmax, "points": points}


_MAKERS = {
    "uniform": _uniform,
    "power_cdf": _power_cdf,
    "piecewise_linear_density": _piecewise_linear_density,
    "tabulated_cdf": _tabulated_cdf,
}


def distribution(seed: int, kind: str, tag: str = "") -> dict:
    """One descriptor of the given kind; the tag separates independent draws."""
    return _MAKERS[kind](rng_for(seed, f"dist:{kind}:{tag}"))


#: Fixed instances for the slow solves. Their solve time jumps between
#: neighbouring parameter values (uniform at ratio 5, tol 1e-12: 6.3 s at
#: vmax 1, 4.9 s at vmax 0.999), so a seeded draw would swamp the bounds.
UNIFORM_UNIT = {"kind": "uniform", "vmax": 1.0}
_HUMP_BREAKS = (0.0, 0.325, 0.675, 1.0)
_HUMP_HEIGHTS = (0.35, 1.05, 1.05, 0.85)
_HUMP_MASS = sum(0.5 * (a + b) * (hi - lo) for lo, hi, a, b in zip(
    _HUMP_BREAKS[:-1], _HUMP_BREAKS[1:], _HUMP_HEIGHTS[:-1], _HUMP_HEIGHTS[1:]))
HUMP_DENSITY = {
    "kind": "piecewise_linear_density",
    "vmax": 1.0,
    "breakpoints": list(_HUMP_BREAKS),
    "densities": [h / _HUMP_MASS for h in _HUMP_HEIGHTS],
}


# ---------------------------------------------------------------------------
# allocation rules


#: knots of a perturbed table rule, and the largest nudge per knot
N_KNOTS = 101
PERTURBATION = 0.02
#: uniform grid points of a hand schedule, before the staircase edges join it
HAND_GRID_N = 121


def perturbed_ramp_table(seed: int, tag: str, d: float, ratio: float, vmax: float) -> list[list[float]]:
    """The optimal ramp sampled at N_KNOTS points, nudged, kept monotone in [0, 1]."""
    rng = rng_for(seed, f"table:{tag}")
    knots = np.linspace(0.0, vmax, N_KNOTS)
    values = ref.ramp_value(knots, d, ratio) + np.asarray(
        [rng.uniform(-PERTURBATION, PERTURBATION) for _ in range(N_KNOTS)]
    )
    values = np.clip(np.maximum.accumulate(values), 0.0, 1.0)
    return [[float(v), float(x)] for v, x in zip(knots, values)]


def table_descriptor(points, vmax: float) -> dict:
    return {
        "vmax": vmax,
        "segments": [{"lo": 0.0, "hi": vmax, "shape": {"type": "table", "points": points}}],
    }


def step_descriptor(price: float, vmax: float) -> dict:
    return {
        "vmax": vmax,
        "segments": [
            {"lo": 0.0, "hi": price, "shape": {"type": "constant", "level": 0.0}},
            {"lo": price, "hi": vmax, "shape": {"type": "constant", "level": 1.0}},
        ],
    }


def monotone_rule(seed: int, tag: str, vmax: float = 1.0) -> dict:
    """Flat pieces, jumps and ramps, with a flat stretch across vmax / 2.

    The flat middle keeps the payment-uniqueness probe meaningful: shifting
    payments on the top half by 0.01 lets a bidder just across the middle
    copy a neighbour's allocation at a different price.
    """
    rng = rng_for(seed, f"rule:{tag}")
    lower = sorted(rng.uniform(0.05, 0.4) * vmax for _ in range(2))
    upper = sorted(rng.uniform(0.6, 0.95) * vmax for _ in range(2))
    edges = [0.0, *lower, *upper, vmax]
    levels = sorted(rng.uniform(0.0, 1.0) for _ in range(len(edges)))
    levels[-1] = 1.0
    segments = []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        a, b = levels[i], levels[i + 1]
        if i == 2 or rng.random() < 0.5:
            shape = {"type": "constant", "level": a}
        else:
            slope = (b - a) / (hi - lo)
            shape = {"type": "linear", "slope": slope, "intercept": a - slope * lo}
        segments.append({"lo": lo, "hi": hi, "shape": shape})
    return {"vmax": vmax, "segments": segments}


def hand_schedule(seed: int, tag: str, ratio: float):
    """A staircase mechanism file with its exact truthful payments on a grid.

    Returns (honest, tampered, edges, levels): two mechanism descriptors that
    differ only in the payments on a seeded stretch, lowered by a seeded
    amount, so the tampered one must fail the audit.
    """
    rng = rng_for(seed, f"hand:{tag}")
    vmax = 1.0
    # no edge near vmax / 2, for the same reason as in monotone_rule
    lower = sorted(rng.uniform(0.05, 0.42) for _ in range(2))
    upper = sorted(rng.uniform(0.58, 0.95) for _ in range(2))
    edges = [0.0, *lower, *upper, vmax]
    levels = sorted(rng.uniform(0.0, 1.0) for _ in range(len(edges) - 1))
    levels[0] = 0.0
    grid = sorted(set(np.linspace(0.0, vmax, HAND_GRID_N).tolist()) | set(edges))
    pays = ref.staircase_payments(edges, levels, ratio, grid).tolist()
    segments = [
        {"lo": lo, "hi": hi, "shape": {"type": "constant", "level": x}}
        for lo, hi, x in zip(edges[:-1], edges[1:], levels)
    ]
    allocation = {"vmax": vmax, "segments": segments}
    honest = {"allocation": allocation, "m": ratio, "schedule": {"grid": grid, "payments": pays}}
    lo = rng.randrange(len(grid) // 4, len(grid) // 2)
    hi = lo + rng.randrange(5, len(grid) // 4)
    shift = rng.uniform(0.005, 0.02)
    bad = [p - shift if lo <= i < hi else p for i, p in enumerate(pays)]
    tampered = {"allocation": allocation, "m": ratio, "schedule": {"grid": grid, "payments": bad}}
    return honest, tampered, edges, levels
