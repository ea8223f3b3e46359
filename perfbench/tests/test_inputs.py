"""Inputs depend on the seed alone, and every generated law is a valid DMR input."""

import numpy as np
import pytest

import inputs
import reference as ref


def test_same_seed_same_inputs():
    for kind in inputs.KINDS:
        assert inputs.distribution(7, kind, "x") == inputs.distribution(7, kind, "x")
        assert inputs.distribution(7, kind, "x") != inputs.distribution(8, kind, "x")
    assert inputs.monotone_rule(3, "a") == inputs.monotone_rule(3, "a")
    assert inputs.hand_schedule(3, "h", 2.0) == inputs.hand_schedule(3, "h", 2.0)


@pytest.mark.parametrize("seed", range(20))
def test_distributions_have_rising_marginal_revenue(seed):
    for kind in inputs.KINDS:
        dist = ref.from_descriptor(inputs.distribution(seed, kind))
        grid = np.linspace(0.0, dist.vmax, 2001)
        psi = np.asarray([dist.psi(v) for v in grid])
        assert np.all(np.diff(psi) >= -1e-12)
        assert psi[0] < 0.0 < psi[-1]
        assert dist.cdf(dist.vmax) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_rules_are_monotone_and_flat_across_the_middle(seed):
    rule = inputs.monotone_rule(seed, "a")
    segs = rule["segments"]
    prev = 0.0
    for seg in segs:
        shape = seg["shape"]
        lo_x = shape["level"] if shape["type"] == "constant" else shape["slope"] * seg["lo"] + shape["intercept"]
        hi_x = shape["level"] if shape["type"] == "constant" else shape["slope"] * seg["hi"] + shape["intercept"]
        assert prev - 1e-12 <= lo_x <= hi_x + 1e-12 <= 1.0 + 2e-12
        prev = hi_x
    middle = [s for s in segs if s["lo"] <= 0.45 and s["hi"] >= 0.55]
    assert len(middle) == 1 and middle[0]["shape"]["type"] == "constant"


@pytest.mark.parametrize("seed", range(10))
def test_tables_and_hand_schedules(seed):
    pts = inputs.perturbed_ramp_table(seed, "t", 0.8, 2.0, 1.0)
    xs = [x for _, x in pts]
    assert len(pts) == 101 and xs == sorted(xs) and 0.0 <= xs[0] and xs[-1] <= 1.0
    honest, tampered, _, _ = inputs.hand_schedule(seed, "h", 3.0)
    diff = [a - b for a, b in zip(honest["schedule"]["payments"], tampered["schedule"]["payments"])]
    changed = [d for d in diff if d != 0.0]
    assert changed and all(0.005 <= d <= 0.02 for d in changed)
