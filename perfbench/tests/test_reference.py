"""The reference reproduces the paper's closed forms, and its exact paths agree with them."""

import math

import pytest

import reference as ref

UNIFORM = ref.from_descriptor({"kind": "uniform", "vmax": 1.0})
POWER2 = ref.from_descriptor({"kind": "power_cdf", "vmax": 1.0, "exponent": 2.0})
# the same laws written as piecewise kinds, so the exact piecewise path runs
UNIFORM_PLD = ref.from_descriptor(
    {"kind": "piecewise_linear_density", "vmax": 1.0, "breakpoints": [0.0, 0.3, 1.0], "densities": [1.0, 1.0, 1.0]}
)
UNIFORM_TAB = ref.from_descriptor(
    {"kind": "tabulated_cdf", "vmax": 1.0, "points": [[0.0, 0.0], [0.4, 0.4], [1.0, 1.0]]}
)
POWER2_PLD = ref.from_descriptor(
    {"kind": "piecewise_linear_density", "vmax": 1.0, "breakpoints": [0.0, 1.0], "densities": [0.0, 2.0]}
)
RATIOS = (1.01, 1.5, 2.0, 3.0, 5.0, 20.0)


def test_worked_example():
    d = ref.threshold(UNIFORM, 2.0)
    assert d == pytest.approx(0.75, abs=1e-15)
    assert ref.ramp_revenue(UNIFORM, 2.0, d) == pytest.approx(0.375, abs=1e-15)
    price = ref.posted_price(UNIFORM)
    assert price == 0.5
    assert ref.posted_revenue(UNIFORM, price) == pytest.approx(0.25, abs=1e-15)


def test_uniform_ratio_three():
    d = ref.threshold(UNIFORM, 3.0)
    assert d == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert ref.ramp_revenue(UNIFORM, 3.0, d) == pytest.approx(5.0 / 12.0, abs=1e-15)


def test_power_cdf_square():
    d = ref.threshold(POWER2, 2.0)
    assert d == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    assert ref.ramp_revenue(POWER2, 2.0, d) == pytest.approx(d - d**3 / 2.0, abs=1e-15)
    assert ref.posted_price(POWER2) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)


@pytest.mark.parametrize("ratio", RATIOS)
def test_exact_piecewise_path_matches_closed_forms(ratio):
    for closed, pieces in ((UNIFORM, UNIFORM_PLD), (UNIFORM, UNIFORM_TAB), (POWER2, POWER2_PLD)):
        d = ref.threshold(closed, ratio)
        assert ref.threshold(pieces, ratio) == pytest.approx(d, abs=1e-12)
        assert ref.ramp_revenue(pieces, ratio, d) == pytest.approx(ref.ramp_revenue(closed, ratio, d), abs=1e-12)
        assert ref.posted_price(pieces) == pytest.approx(ref.posted_price(closed), abs=1e-12)


def test_threshold_zeroes_the_weighted_integral():
    dist = ref.from_descriptor(
        {"kind": "tabulated_cdf", "vmax": 1.0, "points": [[0.0, 0.0], [0.5, 0.3], [1.0, 1.0]]}
    )
    for ratio in RATIOS:
        c = ref.weight_exponent(ratio)
        d = ref.threshold(dist, ratio)
        assert abs(ref.scaled_integral(dist, c, d)) < 1e-13
        # a midpoint rule on psi(d s) s^c agrees with the exact piece sums
        n = 200_000
        approx = sum(dist.psi(d * (i + 0.5) / n) * ((i + 0.5) / n) ** c for i in range(n)) / n
        assert approx == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize("ratio", (1.5, 2.0, 5.0))
def test_dense_revenue_of_steps_and_ramps(ratio):
    for dist in (UNIFORM, POWER2, UNIFORM_TAB, POWER2_PLD):
        r = 0.37
        step = ref.staircase_pieces([0.0, r, 1.0], [0.0, 1.0])
        assert ref.dense_revenue(step, ratio, dist) == pytest.approx(ref.posted_revenue(dist, r), abs=1e-12)
    # at ratio 2 the optimal uniform ramp is linear, so a 3-knot table is exact
    ramp = ref.table_pieces([(0.0, 0.0), (0.75, 1.0), (1.0, 1.0)])
    assert ref.dense_revenue(ramp, 2.0, UNIFORM) == pytest.approx(0.375, abs=1e-13)


def test_dense_schedule_matches_the_ramp_payments():
    # truthful payments of the optimal ramp: v x below D, D above it
    d = 0.75
    v, x, p = ref.dense_schedule(ref.table_pieces([(0.0, 0.0), (d, 1.0), (1.0, 1.0)]), 2.0)
    want = (v * x).copy()
    want[v >= d] = d
    assert abs(p - want).max() < 1e-14


def test_staircase_payments_are_threshold_prices():
    for ratio in (1.5, 2.0, 5.0):
        grid = [0.0, 0.2, 0.4, 0.7, 1.0]
        pays = ref.staircase_payments([0.0, 0.4, 1.0], [0.0, 1.0], ratio, grid)
        assert list(pays) == pytest.approx([0.0, 0.0, 0.4, 0.4, 0.4], abs=1e-15)


def test_misreport_gain_finds_a_lowered_payment():
    edges, levels, ratio = [0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 1.0], 2.0
    grid = [i / 20 for i in range(21)]
    allocs = [ref.staircase_value(edges, levels, v) for v in grid]
    pays = list(ref.staircase_payments(edges, levels, ratio, grid))
    assert ref.misreport_gain(grid, allocs, pays, ratio) < 1e-12
    pays[14] -= 0.01  # v = 0.7 sits inside the top step
    assert ref.misreport_gain(grid, allocs, pays, ratio) == pytest.approx(0.01, abs=1e-12)
    pays[14] += 0.5  # now the truthful report breaks v x >= p there
    assert ref.misreport_gain(grid, allocs, pays, ratio) == math.inf
