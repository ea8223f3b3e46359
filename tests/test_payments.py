import functools
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roi_auction import (
    ConditioningWarning,
    ConstructionError,
    DomainError,
    PaymentSchedule,
    PowerCdfDistribution,
    RoiTarget,
    UniformDistribution,
    distribution_from_descriptor,
    expected_revenue_quadrature,
    make_piecewise_constant,
    make_power_ramp,
    make_step,
    make_table,
    myerson_baseline,
    optimal_mechanism,
    payment_schedule,
    run_standard_audit,
)
from roi_auction.allocation import AllocationRule, Constant, Linear, Segment
from roi_auction.payments import _envelope
from oracles import (
    brute_rebate,
    brute_roi_payment,
    eager_schedule_columns,
    exact_payments,
    loop_payment_pieces,
    per_row_csv,
    piece_tuples,
    tuple_power_product_integral,
)
from random_rules import perturbed_table_copy, random_monotone_rule, random_nonmonotone_rule

M2 = RoiTarget(2.0)
RAMP = make_power_ramp(0.75, 2.0)
STAIRS = make_piecewise_constant([0.2, 0.6], [0.0, 0.5, 1.0], 1.0)


def test_roi_target_guards():
    for bad in (1.0, 0.5, -2.0, float("inf"), float("nan"), True):
        with pytest.raises(ConstructionError):
            RoiTarget(bad)
    assert RoiTarget(2).ratio == 2.0


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("ratio", [1.5, 2.0, 5.0])
def test_step_payment_equals_its_threshold(r, ratio):
    """The rebate cancels the ratio factor exactly: winners pay r, losers 0."""
    sched = payment_schedule(make_step(r, 1.0), RoiTarget(ratio))
    for v in (r, (r + 1.0) / 2.0, 1.0):
        assert abs(sched.value_at(v) - r) <= 1e-12
    for v in (0.0, r / 2.0, r * (1.0 - 1e-9)):
        assert sched.value_at(v) == 0.0


@pytest.mark.parametrize("ratio", [1.5, 2.0, 5.0])
def test_step_rebate_value(ratio):
    sched = payment_schedule(make_step(0.4, 1.0), RoiTarget(ratio))
    assert sched.rebate_at(1.0) == pytest.approx((ratio - 1.0) * 0.4, abs=1e-12)
    assert sched.rebate_at(0.2) == 0.0


def _on(rule, m, vs):
    """(x, p~, g) of ``rule`` at vs, by the kernel that samples every derived schedule."""
    return _envelope(rule, m.ratio, np.asarray(vs, dtype=float))


def test_myerson_payment_values():
    assert _on(make_step(0.4, 1.0), M2, [0.7])[1][-1] == pytest.approx(0.4, abs=1e-15)
    assert _on(RAMP, M2, [0.6])[1][-1] == pytest.approx((2 / 3) * 0.36, abs=1e-15)
    got = _on(RAMP, M2, [0.2, 0.75, 1.0])[1]
    assert got == pytest.approx([(2 / 3) * 0.04, 0.375, 0.375], abs=1e-15)


def test_ramp_payment_closed_form():
    # first-price below the threshold: p(v) = (4/3) v^2, then the constant 0.75
    sched = payment_schedule(RAMP, M2)
    assert sched.value_at(0.6) == pytest.approx(0.48, abs=1e-12)
    assert sched.value_at(0.3) == pytest.approx((4 / 3) * 0.09, abs=1e-12)
    assert sched.value_at(0.75) == pytest.approx(0.75, abs=1e-12)
    assert sched.value_at(0.9) == pytest.approx(0.75, abs=1e-12)
    assert sched.value_at(1.0) == pytest.approx(0.75, abs=1e-12)


def test_two_level_staircase_payments():
    sched = payment_schedule(STAIRS, M2)
    for v in (0.2, 0.35, 0.6 - 1e-9):
        assert sched.value_at(v) == pytest.approx(0.1, abs=1e-12)
    for v in (0.6, 0.8, 1.0):
        assert sched.value_at(v) == pytest.approx(0.6, abs=1e-12)
    assert sched.value_at(0.1) == 0.0


def test_roi_violation_peaks_at_step_threshold():
    grid = np.asarray([0.4, 0.6, 1.0])
    x, pt, _ = _on(make_step(0.4, 1.0), M2, grid)
    got = M2.ratio * pt - grid * x
    assert got == pytest.approx([0.4, 0.2, -0.2], abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("ratio", [1.5, 2.0, 5.0])
def test_payment_matches_brute_force(seed, ratio):
    rule = random_monotone_rule(seed)
    sched = payment_schedule(rule, RoiTarget(ratio))
    for v in (0.31, 0.62, 0.94):
        want = brute_roi_payment(rule, ratio, v, n=40_001)
        assert sched.value_at(v) == pytest.approx(want, abs=5e-5)


@pytest.mark.parametrize("seed", range(12))
def test_rebate_matches_brute_force(seed):
    rule = random_monotone_rule(seed)
    sched = payment_schedule(rule, M2)
    for v in (0.5, 1.0):
        want = brute_rebate(rule, 2.0, v, n=40_001)
        assert sched.rebate_at(v) == pytest.approx(want, abs=5e-5)


def test_schedule_agrees_with_scalar_route_everywhere():
    sched = payment_schedule(STAIRS, M2)
    on_grid = sched.grid[::97]
    for v in on_grid:
        assert sched.value_at(float(v)) == payment_schedule(STAIRS, M2).value_at(float(v))
    for v in (0.123456789, 0.543210987, 0.999999):
        assert sched.value_at(v) == payment_schedule(STAIRS, M2).value_at(v)


@pytest.mark.parametrize("seed", range(20))
def test_payment_invariants(seed):
    rule = random_monotone_rule(seed)
    sched = payment_schedule(rule, M2, grid_n=2001)
    vx = sched.grid * sched.allocations
    assert np.all(sched.payments <= vx + 1e-9)
    assert np.all(sched.payments <= M2.ratio * sched.myerson + 1e-12)
    assert np.all(sched.rebates >= -1e-15)
    assert np.all(np.diff(sched.rebates) >= -1e-15)


@given(seed=st.integers(0, 60), ratio=st.floats(1.1, 8.0), t=st.floats(0.0, 1.0))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_payment_bounded_by_realized_value(seed, ratio, t):
    rule = random_monotone_rule(seed)
    m = RoiTarget(ratio)
    v = t * rule.vmax
    p = payment_schedule(rule, m).value_at(v)
    assert -1e-12 <= p <= v * rule.evaluate(v) + 1e-12


def test_near_unit_ratio_payments_approach_myerson():
    m = RoiTarget(1.0 + 1e-6)
    for seed in range(8):
        rule = random_monotone_rule(seed)
        sched = payment_schedule(rule, m, grid_n=501)
        assert float(np.max(np.abs(sched.payments - sched.myerson))) < 1e-4


def test_rebate_insensitive_to_grid_density():
    rule = random_monotone_rule(3)
    coarse = payment_schedule(rule, M2, grid_n=101).rebate_at(0.9)
    fine = payment_schedule(rule, M2, grid_n=100_001).rebate_at(0.9)
    assert coarse == pytest.approx(fine, abs=1e-9)


def test_interior_rebate_maximum_for_sub_two_ratio():
    # x = v - 0.4 on [0.4, 1] puts the rebate peak at z = 0.8 for ratio 1.5
    from roi_auction.allocation import AllocationRule, Linear, Segment

    rule = AllocationRule(
        1.0, (Segment(0.0, 0.4, Linear(0.0, 0.0)), Segment(0.4, 1.0, Linear(1.0, -0.4)))
    )
    m = RoiTarget(1.5)
    # coarse grid: the closed form must carry it
    got = payment_schedule(rule, m, grid_n=11).rebate_at(1.0)
    want = brute_rebate(rule, 1.5, 1.0, n=400_001)
    assert got == pytest.approx(want, abs=1e-7)
    x, pt, _ = _on(rule, m, [0.8])
    assert got >= float(m.ratio * pt[-1] - 0.8 * x[-1]) - 1e-15


def _csv(sched) -> str:
    buf = io.StringIO()
    sched.write_csv(buf)
    return buf.getvalue()


def test_schedule_csv_golden():
    sched = payment_schedule(make_step(0.4, 1.0), M2, grid_n=5)
    assert _csv(sched) == (
        "v,x,p_myerson,p_roi,rebate\n"
        "0,0,0,0,0\n"
        "0.25,0,0,0,0\n"
        "0.4,1,0.4,0.4,0.4\n"
        "0.5,1,0.4,0.4,0.4\n"
        "0.75,1,0.4,0.4,0.4\n"
        "1,1,0.4,0.4,0.4\n"
    )


# every value whose %-format and format() renderings could plausibly differ
CSV_SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e21,
    float("inf"), float("-inf"), float("nan"), 1.0 / 3.0, 0.1, 123456789012.5,
]


def _sampled_as(columns: np.ndarray):
    """A derived schedule whose five CSV columns are the rows of ``columns``: they
    stand in for its sampled columns, which the CSV writer reads."""
    grid, allocations, myerson, payments, rebates = columns
    sched = payment_schedule(make_step(0.4, 1.0), M2)
    vars(sched)["_columns"] = (grid, allocations, myerson, rebates, payments)
    return sched


def test_schedule_csv_matches_per_row_writer_on_special_values():
    specials = np.asarray(CSV_SPECIALS)
    # each column holds every special value, in a different order
    columns = np.stack([np.roll(specials, k) for k in range(5)])
    sched = _sampled_as(columns)
    assert _csv(sched) == per_row_csv(sched)
    assert "\n0.333333333333,nan,-inf,inf,1e+21\n" in _csv(sched)


@pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025, 2049])
def test_schedule_csv_matches_per_row_writer_across_block_boundaries(rows):
    rng = np.random.default_rng(rows)
    columns = rng.standard_normal((5, rows)) * 10.0 ** rng.integers(-300, 300, (5, rows))
    columns.flat[rng.integers(0, columns.size, 8)] = rng.choice(CSV_SPECIALS, 8)
    sched = _sampled_as(columns)
    text = _csv(sched)
    assert text == per_row_csv(sched)
    assert text.count("\n") == rows + 1


KINDS = [
    {"kind": "uniform", "vmax": 1.0},
    {"kind": "power_cdf", "vmax": 3.0, "exponent": 2.0},
    {"kind": "piecewise_linear_density", "vmax": 1.0, "breakpoints": [0.0, 1.0],
     "densities": [0.5, 1.5]},
    {"kind": "tabulated_cdf", "vmax": 1.0, "points": [[0.0, 0.0], [0.5, 0.3], [1.0, 1.0]]},
]


@pytest.mark.parametrize("ratio", [1.01, 2.0, 20.0])
@pytest.mark.parametrize("desc", KINDS, ids=lambda d: d["kind"])
def test_schedule_csv_matches_per_row_writer_on_optimal_ramps(desc, ratio):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        sol = optimal_mechanism(distribution_from_descriptor(desc), RoiTarget(ratio))
    assert _csv(sol.schedule) == per_row_csv(sol.schedule)


def test_hand_schedules_interpolate_and_hide_rebates():
    sched = payment_schedule(make_step(0.4, 1.0), M2, grid_n=201)
    hand = PaymentSchedule.hand(sched.allocation, M2, sched.grid, sched.payments * 0.5)
    assert not hand.derived
    assert hand.value_at(0.7) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ConstructionError):
        hand.rebate_at(0.7)
    with pytest.raises(ConstructionError, match="must share a length"):
        PaymentSchedule.hand(sched.allocation, M2, sched.grid, np.zeros(3))


def test_hand_schedule_holds_only_its_grid_and_payments():
    rule = make_step(0.4, 1.0)
    grid, pays = np.asarray([0.0, 0.5, 1.0]), np.asarray([0.0, 0.2, 0.4])
    hand = PaymentSchedule.hand(rule, M2, grid, pays)
    assert np.array_equal(hand.grid, grid) and np.array_equal(hand.payments, pays)
    assert hand.value_many([0.25, 0.75]).tolist() == [0.1, 0.30000000000000004]
    # the interpolant, linear between grid points, as power terms in t = v / vmax
    assert [(lo, hi) for lo, hi, _ in piece_tuples(hand.pieces())] == [(0.0, 0.5), (0.5, 1.0)]
    for refused in (
        lambda: hand.allocations,
        lambda: hand.myerson,
        lambda: hand.rebates,
        hand.columns,
        lambda: hand.write_csv(io.StringIO()),
        lambda: hand.rebate_at(0.7),
    ):
        with pytest.raises(ConstructionError, match="holds only its grid and payments"):
            refused()


@pytest.mark.parametrize(
    "grid,payments,message",
    [
        # a repeated point: the revenue divided by the zero-width cell
        ([0.0, 0.5, 0.5, 1.0], [0.0, 0.25, 0.5, 0.5], "increase strictly"),
        # a point out of order: the revenue came out 0.125, silently wrong
        ([0.0, 0.75, 0.5, 1.0], [0.0, 0.5, 0.5, 0.5], "increase strictly"),
        ([0.1, 0.5, 1.0], [0.0, 0.25, 0.5], "increase strictly"),
        ([0.0, 0.5, 1.5], [0.0, 0.25, 0.5], "increase strictly"),
        ([0.0], [0.0], "share a length"),
        ([0.0, float("nan"), 1.0], [0.0, 0.25, 0.5], "must be finite"),
        ([0.0, 0.5, 1.0], [0.0, float("inf"), 0.5], "must be finite"),
        ([0.0, 1e-300, 1.0], [0.0, -1.8e8, 0.5], "too fast"),
    ],
    ids=["repeated", "decreasing", "off_zero", "past_vmax", "one_point", "nan_grid",
         "inf_payment", "slope_overflow"],
)
def test_hand_refuses_grids_it_cannot_interpolate(grid, payments, message):
    # the CLI refused these files; the library took them and priced them wrongly
    with pytest.raises(ConstructionError, match=message):
        PaymentSchedule.hand(make_step(0.5), RoiTarget(2), grid, payments)


def test_hand_takes_a_derived_grid_that_ends_past_vmax():
    # a rule may end 1e-12 past vmax, and its knots join the derived grid; the
    # uniqueness probe re-prices that grid as a hand schedule
    vmax = 1e-6
    rule = AllocationRule(
        vmax,
        (Segment(0.0, 0.5 * vmax, Constant(0.0)), Segment(0.5 * vmax, vmax + 5e-13, Constant(1.0))),
    )
    sched = payment_schedule(rule, M2, grid_n=51)
    assert sched.grid[-1] > vmax * (1 + 1e-12)
    hand = PaymentSchedule.hand(rule, M2, sched.grid, sched.payments)
    assert np.array_equal(hand.value_many(sched.grid), sched.payments)
    assert run_standard_audit(sched).passed
    with pytest.raises(ConstructionError, match="increase strictly"):
        PaymentSchedule.hand(rule, M2, [0.0, vmax + 2e-12], [0.0, 0.0])


def test_cached_candidate_grid_is_read_only():
    # schedules of one rule, ratio and size share the cached grid, so a write to
    # one schedule's grid would move every other's
    grid = payment_schedule(make_step(0.4, 1.0), M2, 11).grid
    with pytest.raises(ValueError, match="read-only"):
        grid *= 0.5
    assert payment_schedule(make_step(0.4, 1.0), M2, 11).grid[-1] == 1.0


@functools.cache
def _lazy_cases() -> dict:
    """(rule, target) by name: each kind's optimal ramp at two ratios, a step,
    a table and a stored ``PowerRamp``."""
    cases = {}
    for desc in KINDS:
        for ratio in (1.5, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                sol = optimal_mechanism(distribution_from_descriptor(desc), RoiTarget(ratio))
            cases[f"{desc['kind']}_ramp_{ratio}"] = (sol.schedule.allocation, RoiTarget(ratio))
    cases["step"] = (make_step(0.4, 1.0), RoiTarget(3.0))
    cases["table"] = (make_table([[0.0, 0.0], [0.3, 0.1], [0.55, 0.6], [1.0, 1.0]]), RoiTarget(2.5))
    cases["power_ramp"] = (RAMP, M2)
    return cases


@pytest.mark.parametrize("grid_n", [2, 51, 10_001])
@pytest.mark.parametrize(
    "case",
    [f"{d['kind']}_ramp_{r}" for d in KINDS for r in (1.5, 5.0)] + ["step", "table", "power_ramp"],
)
def test_sampled_columns_are_bitwise_the_eager_sweep(case, grid_n):
    rule, m = _lazy_cases()[case]
    want = eager_schedule_columns(rule, m, grid_n)
    sched = payment_schedule(rule, m, grid_n)
    for name, column in want.items():
        got = getattr(sched, name)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in column.tolist()], name


def test_revenue_leaves_a_derived_schedule_unsampled():
    dist = distribution_from_descriptor(KINDS[1])
    sol = optimal_mechanism(dist, RoiTarget(5.0))
    sched = payment_schedule(RAMP, M2)
    revenue = expected_revenue_quadrature(sched, distribution_from_descriptor(KINDS[0])).mean
    assert sol.expected_revenue > 0.0 and revenue > 0.0
    assert "_columns" not in vars(sol.schedule) and "_columns" not in vars(sched)
    # the first column read samples all five, once
    grid = sched.grid
    assert vars(sched)["_columns"][0] is grid and sched.payments is vars(sched)["_columns"][4]


HUGE_STEP = make_step(0.4e300, 1e300)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: payment_schedule(HUGE_STEP, RoiTarget(1e15)), "leaves the float range"),
        (lambda: PaymentSchedule.hand(HUGE_STEP, RoiTarget(1e15), [0.0, 1e300], [0.0, 0.0]),
         "leaves the float range"),
        (lambda: payment_schedule(RAMP, M2, 1), "at least two points"),
        (lambda: payment_schedule(RAMP, M2, 10**12), "in memory"),
    ],
    ids=["overflow", "overflow_on_grid", "one_point", "unallocatable"],
)
def test_refusals_raise_when_the_schedule_is_built(build, message):
    with pytest.raises(ConstructionError, match=message):
        build()


def test_payment_outside_support_fails():
    with pytest.raises(DomainError):
        payment_schedule(RAMP, M2).value_at(1.7)


@pytest.mark.parametrize("ratio", [5.0, 1e5, 1e6])
def test_tight_payments_are_exactly_realized_value(ratio):
    # where the violation is its own running max, p = v x with no rounding left
    sched = payment_schedule(RAMP, RoiTarget(ratio), grid_n=2001)
    vx = sched.grid * sched.allocations
    g = ratio * sched.myerson - vx
    tight = g == sched.rebates
    assert np.count_nonzero(tight) > 1000
    assert np.array_equal(sched.payments[tight], vx[tight])
    assert np.all(sched.payments <= vx)


@pytest.mark.parametrize("ratio", [1e5, 1e6])
def test_honest_ramp_passes_audit_at_large_ratio(ratio):
    # M p~ - R on the tight ramp left p above v x by ~ratio ulps: dsic read inf
    report = run_standard_audit(payment_schedule(RAMP, RoiTarget(ratio)))
    assert report.passed, report.summary()


@pytest.mark.parametrize("ratio", [1e2, 1e5, 1e8, 1e10])
@pytest.mark.parametrize("vmax", [1.0, 3.0])
def test_payment_error_within_stated_ratio_limit(ratio, vmax):
    """Payments stay within 2 ratio 2^-52 vmax of exact rational payments."""
    rules = [
        make_power_ramp(0.75 * vmax, 2.0, vmax),
        make_step(0.4 * vmax, vmax),
        make_piecewise_constant([0.2 * vmax, 0.6 * vmax], [0.0, 0.5, 1.0], vmax),
        *(random_monotone_rule(seed, vmax) for seed in range(6)),
    ]
    bound = 2.0 * ratio * 2.0**-52 * vmax
    for rule in rules:
        sched = payment_schedule(rule, RoiTarget(ratio), grid_n=201)
        exact = np.asarray(exact_payments(rule, ratio, sched.grid))
        assert float(np.max(np.abs(sched.payments - exact))) <= bound


# x = v - 0.4 past 0.4 at ratio 1.5 has its stationary point z = -0.4 / (1 * -0.5)
# exactly on the end 0.8 that two cells, or two segments, share
ON_END = {
    "table": make_table([[0.0, 0.0], [0.4, 0.0], [0.8, 0.4], [1.0, 0.6]]),
    "linear": AllocationRule(
        1.0,
        (
            Segment(0.0, 0.4, Linear(0.0, 0.0)),
            Segment(0.4, 0.8, Linear(1.0, -0.4)),
            Segment(0.8, 1.0, Linear(1.0, -0.4)),
        ),
    ),
}


@st.composite
def _walk_cases(draw):
    """A derived schedule of any rule shape, and a distribution on its support."""
    vmax = draw(st.sampled_from([1.0, 1e-6, 1e150]) | st.floats(-6.0, 150.0).map(lambda k: 10.0**k))
    ratio = draw(st.sampled_from([2.0, 1.01, 1e4]) | st.floats(1.01, 1e4))
    seed = draw(st.integers(0, 200))
    frac = draw(st.floats(0.05, 0.95))
    kind = draw(st.sampled_from(["monotone", "nonmonotone", "table", "ramp", "optimal", "posted",
                                 "on_end"]))
    if kind == "monotone":
        rule = random_monotone_rule(seed, vmax)
    elif kind == "nonmonotone":
        rule = random_nonmonotone_rule(seed, vmax)
    elif kind in ("table", "ramp"):
        # the ramp's own ratio keeps its exponent at most 2, where any threshold here is storable
        rule = make_power_ramp(frac * vmax, draw(st.sampled_from([1.5, 2.0, 5.0])), vmax)
        if kind == "table":
            # 101 knots, flat wherever the nudged values were clipped or held up
            rule = perturbed_table_copy(rule, seed, magnitude=draw(st.sampled_from([0.02, 0.2])))
    elif kind == "optimal":
        name = draw(st.sampled_from([n for n in _lazy_cases() if "_ramp_" in n]))
        rule = _lazy_cases()[name][0]
        vmax = rule.vmax
    elif kind == "on_end":
        rule, vmax, ratio = ON_END[draw(st.sampled_from(sorted(ON_END)))], 1.0, 1.5
    dist = draw(st.sampled_from([UniformDistribution(vmax), PowerCdfDistribution(2.0, vmax=vmax)]))
    if kind == "posted":
        return myerson_baseline(dist, RoiTarget(ratio), grid_n=51), dist
    return payment_schedule(rule, RoiTarget(ratio), grid_n=51), dist


def _hexed(pieces):
    return [
        (lo.hex(), hi.hex(), [(a.hex(), e.hex()) for a, e in terms]) for lo, hi, terms in pieces
    ]


@given(_walk_cases())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_payment_pieces_are_bitwise_the_loop_they_replaced(case):
    sched, dist = case
    vmax = sched.allocation.vmax
    # an array step that warns where Python arithmetic stayed silent would print on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = piece_tuples(sched.pieces())
        want = loop_payment_pieces(sched)
        revenue = expected_revenue_quadrature(sched, dist).mean
        density = piece_tuples(dist.pdf_pieces())
        loop_revenue = vmax * tuple_power_product_integral(want, density, vmax, 1.0)
    # a zero coefficient is an absent term of ``Pieces``; the loop kept some, such as a zero level
    assert _hexed(got) == _hexed(piece_tuples(want))
    assert revenue.hex() == loop_revenue.hex()
    # the running max is the loop's only where no g is nan, where np.maximum and max differ
    assert all(math.isfinite(v) for _, _, terms in got for a, e in terms for v in (a, e))
    # a flat row lifts the rule row's one term with a nonzero exponent: there is at most one
    assert np.all(np.count_nonzero(sched.allocation.pieces().expo, axis=1) <= 1)


def test_stationary_point_on_a_cell_end_cuts_nothing():
    assert -0.4 / (1.0 * (1.5 - 2.0)) == 0.8
    for rule in ON_END.values():
        assert rule.stationary_candidates(1.5) == ()
        got = payment_schedule(rule, RoiTarget(1.5)).pieces()
        assert 0.8 in {lo for lo, _, _ in piece_tuples(got)}
