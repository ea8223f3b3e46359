import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roi_auction import (
    ConstructionError,
    DomainError,
    RoiTarget,
    make_piecewise_constant,
    make_power_ramp,
    make_step,
    myerson_payment,
    payment_schedule,
    roi_violation,
    run_standard_audit,
)
from oracles import brute_rebate, brute_roi_payment, exact_payments
from random_rules import random_monotone_rule

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


def test_myerson_payment_values():
    assert myerson_payment(make_step(0.4, 1.0), 0.7) == pytest.approx(0.4, abs=1e-15)
    assert myerson_payment(RAMP, 0.6) == pytest.approx((2 / 3) * 0.36, abs=1e-15)
    vs = np.asarray([0.2, 0.75, 1.0])
    got = myerson_payment(RAMP, vs)
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
    # left limit at the jump keeps the lower price
    assert sched.value_at(0.6, side="left") == pytest.approx(0.1, abs=1e-12)


def test_roi_violation_peaks_at_step_threshold():
    rule = make_step(0.4, 1.0)
    zs = np.asarray([0.4, 0.6, 1.0])
    got = roi_violation(rule, M2, zs)
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
@settings(max_examples=80, deadline=None)
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
    assert got >= float(roi_violation(rule, m, 0.8)) - 1e-15


def test_schedule_csv_golden():
    sched = payment_schedule(make_step(0.4, 1.0), M2, grid_n=5)
    assert sched.csv_text() == (
        "v,x,p_myerson,p_roi,rebate\n"
        "0,0,0,0,0\n"
        "0.25,0,0,0,0\n"
        "0.4,1,0.4,0.4,0.4\n"
        "0.5,1,0.4,0.4,0.4\n"
        "0.75,1,0.4,0.4,0.4\n"
        "1,1,0.4,0.4,0.4\n"
    )


def test_hand_schedules_interpolate_and_hide_rebates():
    sched = payment_schedule(make_step(0.4, 1.0), M2, grid_n=201)
    hand = sched.with_payments(sched.payments * 0.5)
    assert not hand.derived
    assert hand.value_at(0.7) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ConstructionError):
        hand.rebate_at(0.7)
    with pytest.raises(ConstructionError):
        sched.with_payments(np.zeros(3))


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
