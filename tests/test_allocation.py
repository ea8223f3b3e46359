import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roi_auction import (
    AllocationRule,
    ConditioningWarning,
    ConstructionError,
    DescriptorError,
    DomainError,
    RoiTarget,
    allocation_from_descriptor,
    make_constant,
    make_piecewise_constant,
    make_power_ramp,
    make_step,
    make_table,
    payment_schedule,
)
from roi_auction.allocation import Constant, Linear, PowerRamp, Segment, TableShape
from oracles import piece_tuples, simpson_integral
from random_rules import random_monotone_rule, random_nonmonotone_rule

STEP = make_step(0.4, 1.0)
RAMP = make_power_ramp(0.75, 2.0)  # x = (4/3) v below 0.75, then 1
STAIRS = make_piecewise_constant([0.2, 0.6], [0.0, 0.5, 1.0], 1.0)
TABLE = make_table([(0.0, 0.0), (0.3, 0.2), (0.6, 0.2), (1.0, 1.0)])


def test_step_is_right_continuous():
    assert STEP.evaluate(0.4) == 1.0
    assert STEP.evaluate(0.4 - 1e-9) == 0.0
    assert STEP.jump_points() == ((0.4, 0.0, 1.0),)


def test_prefix_integral_closed_forms():
    assert STEP.prefix_integral(0.7) == pytest.approx(0.3, abs=1e-15)
    assert STEP.prefix_integral(1.0) == pytest.approx(0.6, abs=1e-15)
    assert STEP.prefix_integral(0.4) == pytest.approx(0.0, abs=1e-15)
    # ramp: (4/3) v^2 / 2 below the threshold
    assert RAMP.prefix_integral(0.75) == pytest.approx((4 / 3) * 0.75**2 / 2, abs=1e-15)
    assert RAMP.prefix_integral(0.6) == pytest.approx(0.24, abs=1e-15)
    assert STAIRS.prefix_integral(1.0) == pytest.approx(0.4 * 0.5 + 0.4, abs=1e-15)


def test_ramp_slope_value():
    v = np.asarray([0.15, 0.3, 0.6])
    assert np.allclose(RAMP.evaluate(v), (4 / 3) * v, atol=1e-15)
    assert RAMP.evaluate(0.75) == 1.0
    assert RAMP.evaluate(0.9) == 1.0


@pytest.mark.parametrize("seed", range(25))
def test_prefix_integral_matches_simpson_per_segment(seed):
    rule = random_monotone_rule(seed)
    for seg in rule.segments:
        def f(t, shape=seg.shape):
            return float(shape.value(t))

        want = simpson_integral(f, seg.lo, seg.hi, 801)
        got = float(rule.prefix_integral(seg.hi) - rule.prefix_integral(seg.lo))
        assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_one_segment_lookup_gives_evaluate_and_prefix_integral(seed):
    rule = random_monotone_rule(seed, vmax=(1.0, 37.5)[seed % 2])
    vmax = rule.vmax
    rng = np.random.default_rng(seed)
    points = (
        0.37 * vmax,
        vmax,
        np.empty(0),
        rng.uniform(0.0, vmax, 257),
        np.asarray(rule.knots()),
        np.asarray([-0.5e-12 * vmax, vmax * (1.0 + 0.5e-12)]),
    )
    for v in points:
        x, area = rule._value_and_integral(v)
        want_x, want_area = rule.evaluate(v), rule.prefix_integral(v)
        if np.ndim(v) == 0:
            assert type(x) is float and type(area) is float
        assert np.asarray(x).tobytes() == np.asarray(want_x).tobytes()
        assert np.asarray(area).tobytes() == np.asarray(want_area).tobytes()
    for bad in (-2e-12 * vmax, vmax * (1.0 + 2e-12), np.asarray([0.5 * vmax, -vmax])):
        errors = []
        for fn in (rule._value_and_integral, rule.evaluate, rule.prefix_integral):
            with pytest.raises(DomainError) as exc:
                fn(bad)
            errors.append(str(exc.value))
        assert len(set(errors)) == 1


@pytest.mark.parametrize("seed", range(25))
def test_random_monotone_rules_are_monotone_and_bounded(seed):
    rule = random_monotone_rule(seed)
    report = rule.check_monotone()
    assert report.passed, report.to_dict()
    grid = np.linspace(0.0, rule.vmax, 501)
    x = rule.evaluate(grid)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)


@pytest.mark.parametrize("seed", range(10))
def test_nonmonotone_rules_are_flagged_with_witness(seed):
    rule = random_nonmonotone_rule(seed)
    report = rule.check_monotone()
    assert not report.passed
    assert report.worst_violation > 0.0
    assert 0.0 <= report.at_v <= rule.vmax


@pytest.mark.parametrize(
    "shape,at_v",
    [
        ({"type": "linear", "slope": -1e-10, "intercept": 0.5}, 0.0),
        ({"type": "table", "points": [[0.0, 0.2], [0.5, 0.6], [1.0, 0.6 - 1e-10]]}, 0.5),
    ],
    ids=["linear", "table_cell"],
)
def test_fall_spread_over_a_piece_fails_check_monotone(shape, at_v):
    # 1e-10 in all, 100 times MONOTONE_TOL, but at most 5e-14 per grid step
    rule = allocation_from_descriptor(
        {"vmax": 1.0, "segments": [{"lo": 0.0, "hi": 1.0, "shape": shape}]}
    )
    report = rule.check_monotone()
    assert not report.passed
    assert report.worst_violation == pytest.approx(1e-10, rel=1e-6)
    assert report.at_v == at_v


@given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_evaluate_never_decreases(seed, a, b):
    rule = random_monotone_rule(seed % 100)
    lo, hi = min(a, b), max(a, b)
    assert rule.evaluate(lo) <= rule.evaluate(hi) + 1e-12


def test_constructor_guards():
    with pytest.raises(ConstructionError):
        make_step(1.0, 1.0)  # threshold must sit strictly below vmax
    with pytest.raises(ConstructionError):
        make_step(-0.1, 1.0)
    with pytest.raises(ConstructionError):
        make_piecewise_constant([0.5], [0.8, 0.2], 1.0)  # decreasing levels
    with pytest.raises(ConstructionError):
        make_table([(0.0, 0.5), (0.5, 0.2), (1.0, 1.0)])
    with pytest.raises(ConstructionError):
        make_power_ramp(0.5, 1.0)  # ratio must exceed 1
    with pytest.raises(ConstructionError):
        AllocationRule(1.0, (Segment(0.0, 0.4, Linear(1.0, 0.0)),))  # gap before vmax


def test_power_ramp_scale_must_stay_a_normal_float():
    # exponent 1000 keeps 0.5^-1000 ~ 1e301 finite; exponent 1e7 would overflow
    with pytest.warns(ConditioningWarning):
        steep = make_power_ramp(0.5, 1.001)
    assert float(steep.segments[0].shape.value(0.5)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConstructionError, match="too close to 1"):
        make_power_ramp(0.5, 1.0000001)
    with pytest.raises(ConstructionError, match="too close to 1"):
        make_power_ramp(1e10, 1.01, vmax=2e10)  # 1e10^-100 underflows instead


def test_step_at_zero_is_constant_one():
    rule = make_step(0.0, 1.0)
    assert rule.evaluate(0.0) == 1.0
    assert rule.jump_points() == ()


def test_evaluation_outside_support_fails():
    with pytest.raises(DomainError):
        STEP.evaluate(1.5)
    with pytest.raises(DomainError):
        STEP.prefix_integral(-0.3)


def test_stationary_candidates_for_sub_two_ratios():
    # x = v - 0.4 on [0.4, 1]: g'(z) = 0 at z = -0.4 / (1 * (1.5 - 2)) = 0.8
    rule = AllocationRule(
        1.0,
        (Segment(0.0, 0.4, Linear(0.0, 0.0)), Segment(0.4, 1.0, Linear(1.0, -0.4))),
    )
    assert 0.8 in rule.stationary_candidates(1.5)
    # for ratio 2 the candidate disappears (g is monotone on linear pieces)
    assert all(abs(z - 0.8) > 1e-9 for z in rule.stationary_candidates(2.0))


@pytest.mark.parametrize("rule", [STEP, RAMP, STAIRS, TABLE], ids=["step", "ramp", "stairs", "table"])
def test_descriptor_round_trip(rule):
    again = allocation_from_descriptor(rule.descriptor())
    grid = np.linspace(0.0, rule.vmax, 97)
    assert np.array_equal(again.evaluate(grid), rule.evaluate(grid))
    assert again.descriptor() == rule.descriptor()


def test_descriptor_rejects_malformed():
    good = STEP.descriptor()
    with pytest.raises(DescriptorError):
        allocation_from_descriptor({**good, "extra": 1})
    with pytest.raises(DescriptorError):
        allocation_from_descriptor({"vmax": 1.0})
    bad_shape = {
        "vmax": 1.0,
        "segments": [{"lo": 0.0, "hi": 1.0, "shape": {"type": "wiggle"}}],
    }
    with pytest.raises(DescriptorError):
        allocation_from_descriptor(bad_shape)


def test_descriptor_rejects_bad_tiling():
    desc = {
        "vmax": 1.0,
        "segments": [
            {"lo": 0.0, "hi": 0.5, "shape": {"type": "constant", "level": 0.0}},
            {"lo": 0.6, "hi": 1.0, "shape": {"type": "constant", "level": 1.0}},
        ],
    }
    with pytest.raises(ConstructionError):
        allocation_from_descriptor(desc)


def test_knots_cover_segment_joins_and_table_vertices():
    assert set(STAIRS.knots()) == {0.0, 0.2, 0.6, 1.0}
    assert set(TABLE.knots()) == {0.0, 0.3, 0.6, 1.0}


# a rule with every shape, off the unit interval
MIXED = AllocationRule(
    3.0,
    (
        Segment(0.0, 0.5, Constant(0.1)),
        Segment(0.5, 1.5, Linear(0.2, 0.05)),
        Segment(1.5, 2.0, PowerRamp(scale=0.7 / 2.0**3.5, exponent=3.5)),
        Segment(2.0, 3.0, TableShape(((2.0, 0.8), (2.4, 0.85), (2.5, 0.95), (3.0, 1.0)))),
    ),
)
# x = (v / 600)^110 below 600: vmax^110 alone overflows, the extrapolation to vmax does not
STEEP = AllocationRule(
    1000.0,
    (
        Segment(0.0, 600.0, PowerRamp(scale=600.0**-110, exponent=110.0)),
        Segment(600.0, 1000.0, Constant(1.0)),
    ),
)


@pytest.mark.parametrize(
    "rule", [MIXED, STEEP, STEP, RAMP, TABLE], ids=["mixed", "steep", "step", "ramp", "table"]
)
def test_pieces_reproduce_evaluate(rule):
    pieces = piece_tuples(rule.pieces())
    assert pieces[0][0] == 0.0 and pieces[-1][1] == rule.vmax
    assert all(a[1] == b[0] for a, b in zip(pieces[:-1], pieces[1:]))
    assert {lo for lo, _, _ in pieces} | {rule.vmax} == set(rule.knots())
    for lo, hi, terms in pieces:
        for v in np.linspace(lo, hi, 9)[:-1]:
            got = sum(a * (v / rule.vmax) ** e for a, e in terms)
            assert got == pytest.approx(rule.evaluate(v), rel=1e-13, abs=1e-15)


def test_power_integral_past_float_range_of_v_to_the_e_plus_one():
    # 600^111 overflows, so the integral goes through v x(v) / 111 there
    assert STEEP.prefix_integral(700.0) == pytest.approx(600.0 / 111.0 + 100.0, rel=1e-14)
    want = 599.0 / 111.0 * (599.0 / 600.0) ** 110
    assert STEEP.prefix_integral(599.0) == pytest.approx(want, rel=1e-13)
    assert np.all(np.isfinite(payment_schedule(STEEP, RoiTarget(2.0), 101).payments))


def test_power_pieces_out_of_float_range_are_a_domain_error():
    # x = v^110 on [0, 1] extrapolates to 1000^110 at vmax
    rule = AllocationRule(
        1000.0, (Segment(0.0, 1.0, PowerRamp(1.0, 110.0)), Segment(1.0, 1000.0, Constant(1.0)))
    )
    with pytest.raises(DomainError, match="float range"):
        rule.pieces()
