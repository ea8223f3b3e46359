import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roi_auction import (
    AuditReport,
    ConstructionError,
    PaymentSchedule,
    RoiTarget,
    UniformDistribution,
    check_characterization,
    check_dsic,
    check_ir,
    highest_bid_wins,
    make_constant,
    make_power_ramp,
    make_step,
    make_table,
    optimal_mechanism,
    payment_schedule,
    profile_audit,
    run_standard_audit,
    structural_audit,
    uniqueness_probe,
)
from roi_auction import audit
from roi_auction.allocation import AllocationRule, Segment, TableShape
from roi_auction.audit import DSIC_TOL, _audit_grid
from roi_auction.cli import json_text
from roi_auction.payments import DEFAULT_GRID_N, FEASIBILITY_TOL
from conftest import count_calls
from oracles import (
    broadcast_audit_grid,
    brute_dsic_gain,
    composed_standard_audit,
    full_matrix_dsic,
    per_profile_audit,
)
from random_rules import random_monotone_rule, random_nonmonotone_rule

M2 = RoiTarget(2.0)
M3 = RoiTarget(3.0)


def _clear_grid(rule, n=201):
    # keep a wide berth (1e-9 >> the audit's merge band) so the audit grid
    # for a hand schedule on this grid is exactly this grid
    base = np.linspace(0.0, rule.vmax, n)
    knots = np.asarray(rule.knots())
    gap = np.min(np.abs(base[:, None] - knots[None, :]), axis=1)
    return np.unique(np.concatenate([base[gap > 1e-9], knots]))


def test_mechanism_point_queries():
    mech = payment_schedule(make_step(0.4, 1.0), M2)
    assert mech.allocation.evaluate(0.7) == 1.0
    assert mech.allocation.evaluate(0.2) == 0.0
    assert mech.value_at(0.7) == pytest.approx(0.4, abs=1e-12)


def test_check_dsic_worst_matches_brute_oracle():
    """Undercutting the flat tail lets a loser just below the step buy the win.

    With tail payments at 0.39, the largest grid value v below the step can
    misreport into the tail (0.39 is affordable) and pocket 2v - 0.39, which
    dwarfs the 0.01 gain of truthful winners switching to the cheaper tail.
    """
    rule = make_step(0.4, 1.0)
    grid = _clear_grid(rule)
    pays = payment_schedule(rule, M2).value_many(grid)
    breached = np.where(grid >= 0.7, pays - 0.01, pays)
    mech = PaymentSchedule.hand(rule, M2, grid, breached)

    check = check_dsic(mech, grid_n=grid.size)
    oracle = brute_dsic_gain(grid, rule.evaluate(grid), breached, M2.ratio)
    assert check.worst_violation == pytest.approx(oracle, abs=1e-12)
    v_jump = float(grid[grid < 0.4].max())
    assert check.worst_violation == pytest.approx(2.0 * v_jump - 0.39, abs=1e-12)
    assert not check.passed
    assert check.witness["v"] == pytest.approx(v_jump, abs=1e-12)
    assert check.witness["b"] >= 0.7


def test_unrebated_payments_fail_dsic_and_ir():
    # ratio * myerson with no rebate charges 0.8 on the step's win region,
    # unaffordable until v = 0.8, so truthful reporting breaks down entirely
    rule = make_step(0.4, 1.0)
    grid = _clear_grid(rule)
    x = rule.evaluate(grid)
    naive = M2.ratio * (grid * x - rule.prefix_integral(grid))
    mech = PaymentSchedule.hand(rule, M2, grid, naive)

    dsic = check_dsic(mech, grid_n=grid.size)
    assert not dsic.passed
    assert math.isinf(dsic.worst_violation)
    assert math.isinf(brute_dsic_gain(grid, x, naive, M2.ratio))

    ir = check_ir(mech)
    assert not ir.passed
    assert ir.worst_violation == pytest.approx(0.4, abs=1e-9)
    assert ir.witness["v"] == pytest.approx(0.4, abs=1e-9)

    char = check_characterization(mech)
    assert not char.passed
    assert char.witness["payment_gap"] == pytest.approx(0.4, abs=1e-9)


def test_characterization_localizes_payment_gap():
    rule = make_step(0.4, 1.0)
    grid = _clear_grid(rule)
    pays = payment_schedule(rule, M2).value_many(grid)
    breached = np.where(grid >= 0.7, pays - 0.01, pays)
    mech = PaymentSchedule.hand(rule, M2, grid, breached)
    check = check_characterization(mech)
    assert not check.passed
    assert check.witness["payment_gap"] == pytest.approx(0.01, abs=1e-12)
    assert check.witness["payment_gap_at"] >= 0.7
    assert check.witness["monotone"] is True


@pytest.mark.parametrize("ratio", [1.5, 2.0, 5.0])
@pytest.mark.parametrize("seed", range(10))
def test_standard_audit_round_trip(seed, ratio):
    mech = payment_schedule(random_monotone_rule(seed), RoiTarget(ratio))
    report = run_standard_audit(mech)
    assert report.passed, report.summary()
    assert tuple(c.name for c in report.checks) == (
        "monotone",
        "characterization",
        "dsic",
        "ir",
        "uniqueness_probe",
    )


@st.composite
def _audited_mechanisms(draw, forms):
    """Derived or hand schedules (``forms``) of every rule shape, at vmax 1e-6 to 1e150."""
    vmax = 10.0 ** draw(st.floats(-6.0, 150.0))
    m = RoiTarget(draw(st.sampled_from([1.01, 1.5, 2.0, 3.0, 20.0, 1e4])))
    seed = draw(st.integers(0, 50))
    kind = draw(st.sampled_from(["monotone", "nonmonotone", "ramp", "step", "null"]))
    if kind == "monotone":
        rule = random_monotone_rule(seed, vmax)
    elif kind == "nonmonotone":
        rule = random_nonmonotone_rule(seed, vmax)
    elif kind == "ramp":
        # the ramp's own ratio keeps its exponent at most 2, where any threshold here is storable
        rule = make_power_ramp(
            draw(st.floats(0.05, 0.95)) * vmax, draw(st.sampled_from([1.5, 2.0, 5.0])), vmax
        )
    elif kind == "step":
        rule = make_step(draw(st.floats(0.0, 0.99)) * vmax, vmax)
    else:
        rule = make_constant(0.0, vmax)
    derived = payment_schedule(rule, m, grid_n=draw(st.sampled_from([2, 51, 201, 2001])))
    form = draw(forms)
    if form == "derived":
        return derived
    grid = _clear_grid(rule, draw(st.integers(2, 301)))
    pays = derived.value_many(grid)
    lo = draw(st.integers(0, grid.size - 1))
    stretch = slice(lo, draw(st.integers(lo + 1, grid.size)))
    if form == "tampered":
        pays[stretch] += draw(st.floats(-0.1, 0.1)) * vmax
    elif form != "honest":
        # a hand schedule refuses non-finite payments, so the audit sees the honest one
        refused = pays.copy()
        refused[stretch] = float(form)
        with pytest.raises(ConstructionError, match="must be finite"):
            PaymentSchedule.hand(rule, m, grid, refused)
    return PaymentSchedule.hand(rule, m, grid, pays)


@pytest.mark.parametrize(
    "forms",
    [st.just("derived"), st.sampled_from(["honest", "tampered", "nan", "inf", "-inf"])],
    ids=["derived", "hand"],
)
@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_standard_audit_equals_the_composed_public_checks(forms, data):
    mech = data.draw(_audited_mechanisms(forms))
    with np.errstate(all="ignore"):
        got = run_standard_audit(mech)
        want = composed_standard_audit(mech)
    assert json_text(got.to_dict()) == json_text(want.to_dict())
    assert [c.worst_violation.hex() for c in got.checks] == [
        c.worst_violation.hex() for c in want.checks
    ]
    assert repr(got.to_dict()) == repr(want.to_dict())


@pytest.mark.parametrize("form", ["derived", "hand"])
def test_standard_audit_evaluates_the_mechanism_once(form, monkeypatch):
    # the battery ran check_monotone twice and evaluated truthful outcomes six times:
    # for DSIC and IR on the mechanism and on each of the two probes
    mech = payment_schedule(random_monotone_rule(2), M3)
    if form == "hand":
        mech = PaymentSchedule.hand(mech.allocation, M3, mech.grid, mech.payments)
    counts = count_calls(monkeypatch, audit, "_truthful_outcomes", "_audit_grid")
    rule = count_calls(monkeypatch, AllocationRule, "check_monotone", "evaluate")
    assert run_standard_audit(mech).passed
    # one audit grid, whose x the probe shares; check_monotone reads the shapes, not
    # evaluate, and a hand schedule's outcomes evaluate the rule once (a derived
    # one's payment lookup gives x)
    assert {**rule, **counts} == {
        "check_monotone": 1,
        "evaluate": 0 if form == "derived" else 1,
        "_truthful_outcomes": 1,
        "_audit_grid": 1,
    }


@pytest.mark.parametrize("form", ["derived", "hand"])
def test_structural_audit_evaluates_the_envelope_once(form, monkeypatch):
    # a derived schedule's lookup gives x, the cap g and the payment from one pass;
    # the other evaluation is the schedule's column sampling, which the lookup reads
    dist = UniformDistribution(1.0)
    sol = optimal_mechanism(dist, M2)
    if form == "hand":
        sched = sol.schedule
        sol = dataclasses.replace(sol, schedule=PaymentSchedule.hand(
            sched.allocation, M2, sched.grid, sched.payments))
    counts = count_calls(monkeypatch, AllocationRule, "_runs")
    assert structural_audit(sol, dist).passed
    assert counts == {"_runs": 2 if form == "derived" else 1}


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_nonmonotone_rule_fails_audit(seed):
    mech = payment_schedule(random_nonmonotone_rule(seed), M2)
    report = run_standard_audit(mech)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert {"monotone", "characterization"} <= failed


@pytest.mark.parametrize("seed", range(30))
def test_uniqueness_probe_catches_both_directions(seed):
    mech = payment_schedule(random_monotone_rule(seed), M2, DEFAULT_GRID_N)
    check = uniqueness_probe(mech)
    assert check.passed, check.witness
    assert check.witness["uncaught"] == []


@pytest.mark.parametrize("grid_n", [2, 51])
@pytest.mark.parametrize("seed", range(30))
def test_uniqueness_probe_ignores_the_payment_grid(seed, grid_n):
    # the probe shifts the truthful outcomes on the audit grid, so its verdict
    # does not depend on the payment grid the mechanism was derived on
    mech = payment_schedule(random_monotone_rule(seed), M2, grid_n)
    check = uniqueness_probe(mech)
    assert check.passed, check.witness
    assert check.witness["uncaught"] == []


def test_profile_audit_two_bidders_passes():
    # the default opponent grid lands a few ulps off round numbers (3 * 0.05
    # style), which once bridged an allocation jump through the feasibility
    # slack; keep the defaults so that stays covered
    report = profile_audit(highest_bid_wins(), [M2, M2])
    assert report.passed, report.summary()
    assert tuple(c.name for c in report.checks) == (
        "profile_monotone",
        "profile_dsic",
        "profile_ir",
    )


def test_profile_audit_three_bidders_mixed_targets(monkeypatch):
    monkeypatch.setattr(audit, "PROFILE_OPPONENT_GRID_N", 5)
    report = profile_audit(highest_bid_wins(), [M2, M3, RoiTarget(1.5)])
    assert report.passed, report.summary()


def test_profile_audit_bidder_count_guards():
    factory = highest_bid_wins()
    with pytest.raises(ConstructionError):
        profile_audit(factory, [M2])
    with pytest.raises(ConstructionError):
        profile_audit(factory, [M2, M2, M2, M2])


def test_profile_audit_flags_nonmonotone_factory():
    report = profile_audit(lambda i, bids: random_nonmonotone_rule(4), [M2, M2])
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["profile_monotone"]
    assert report.checks[0].witness["bidder"] == 0


def _mixed_factory(vmax):
    # seeded rules keyed on the bid total: repeats across profiles, some non-monotone
    def factory(i, bids):
        k = int(round(4.0 * sum(bids) / vmax))
        if k % 2:
            return random_nonmonotone_rule(k, vmax)
        return random_monotone_rule(k, vmax)

    return factory


@pytest.mark.parametrize(
    "factory,ms,vmax,opponent_grid_n",
    [
        (highest_bid_wins(1.0), [M2, M2], 1.0, 21),
        (highest_bid_wins(1.0), [M2, M3], 1.0, 21),
        (highest_bid_wins(3.0), [M2, M3], 3.0, 21),
        (highest_bid_wins(1.0), [RoiTarget(1.5), M2, M3], 1.0, 9),
        (highest_bid_wins(3.0), [M2, M2, M2], 3.0, 9),
        (_mixed_factory(1.0), [M2, M3], 1.0, 21),
        (_mixed_factory(3.0), [M2, M3, RoiTarget(1.5)], 3.0, 5),
    ],
    ids=[
        "two_equal",
        "two_mixed",
        "two_mixed_vmax3",
        "three_mixed",
        "three_equal_vmax3",
        "mixed_factory_two",
        "mixed_factory_three_vmax3",
    ],
)
def test_profile_audit_matches_per_profile_oracle(factory, ms, vmax, opponent_grid_n, monkeypatch):
    monkeypatch.setattr(audit, "PROFILE_OPPONENT_GRID_N", opponent_grid_n)
    got = profile_audit(factory, ms, vmax)
    want = per_profile_audit(factory, ms, vmax, opponent_grid_n=opponent_grid_n)
    assert json_text(got.to_dict()) == json_text(want.to_dict())


@pytest.mark.parametrize(
    "ms,audits", [([RoiTarget(1.5), M2, RoiTarget(5.0)], 63), ([M2, M2, M2], 21)]
)
def test_profile_audit_audits_each_induced_mechanism_once(ms, audits, monkeypatch):
    # under highest_bid_wins the curve depends only on the top opponent bid: 21 curves,
    # and each induced mechanism's truthful outcomes are evaluated once for DSIC and IR
    counts = count_calls(monkeypatch, audit, "_truthful_outcomes")
    calls = []
    inner_factory = highest_bid_wins()

    def factory(i, bids):
        calls.append((i, bids))
        return inner_factory(i, bids)

    assert profile_audit(factory, ms).passed
    assert counts == {"_truthful_outcomes": audits}
    # yet the factory still sees every profile, once each and in order
    opponents = [float(b) for b in np.linspace(0.0, 1.0, 21)]
    assert calls == [(i, bids) for i in range(3) for bids in itertools.product(opponents, repeat=2)]
    assert len(calls) == 1323


def test_highest_bid_wins_induced_curves():
    factory = highest_bid_wins()
    faced = factory(0, (0.4,))
    assert faced.evaluate(0.39) == 0.0
    assert faced.evaluate(0.4) == 1.0
    # step payments are ratio-free, so winning against 0.4 always costs 0.4
    mech = payment_schedule(faced, M2)
    assert mech.value_at(0.7) == pytest.approx(0.4, abs=1e-12)
    shut_out = factory(1, (1.0, 0.2))
    assert shut_out.evaluate(1.0) == 0.0


def test_report_serialization_is_deterministic():
    def fresh():
        return run_standard_audit(payment_schedule(random_monotone_rule(5), M2))

    first, second = fresh(), fresh()
    assert json_text(first.to_dict()) == json_text(second.to_dict())
    data = first.to_dict()
    assert [c["name"] for c in data["checks"]][:2] == ["monotone", "characterization"]
    assert all("pass" in c and "worst_violation" in c for c in data["checks"])
    assert first.summary().endswith("overall: PASS")
    assert len(first.summary().splitlines()) == len(first.checks) + 1


def test_report_serializes_infinite_violations():
    rule = make_step(0.4, 1.0)
    grid = _clear_grid(rule)
    x = rule.evaluate(grid)
    naive = M2.ratio * (grid * x - rule.prefix_integral(grid))
    mech = PaymentSchedule.hand(rule, M2, grid, naive)
    report = AuditReport((check_dsic(mech, grid_n=grid.size),))
    assert '"worst_violation": "inf"' in json_text(report.to_dict())
    assert "FAIL" in report.summary()


def _dsic_cases():
    for seed in range(4):
        rule = random_monotone_rule(seed)
        honest = payment_schedule(rule, M3, grid_n=601)
        yield honest
        bump = np.where(honest.grid > 0.5, 0.02 * (seed - 1.5), 0.0)
        yield PaymentSchedule.hand(rule, M3, honest.grid, honest.payments + bump)
    yield payment_schedule(random_nonmonotone_rule(2), M2, grid_n=601)


def _crowded_table(rng, vmax, grid_n, n_random):
    """A table rule whose knots include points within a few merge bands of the uniform grid."""
    base = np.linspace(0.0, vmax, grid_n)
    band = 10.0 * FEASIBILITY_TOL * max(1.0, vmax)
    near = base[rng.integers(0, grid_n, n_random)] + band * rng.choice(
        [-1.0, 1.0, -0.5, 0.5, -2.0, 2.0, 0.0], n_random
    )
    vs = np.unique(np.concatenate([rng.uniform(0.0, vmax, n_random), near]))
    vs = vs[(vs > 0.0) & (vs < vmax)]
    xs = np.sort(rng.uniform(0.0, 1.0, vs.size))
    return make_table([(0.0, 0.0), *zip(vs.tolist(), xs.tolist()), (vmax, 1.0)])


@pytest.mark.parametrize("seed", range(40))
def test_audit_grid_matches_broadcast_nearest_knot(seed):
    rng = np.random.default_rng(seed)
    vmax = float(rng.choice([1.0, 3.0, 1e3]))
    grid_n = int(rng.integers(20, 400))
    rule = _crowded_table(rng, vmax, grid_n, int(rng.integers(1, 300)))
    derived = payment_schedule(rule, M2, grid_n=grid_n)
    hand = PaymentSchedule.hand(rule, M2, derived.grid, derived.payments)
    for mech in (derived, hand):
        for n in (grid_n, grid_n // 3 + 2):
            assert np.array_equal(_audit_grid(mech, n), broadcast_audit_grid(mech, n))


def test_audit_grid_memory_is_linear_in_grid_and_knots():
    # a grid x knots matrix here is 2001 x 2001 float64, 32 MB; the audit grid needs O(n)
    rule = _crowded_table(np.random.default_rng(0), 1.0, 2001, 1000)
    assert len(rule.knots()) > 1900
    mech = payment_schedule(rule, M2, grid_n=2)
    tracemalloc.start()
    try:
        grid = _audit_grid(mech, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.size > 3000
    assert peak < 2_000_000


@pytest.mark.parametrize("mech", list(_dsic_cases()))
def test_blocked_dsic_matches_full_matrix_oracle(mech):
    # 601 requested points (plus knots) span ten report-column blocks, the last one partial
    grid = _audit_grid(mech, 601)
    assert grid.size > 9 * audit._DSIC_BLOCK and grid.size % audit._DSIC_BLOCK != 0
    x = mech.allocation.evaluate(grid)
    want = full_matrix_dsic(grid, x, mech.value_many(grid), mech.m.ratio, 1e-6)
    got = check_dsic(mech, grid_n=601)
    assert (got.worst_violation, got.passed, got.witness) == want


@st.composite
def _dsic_inputs(draw):
    """A table rule and payments on a uniform grid that is exactly the audit grid."""
    width = audit._DSIC_BLOCK
    blocks = draw(st.integers(1, 12))
    grid_n = max(2, (blocks - 1) * width + draw(st.integers(1, width)))
    vmax = 10.0 ** draw(st.floats(-6.0, 150.0))
    grid = np.linspace(0.0, vmax, grid_n)
    # table knots sit on grid points, so they add no audit grid point
    inner = draw(st.lists(st.integers(1, grid_n - 2), max_size=6)) if grid_n > 2 else []
    at = np.unique([0, grid_n - 1, *inner])
    xs = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=at.size, max_size=at.size)))
    shape = draw(st.sampled_from(["rising", "tied", "dipping"]))
    if shape != "dipping":
        xs = np.sort(xs)
    if shape == "tied":
        xs = np.round(xs * 3.0) / 3.0
    points = tuple(zip(grid[at].tolist(), xs.tolist()))
    rule = AllocationRule(vmax, (Segment(0.0, vmax, TableShape(points)),))
    m = RoiTarget(draw(st.sampled_from([1.01, 1.5, 2.0, 3.0, 20.0, 1e4])))
    derived = payment_schedule(rule, m, grid_n=grid_n)
    tamper = draw(st.sampled_from(["derived", "honest", "raised", "lowered", "unaffordable"]))
    if tamper == "derived":
        return derived, grid_n
    pays = derived.value_many(grid)
    lo = draw(st.integers(0, grid_n - 1))
    stretch = slice(lo, draw(st.integers(lo + 1, grid_n)))
    shift = draw(st.floats(1e-9, 0.1)) * vmax
    if tamper == "raised":
        pays[stretch] += shift
    elif tamper == "lowered":
        pays[stretch] -= shift
    elif tamper == "unaffordable":
        pays[stretch] = grid[stretch] * rule.evaluate(grid[stretch]) + shift
    return PaymentSchedule.hand(rule, m, grid, pays), grid_n


@given(_dsic_inputs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_dsic_equals_full_matrix_oracle_on_generated_schedules(case):
    mech, grid_n = case
    grid = _audit_grid(mech, grid_n)
    assert grid.size == grid_n
    x = mech.allocation.evaluate(grid)
    want = full_matrix_dsic(grid, x, mech.value_many(grid), mech.m.ratio, DSIC_TOL)
    got = check_dsic(mech, grid_n=grid_n)
    assert (got.worst_violation, got.passed, got.witness) == want


def test_dsic_memory_is_linear_in_the_grid():
    # the value-by-report matrices at grid 4001 are 4001 x 4001 float64, 128 MB each
    ramp = make_power_ramp(0.8, 5.0)
    mech = payment_schedule(ramp, RoiTarget(5.0))
    tracemalloc.start()
    try:
        result = check_dsic(mech, grid_n=4001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert _audit_grid(mech, 4001).size >= 4001
    assert peak < 8_000_000
