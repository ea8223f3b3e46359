import math

import numpy as np
import pytest

from roi_auction import (
    INFEASIBLE,
    AuditReport,
    ConstructionError,
    Infeasible,
    Mechanism,
    PaymentSchedule,
    RoiTarget,
    check_characterization,
    check_dsic,
    check_ir,
    highest_bid_wins,
    make_step,
    mechanism_for,
    payment_schedule,
    profile_audit,
    run_standard_audit,
    uniqueness_probe,
    utility,
)
from roi_auction.audit import _audit_grid
from oracles import brute_dsic_gain, full_matrix_dsic
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


def _hand_schedule(rule, m, grid, payments):
    pays = np.asarray(payments, dtype=float)
    x = rule.evaluate(grid)
    pt = grid * x - rule.prefix_integral(grid)
    return PaymentSchedule(
        grid=grid,
        allocations=x,
        myerson=pt,
        rebates=m.ratio * pt - pays,
        payments=pays,
        allocation=rule,
        m=m,
        derived=False,
    )


def test_utility_values_and_sentinel():
    assert utility(0.8, 1.0, 0.5, M2) == pytest.approx(1.1, abs=1e-15)
    assert utility(0.5, 0.5, 0.25, M2) == pytest.approx(0.25, abs=1e-15)
    assert utility(0.5, 0.2, 0.3, M2) is INFEASIBLE
    # payments inside the feasibility slack still count as affordable
    assert utility(1.0, 0.5, 0.5 + 5e-13, M2) == pytest.approx(0.5, abs=1e-9)
    assert Infeasible() is INFEASIBLE
    assert repr(INFEASIBLE) == "INFEASIBLE"


def test_mechanism_rejects_mismatched_ratio():
    sched = payment_schedule(make_step(0.4, 1.0), M2)
    with pytest.raises(ConstructionError):
        Mechanism(make_step(0.4, 1.0), sched, M3)


def test_mechanism_point_queries():
    mech = mechanism_for(make_step(0.4, 1.0), M2)
    assert mech.allocation_at(0.7) == 1.0
    assert mech.allocation_at(0.2) == 0.0
    assert mech.payment_at(0.7) == pytest.approx(0.4, abs=1e-12)
    assert mech.payment_at(0.4, side="left") == pytest.approx(0.0, abs=1e-12)


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
    mech = Mechanism(rule, _hand_schedule(rule, M2, grid, breached), M2)

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
    mech = Mechanism(rule, _hand_schedule(rule, M2, grid, naive), M2)

    dsic = check_dsic(mech, grid_n=grid.size)
    assert not dsic.passed
    assert math.isinf(dsic.worst_violation)
    assert math.isinf(brute_dsic_gain(grid, x, naive, M2.ratio))

    ir = check_ir(mech, grid_n=grid.size)
    assert not ir.passed
    assert ir.worst_violation == pytest.approx(0.4, abs=1e-9)
    assert ir.witness["v"] == pytest.approx(0.4, abs=1e-9)

    char = check_characterization(mech, grid_n=grid.size)
    assert not char.passed
    assert char.witness["payment_gap"] == pytest.approx(0.4, abs=1e-9)


def test_characterization_localizes_payment_gap():
    rule = make_step(0.4, 1.0)
    grid = _clear_grid(rule)
    pays = payment_schedule(rule, M2).value_many(grid)
    breached = np.where(grid >= 0.7, pays - 0.01, pays)
    mech = Mechanism(rule, _hand_schedule(rule, M2, grid, breached), M2)
    check = check_characterization(mech)
    assert not check.passed
    assert check.witness["payment_gap"] == pytest.approx(0.01, abs=1e-12)
    assert check.witness["payment_gap_at"] >= 0.7
    assert check.witness["monotone"] is True


@pytest.mark.parametrize("ratio", [1.5, 2.0, 5.0])
@pytest.mark.parametrize("seed", range(10))
def test_standard_audit_round_trip(seed, ratio):
    mech = mechanism_for(random_monotone_rule(seed), RoiTarget(ratio))
    report = run_standard_audit(mech)
    assert report.passed, report.summary()
    assert tuple(c.name for c in report.checks) == (
        "monotone",
        "characterization",
        "dsic",
        "ir",
        "uniqueness_probe",
    )


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_nonmonotone_rule_fails_audit(seed):
    mech = mechanism_for(random_nonmonotone_rule(seed), M2)
    report = run_standard_audit(mech)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert {"monotone", "characterization"} <= failed


@pytest.mark.parametrize("seed", range(30))
def test_uniqueness_probe_catches_both_directions(seed):
    mech = mechanism_for(random_monotone_rule(seed), M2)
    check = uniqueness_probe(mech)
    assert check.passed, check.witness
    assert check.witness["uncaught"] == []


def test_uniqueness_probe_rejects_degenerate_offsets():
    mech = mechanism_for(make_step(0.4, 1.0), M2)
    with pytest.raises(ConstructionError):
        uniqueness_probe(mech, offsets=())
    with pytest.raises(ConstructionError):
        uniqueness_probe(mech, offsets=(0.01, 0.0))


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


def test_profile_audit_three_bidders_mixed_targets():
    report = profile_audit(
        highest_bid_wins(), [M2, M3, RoiTarget(1.5)], opponent_grid_n=5
    )
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


def test_highest_bid_wins_induced_curves():
    factory = highest_bid_wins()
    faced = factory(0, (0.4,))
    assert faced.evaluate(0.39) == 0.0
    assert faced.evaluate(0.4) == 1.0
    # step payments are ratio-free, so winning against 0.4 always costs 0.4
    mech = mechanism_for(faced, M2)
    assert mech.payment_at(0.7) == pytest.approx(0.4, abs=1e-12)
    shut_out = factory(1, (1.0, 0.2))
    assert shut_out.evaluate(1.0) == 0.0


def test_report_serialization_is_deterministic():
    def fresh():
        return run_standard_audit(mechanism_for(random_monotone_rule(5), M2))

    first, second = fresh(), fresh()
    assert first.to_json_text() == second.to_json_text()
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
    mech = Mechanism(rule, _hand_schedule(rule, M2, grid, naive), M2)
    report = AuditReport((check_dsic(mech, grid_n=grid.size),))
    assert '"worst_violation": "inf"' in report.to_json_text()
    assert "FAIL" in report.summary()


def _dsic_cases():
    for seed in range(4):
        rule = random_monotone_rule(seed)
        honest = mechanism_for(rule, M3, grid_n=601)
        yield honest
        sched = honest.schedule
        bump = np.where(sched.grid > 0.5, 0.02 * (seed - 1.5), 0.0)
        yield Mechanism(rule, sched.with_payments(sched.payments + bump), M3)
    yield mechanism_for(random_nonmonotone_rule(2), M2, grid_n=601)


@pytest.mark.parametrize("mech", list(_dsic_cases()))
def test_blocked_dsic_matches_full_matrix_oracle(mech):
    # 601 requested points (plus knots) span three row blocks, the last one partial
    grid = _audit_grid(mech, 601)
    assert grid.size % 256 != 0
    x = mech.allocation.evaluate(grid)
    want = full_matrix_dsic(grid, x, mech.schedule.value_many(grid), mech.m.ratio, 1e-6)
    got = check_dsic(mech, grid_n=601)
    assert (got.worst_violation, got.passed, got.witness) == want
