"""Release gates: end-to-end checks over frozen numbers and guarantees.

Each test covers one numbered gate and prints a single `acceptance N:
PASS/FAIL` line outside pytest's capture, so every verdict is visible in
plain test output. Tolerances are part of the gate and must not be loosened.
"""

import json
import math
import time

import pytest

from roi_auction import (
    PiecewiseLinearDensity,
    PowerCdfDistribution,
    RoiTarget,
    UniformDistribution,
    check_dsic,
    check_ir,
    compare,
    expected_revenue_quadrature,
    make_step,
    myerson_baseline,
    optimal_mechanism,
    payment_schedule,
    structural_audit,
    uniqueness_probe,
)
from roi_auction.cli import main as cli_main
from oracles import simpson_integral
from random_rules import perturbed_table_copy, random_monotone_rule

UNIFORM = UniformDistribution(1.0)
POWER2 = PowerCdfDistribution(2.0)
TRIANGULAR = PiecewiseLinearDensity((0.0, 1.0), (2.0, 0.0))
D_POWER2 = math.sqrt(2.0 / 3.0)


def _announce(capsys, n: int, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print(f"acceptance {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail


@pytest.fixture(scope="module")
def solutions():
    # the three reference solutions the later gates keep coming back to
    return (
        (UNIFORM, RoiTarget(2.0), optimal_mechanism(UNIFORM, RoiTarget(2.0))),
        (UNIFORM, RoiTarget(3.0), optimal_mechanism(UNIFORM, RoiTarget(3.0))),
        (POWER2, RoiTarget(2.0), optimal_mechanism(POWER2, RoiTarget(2.0))),
    )


def test_acceptance_1_worked_example(capsys):
    start = time.perf_counter()
    m = RoiTarget(2.0)
    base = myerson_baseline(UNIFORM, m)
    base_rev = expected_revenue_quadrature(base, UNIFORM).mean
    sol = optimal_mechanism(UNIFORM, m)
    mech = sol.schedule
    slope = (mech.allocation.evaluate(0.6) - mech.allocation.evaluate(0.3)) / 0.3
    pay_top = mech.value_at(0.9)
    elapsed = time.perf_counter() - start
    checks = {
        "posted-price revenue 0.25": abs(base_rev - 0.25) <= 1e-6,
        "threshold revenue 0.375": abs(sol.expected_revenue - 0.375) <= 1e-6,
        "threshold 0.75": abs(sol.threshold - 0.75) <= 1e-6,
        "ramp slope 4/3": abs(slope - 4.0 / 3.0) <= 1e-6,
        "flat payment 0.75": abs(pay_top - 0.75) <= 1e-6,
        "runtime under 1 s": elapsed < 1.0,
    }
    failed = [name for name, good in checks.items() if not good]
    _announce(capsys, 1, not failed, f"failed {failed}, elapsed {elapsed:.3f}s")


def test_acceptance_2_closed_form_thresholds(capsys):
    cases = (
        (UNIFORM, 3.0, 5.0 / 6.0, 5.0 / 12.0),
        (POWER2, 2.0, D_POWER2, D_POWER2 - D_POWER2**3 / 2.0),
    )
    problems = []
    for dist, ratio, d_want, rev_want in cases:
        c = 1.0 / (ratio - 1.0)
        # verify the analytic root before holding the solver to it
        residual = simpson_integral(
            lambda v: dist.marginal_revenue(v) * v**c, 0.0, d_want, 50_001
        )
        if abs(residual) > 1e-6:
            problems.append(f"claimed root off, residual {residual:.2e}")
        sol = optimal_mechanism(dist, RoiTarget(ratio))
        if abs(sol.threshold - d_want) > 1e-6:
            problems.append(f"threshold {sol.threshold!r} != {d_want!r}")
        if abs(sol.expected_revenue - rev_want) > 1e-6:
            problems.append(f"revenue {sol.expected_revenue!r} != {rev_want!r}")
    _announce(capsys, 2, not problems, "; ".join(problems))


def test_acceptance_3_truthfulness_grid_oracle(capsys, solutions):
    mechs = [sol.schedule for _, _, sol in solutions]
    for seed in range(50):
        rule = random_monotone_rule(seed)
        for ratio in (1.5, 2.0, 5.0):
            mechs.append(payment_schedule(rule, RoiTarget(ratio)))
    worst_gain = max(check_dsic(m, grid_n=201).worst_violation for m in mechs)
    worst_over = max(check_ir(m, grid_n=201).worst_violation for m in mechs)
    ok = worst_gain <= 1e-6 and worst_over <= 1e-9
    _announce(
        capsys, 3, ok, f"worst misreport gain {worst_gain:.3e}, worst overcharge {worst_over:.3e}"
    )


def test_acceptance_4_step_price_invariance(capsys):
    worst = 0.0
    for r in (0.1, 0.5, 0.9):
        rule = make_step(r, 1.0)
        for ratio in (1.5, 2.0, 5.0):
            sched = payment_schedule(rule, RoiTarget(ratio))
            for v in (r, (r + 1.0) / 2.0, 1.0):
                worst = max(worst, abs(sched.value_at(v) - r))
            for v in (0.0, r / 2.0):
                worst = max(worst, abs(sched.value_at(v)))
    _announce(capsys, 4, worst <= 1e-12, f"worst deviation from the step price {worst:.3e}")


def test_acceptance_5_payment_uniqueness_probes(capsys):
    slipped = []
    for seed in range(30):
        mech = payment_schedule(random_monotone_rule(seed), RoiTarget(2.0))
        if not uniqueness_probe(mech, offsets=(0.01, -0.01)).passed:
            slipped.append(seed)
    _announce(capsys, 5, not slipped, f"probes went uncaught for seeds {slipped}")


def test_acceptance_6_local_optimality(capsys, solutions):
    problems = []
    for dist, m, sol in solutions:
        best = sol.expected_revenue
        for seed in range(100):
            rule = perturbed_table_copy(sol.allocation, seed)
            rev = expected_revenue_quadrature(payment_schedule(rule, m), dist).mean
            if rev > best + 1e-8:
                problems.append(f"seed {seed} gained {rev - best:.3e} at ratio {m.ratio}")
        floored = payment_schedule(sol.allocation.with_floor(0.1), m)
        if not expected_revenue_quadrature(floored, dist).mean < best - 1e-9:
            problems.append(f"flat start did not lose revenue at ratio {m.ratio}")
    _announce(capsys, 6, not problems, "; ".join(problems[:5]))


def test_acceptance_7_structural_audits(capsys, solutions):
    worst = 0.0
    all_pass = True
    for dist, _, sol in solutions:
        report = structural_audit(sol, dist)
        all_pass = all_pass and report.passed
        worst = max(worst, max(c.worst_violation for c in report.checks))
    _announce(capsys, 7, all_pass and worst <= 1e-7, f"worst structural violation {worst:.3e}")


def test_acceptance_8_dmr_gate(capsys, tmp_path, monkeypatch):
    problems = []
    if not UNIFORM.check_dmr().passed or not POWER2.check_dmr().passed:
        problems.append("a well-behaved density failed the gate")
    report = TRIANGULAR.check_dmr()
    at = report.first_violation_at
    if report.passed or at is None or not (2.0 / 3.0 < at <= 1.0):
        problems.append(f"decreasing-density violation not localized, at={at!r}")
    descriptor = tmp_path / "triangular.json"
    descriptor.write_text(json.dumps(TRIANGULAR.descriptor()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = cli_main(["solve", str(descriptor), "--m", "2"])
    capsys.readouterr()
    if code != 1:
        problems.append(f"solve returned {code} instead of 1")
    _announce(capsys, 8, not problems, "; ".join(problems))


def test_acceptance_9_mc_quadrature_agreement(capsys):
    problems = []
    for seed in (0, 1, 2):
        table = compare(UNIFORM, RoiTarget(2.0), mc_samples=100_000, seed=seed)
        for row in table.rows:
            if abs(row.rev_mc - row.rev_quad) > 4.0 * row.stderr:
                problems.append(f"seed {seed}, {row.name}: off by > 4 stderr")
        again = compare(UNIFORM, RoiTarget(2.0), mc_samples=100_000, seed=seed)
        if again.csv_text() != table.csv_text():
            problems.append(f"seed {seed}: rerun not byte-identical")
    _announce(capsys, 9, not problems, "; ".join(problems))
