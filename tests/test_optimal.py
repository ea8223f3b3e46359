import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roi_auction import (
    BoundaryCase,
    ConditioningWarning,
    ConstructionError,
    DomainError,
    OptimalSolution,
    PaymentSchedule,
    PowerCdfDistribution,
    PreconditionError,
    PiecewiseLinearDensity,
    QuadratureError,
    RoiTarget,
    TabulatedCdf,
    UniformDistribution,
    expected_revenue_quadrature,
    make_constant,
    make_power_ramp,
    make_step,
    optimal_mechanism,
    payment_schedule,
    solve_threshold,
    structural_audit,
    threshold_integral,
)
from oracles import central_difference, piece_tuples, simpson_integral
from random_rules import flat_start_copy, perturbed_table_copy

UNIFORM = UniformDistribution(1.0)
POWER2 = PowerCdfDistribution(2.0)
TRIANGULAR = PiecewiseLinearDensity((0.0, 1.0), (2.0, 0.0))
M2, M3 = RoiTarget(2.0), RoiTarget(3.0)

# analytic roots, each re-verified against the hand antiderivatives below
D_UNIFORM_M2 = 0.75
D_UNIFORM_M3 = 5.0 / 6.0
D_POWER2_M2 = math.sqrt(2.0 / 3.0)


def _H_oracle(dist, ratio, upper) -> float:
    # hand antiderivatives; v^c makes plain Simpson too slow for fractional c.
    # The integrand is ((k + 1)(v / vmax)^k - 1) v^c, with k = 1 for uniform.
    c = 1.0 / (ratio - 1.0)
    k = 1.0 if isinstance(dist, UniformDistribution) else dist.exponent
    top = (k + 1.0) * upper ** (k + c + 1.0) / ((k + c + 1.0) * dist.vmax**k)
    return top - upper ** (c + 1.0) / (c + 1.0)


def test_analytic_roots_verified_by_independent_quadrature():
    """The frozen thresholds really do zero the weighted integral."""
    assert abs(_H_oracle(UNIFORM, 2.0, D_UNIFORM_M2)) < 1e-12
    assert abs(_H_oracle(UNIFORM, 3.0, D_UNIFORM_M3)) < 1e-12
    assert abs(_H_oracle(POWER2, 2.0, D_POWER2_M2)) < 1e-12
    # at ratio 2 the integrand is a polynomial, so plain Simpson agrees too
    for dist, root in ((UNIFORM, D_UNIFORM_M2), (POWER2, D_POWER2_M2)):
        direct = simpson_integral(lambda v: dist.marginal_revenue(v) * v, 0.0, root, 2001)
        assert abs(direct) < 1e-12


def test_threshold_integral_frozen_values():
    # uniform, ratio 2: integral of (2v - 1) v from 0 to t
    assert threshold_integral(UNIFORM, M2, 0.0) == 0.0
    assert threshold_integral(UNIFORM, M2, 0.5) == pytest.approx(-1.0 / 24.0, abs=1e-12)
    assert threshold_integral(UNIFORM, M2, 0.9) == pytest.approx(0.081, abs=1e-12)
    assert threshold_integral(UNIFORM, M2, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert threshold_integral(UNIFORM, M2, 0.75) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "dist,ratio,upper",
    [(UNIFORM, 2.0, 0.6), (UNIFORM, 3.0, 0.9), (POWER2, 2.0, 0.7), (POWER2, 5.0, 1.0)],
)
def test_threshold_integral_matches_oracle(dist, ratio, upper):
    got = threshold_integral(dist, RoiTarget(ratio), upper)
    assert got == pytest.approx(_H_oracle(dist, ratio, upper), abs=1e-9)


# weight exponents c = 1/(ratio - 1) at ratios 20, 5, 2 and 1.01
EXPONENTS = (1.0 / 19.0, 0.25, 1.0, 100.0)
UNIFORM_WIDE = UniformDistribution(2.5)
POWER_FRACTIONAL = PowerCdfDistribution(3.5, vmax=0.8)
# breakpoints at 0.4 and 0.7, knots at 0.25, 0.5 and 0.75
KINKED_DENSITY = PiecewiseLinearDensity(
    (0.0, 0.4, 0.7, 1.0), tuple(h / 1.8 for h in (0.6, 1.8, 2.4, 2.2))
)
KNOTTED_CDF = TabulatedCdf(((0.0, 0.0), (0.25, 0.1), (0.5, 0.3), (0.75, 0.55), (1.0, 1.0)))


def _psi_on_piece(dist, v, lo, hi, terms) -> float:
    # psi with the density of the piece [lo, hi], also at its ends where pdf may jump
    v = min(max(v, lo), hi)
    f = sum(b * (v / dist.vmax) ** k for b, k in terms)
    return v * f + dist.cdf(v) - 1.0


def _H_simpson(dist, c, upper, n=4001) -> float:
    # v = w^r with r (c + 1) whole makes the weight r w^(r (c + 1) - 1) a polynomial
    # in w: no infinite slope at 0 as v^c has for c < 1, and a lower degree for c = 100
    r = {1.0 / 19.0: 9.5, 0.25: 4.0, 100.0: 0.5}.get(c, 1.0)
    total = 0.0
    for lo, hi, terms in piece_tuples(dist.pdf_pieces()):
        if lo >= upper:
            break
        hi = min(hi, upper)
        total += simpson_integral(
            lambda w: _psi_on_piece(dist, w**r, lo, hi, terms) * r * w ** (r * (c + 1.0) - 1.0),
            lo ** (1.0 / r),
            hi ** (1.0 / r),
            n,
        )
    return total


@pytest.mark.parametrize("c", EXPONENTS, ids=lambda c: f"c={c:.3g}")
@pytest.mark.parametrize(
    "dist,upper",
    [
        (UNIFORM, 0.6),
        (UNIFORM_WIDE, 1.9),
        (UNIFORM_WIDE, 2.5),
        (POWER2, 0.7),
        (POWER_FRACTIONAL, 0.55),
        (POWER_FRACTIONAL, 0.8),
    ],
    ids=["uniform", "uniform-wide", "uniform-wide-vmax", "power2", "power3.5", "power3.5-vmax"],
)
def test_threshold_integral_exact_closed_forms(dist, upper, c):
    ratio = 1.0 + 1.0 / c
    got = threshold_integral(dist, RoiTarget(ratio), upper)
    # compared as G = H / upper^(c+1), which stays O(1) for every c and upper
    scale = upper ** (c + 1.0)
    assert got / scale == pytest.approx(_H_oracle(dist, ratio, upper) / scale, abs=1e-13)


@pytest.mark.parametrize("c", EXPONENTS, ids=lambda c: f"c={c:.3g}")
@pytest.mark.parametrize(
    "dist,upper",
    [
        (KINKED_DENSITY, 0.4),
        (KINKED_DENSITY, 0.55),
        (KINKED_DENSITY, 1.0),
        (KNOTTED_CDF, 0.5),
        (KNOTTED_CDF, 0.6),
        (KNOTTED_CDF, 1.0),
    ],
    ids=["pld-breakpoint", "pld-between", "pld-vmax", "tab-knot", "tab-between", "tab-vmax"],
)
def test_threshold_integral_exact_piecewise_kinds(dist, upper, c):
    got = threshold_integral(dist, RoiTarget(1.0 + 1.0 / c), upper)
    scale = upper ** (c + 1.0)
    assert got / scale == pytest.approx(_H_simpson(dist, c, upper) / scale, abs=1e-11)


@pytest.mark.parametrize("c", EXPONENTS + (1e4,), ids=lambda c: f"c={c:.3g}")
@pytest.mark.parametrize(
    "dist",
    [UNIFORM, UniformDistribution(0.9), POWER2, POWER_FRACTIONAL],
    ids=["uniform", "uniform-0.9", "power2", "power3.5"],
)
def test_solver_hits_closed_forms_at_tight_tolerance(dist, c):
    m = RoiTarget(1.0 + 1.0 / c)
    c = 1.0 / (m.ratio - 1.0)  # the exponent the solver actually sees
    k = 1.0 if isinstance(dist, UniformDistribution) else dist.exponent
    # G(D) = 0 gives (k + 1) t^k / (k + c + 1) = 1 / (c + 1) at t = D / vmax;
    # for k = 1 this is the uniform root (c + 2) / (2 (c + 1)) vmax
    want = dist.vmax * ((k + c + 1.0) / ((k + 1.0) * (c + 1.0))) ** (1.0 / k)
    threshold, case = solve_threshold(dist, m, tol=1e-12)
    assert case is BoundaryCase.INTERIOR_ROOT
    assert abs(threshold - want) <= 1e-12 * dist.vmax


@pytest.mark.parametrize("ratio", [1.1, 1.01])
@pytest.mark.parametrize(
    "dist",
    [UniformDistribution(10.0), PowerCdfDistribution(2.0, vmax=10.0)],
    ids=["uniform", "power2"],
)
def test_solver_residual_is_scale_free_above_unit_vmax(dist, ratio):
    # |H(D)| = D^(c+1) |G(D)| sat above rounding at vmax 10 and the solve stalled
    c = 1.0 / (ratio - 1.0)
    k = 1.0 if isinstance(dist, UniformDistribution) else dist.exponent
    want = dist.vmax * ((k + c + 1.0) / ((k + 1.0) * (c + 1.0))) ** (1.0 / k)
    threshold, case = solve_threshold(dist, RoiTarget(ratio), tol=1e-9)
    assert case is BoundaryCase.INTERIOR_ROOT
    assert abs(threshold - want) <= 1e-9 * dist.vmax


# DMR inputs on [0, s], each built from the same floats at every power-of-two scale s
SCALED_KINDS = {
    "uniform": lambda s: UniformDistribution(s),
    "power_cdf": lambda s: PowerCdfDistribution(2.0, vmax=3.0 * s),
    "tabulated_cdf": lambda s: TabulatedCdf(
        tuple((v * s, F) for v, F in [(0.0, 0.0), (0.2, 0.1), (0.5, 0.3), (0.8, 0.6), (1.0, 1.0)])
    ),
    "piecewise_linear_density": lambda s: PiecewiseLinearDensity(
        (0.0, 0.5 * s, s), (0.5 / s, 1.0 / s, 1.5 / s)
    ),
}


@given(
    kind=st.sampled_from(sorted(SCALED_KINDS)),
    ratio=st.one_of(st.sampled_from([1.05, 1.2, 2.0, 5.0, 20.0]), st.floats(1.05, 20.0)),
    k=st.integers(-40, 40),
)
@settings(max_examples=120, derandomize=True, deadline=None)
def test_threshold_scales_bitwise_with_vmax(kind, ratio, k):
    # the bracket stop, the residual and the psi bracket were absolute below vmax = 1,
    # so uniform at vmax 1e-8 and ratio 1.05 gave D / vmax = 0.53125 for 0.5238...
    make, m = SCALED_KINDS[kind], RoiTarget(ratio)
    base, case = solve_threshold(make(1.0), m)
    assert solve_threshold(make(2.0**k), m) == (math.ldexp(base, k), case)


@pytest.mark.parametrize(
    "dist,ratio",
    [(UNIFORM, 2.0), (UNIFORM, 5.0), (POWER2, 2.0), (POWER2, 3.0)],
)
def test_full_range_integral_identity(dist, ratio):
    # integration by parts gives H(vmax) = c/(c+1) * E[v^(c+1)], always positive
    c = 1.0 / (ratio - 1.0)
    moment = simpson_integral(lambda v: v ** (c + 1.0) * dist.pdf(v), 0.0, dist.vmax, 4001)
    want = c / (c + 1.0) * moment
    assert threshold_integral(dist, RoiTarget(ratio), dist.vmax) == pytest.approx(want, abs=1e-8)
    assert want > 0.0


@pytest.mark.parametrize(
    "dist,m,want",
    [
        (UNIFORM, M2, D_UNIFORM_M2),
        (UNIFORM, M3, D_UNIFORM_M3),
        (POWER2, M2, D_POWER2_M2),
        (UNIFORM, RoiTarget(5.0), 0.9),
        (UNIFORM, RoiTarget(1.5), 2.0 / 3.0),
    ],
)
def test_solver_hits_analytic_thresholds(dist, m, want):
    threshold, case = solve_threshold(dist, m)
    assert case is BoundaryCase.INTERIOR_ROOT
    assert threshold == pytest.approx(want, abs=1e-9)


def test_solver_refuses_non_dmr_input():
    with pytest.raises(PreconditionError) as info:
        solve_threshold(TRIANGULAR, M2)
    assert info.value.report is not None
    assert not info.value.report.passed


def test_solver_full_support_branch(monkeypatch):
    # unreachable for genuine distributions (the parts identity above is positive),
    # so drive the branch by forcing a non-positive full-range integral
    import roi_auction.optimal as mod

    monkeypatch.setattr(mod, "_scaled_integral", lambda *a, **k: -1.0)
    threshold, case = mod.solve_threshold(UNIFORM, M2)
    assert threshold == UNIFORM.vmax
    assert case is BoundaryCase.FULL_SUPPORT


@pytest.mark.parametrize(
    "dist,m,want_d,want_rev",
    [
        (UNIFORM, M2, D_UNIFORM_M2, 0.375),
        (UNIFORM, M3, D_UNIFORM_M3, 5.0 / 12.0),
        (UNIFORM, RoiTarget(5.0), 0.9, 0.45),
        (POWER2, M2, D_POWER2_M2, D_POWER2_M2 - D_POWER2_M2**3 / 2.0),
    ],
)
def test_optimal_mechanism_revenue(dist, m, want_d, want_rev):
    sol = optimal_mechanism(dist, m)
    assert sol.threshold == pytest.approx(want_d, abs=1e-9)
    assert sol.expected_revenue == pytest.approx(want_rev, abs=1e-9)
    assert sol.schedule.allocation.evaluate(sol.threshold) == 1.0


def test_uniform_revenue_increases_with_ratio():
    revs = [optimal_mechanism(UNIFORM, RoiTarget(r)).expected_revenue for r in (1.5, 2, 3, 5)]
    assert all(a < b for a, b in zip(revs, revs[1:]))


def revenue_derivative(dist, m, threshold):
    """R'(D) = -(c + 1) H(D) / D^(c+1), c = 1 / (ratio - 1), from the ramp revenue."""
    c = 1.0 / (m.ratio - 1.0)
    return -(c + 1.0) * threshold_integral(dist, m, threshold) / threshold ** (c + 1.0)


def test_revenue_derivative_signs_and_values():
    # uniform at ratio 2: -2 H(t) / t^2 with H(t) = 2t^3/3 - t^2/2, i.e. 1 - 4t/3
    assert revenue_derivative(UNIFORM, M2, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert revenue_derivative(UNIFORM, M2, 0.75) == pytest.approx(0.0, abs=1e-10)
    assert revenue_derivative(UNIFORM, M2, 0.9) == pytest.approx(-0.2, abs=1e-10)


@pytest.mark.parametrize("at", [0.55, 0.75, 0.85])
def test_revenue_derivative_matches_finite_difference(at):
    """Dual route: differentiate actual quadrature revenue of re-solved ramps."""

    def rev(d: float) -> float:
        mech = payment_schedule(make_power_ramp(d, 2.0, 1.0), M2, grid_n=2001)
        return expected_revenue_quadrature(mech, UNIFORM).mean

    numeric = central_difference(rev, at, 1e-5)
    assert revenue_derivative(UNIFORM, M2, at) == pytest.approx(numeric, abs=1e-5)


def test_steep_ratio_is_conditioned_but_correct():
    with pytest.warns(ConditioningWarning):
        sol = optimal_mechanism(UNIFORM, RoiTarget(1.01), grid_n=2001)
    # c = 100: D = (c + 2) / (2 (c + 1))
    assert sol.threshold == pytest.approx(102.0 / 202.0, abs=1e-6)
    assert sol.boundary_case is BoundaryCase.INTERIOR_ROOT


@pytest.mark.parametrize("dist", [UNIFORM, POWER2], ids=["uniform", "power2"])
@pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0, 5.0])
def test_structural_audit_passes_on_solutions(dist, ratio):
    sol = optimal_mechanism(dist, RoiTarget(ratio), grid_n=2001)
    report = structural_audit(sol, dist)
    assert report.passed, report.summary()
    assert max(c.worst_violation for c in report.checks) <= 1e-7


def test_structural_audit_rejects_capped_myerson_step():
    """A posted price with ratio-scaled payments violates the cap and the shape."""
    step = make_step(0.5, 1.0)
    sched = payment_schedule(step, M2, grid_n=2001)
    fake = OptimalSolution(
        threshold=0.5,
        boundary_case=BoundaryCase.INTERIOR_ROOT,
        schedule=PaymentSchedule.hand(step, M2, sched.grid, 2.0 * sched.myerson),
        expected_revenue=0.0,
    )
    by_name = {c.name: c for c in structural_audit(fake, UNIFORM).checks}
    assert not by_name["payment_cap"].passed
    assert not by_name["single_flat_tail"].passed  # two plateaus, not one
    assert not by_name["power_ramp_shape"].passed
    assert not by_name["threshold_stationarity"].passed
    assert by_name["first_price_or_flat"].passed
    assert by_name["full_allocation_at_threshold"].passed


def test_structural_audit_on_null_rule_fails_only_threshold_allocation():
    null = make_constant(0.0, 1.0)
    fake = OptimalSolution(
        threshold=1.0,
        boundary_case=BoundaryCase.FULL_SUPPORT,
        schedule=payment_schedule(null, M2, grid_n=501),
        expected_revenue=0.0,
    )
    by_name = {c.name: c for c in structural_audit(fake, UNIFORM).checks}
    failing = [name for name, c in by_name.items() if not c.passed]
    assert failing == ["full_allocation_at_threshold"]


def test_domain_guards():
    with pytest.raises(DomainError):
        threshold_integral(UNIFORM, M2, 1.5)
    with pytest.raises(DomainError):
        threshold_integral(UNIFORM, M2, -0.1)


@pytest.mark.parametrize("seed", range(10))
def test_monotone_perturbations_never_beat_the_optimum(seed):
    sol = optimal_mechanism(UNIFORM, M2)
    nearby = perturbed_table_copy(sol.schedule.allocation, seed, n_knots=41, magnitude=0.03)
    mech = payment_schedule(nearby, M2, grid_n=2001)
    rev = expected_revenue_quadrature(mech, UNIFORM).mean
    assert rev <= sol.expected_revenue + 1e-8


def test_flat_start_strictly_hurts():
    sol = optimal_mechanism(UNIFORM, M2)
    flattened = flat_start_copy(sol.schedule.allocation, 0.1)
    mech = payment_schedule(flattened, M2, grid_n=2001)
    rev = expected_revenue_quadrature(mech, UNIFORM).mean
    assert rev < sol.expected_revenue - 1e-6


@pytest.mark.parametrize("tol", [math.inf, 0.0, -1.0, math.nan])
def test_solver_rejects_unusable_tolerance(tol):
    # inf stopped at the first midpoint; 0, -1 and nan reported a stalled residual
    with pytest.raises(ConstructionError, match="tolerance"):
        solve_threshold(POWER2, M2, tol=tol)


def _counting_scaled_integral(monkeypatch):
    import roi_auction.optimal as optimal_module

    calls = []
    inner = optimal_module._scaled_integral

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(optimal_module, "_scaled_integral", counted)
    return calls


@pytest.mark.parametrize(
    "tol,want,evaluations", [(1e-16, 0.75, 54), (1e-30, 0.75, 54), (1e-9, 0.7500000004656613, 31)]
)
def test_solver_evaluations_down_to_float_resolution(tol, want, evaluations, monkeypatch):
    # below float resolution the bracket stops narrowing at one float spacing;
    # 147 more evaluations of the same midpoint then ended in "stalled at 0.000e+00".
    # A reachable tol still stops on the bracket width first.
    calls = _counting_scaled_integral(monkeypatch)
    assert solve_threshold(UNIFORM, M2, tol=tol) == (want, BoundaryCase.INTERIOR_ROOT)
    assert len(calls) == evaluations


def test_solver_below_float_resolution_raises_on_residual_above_tol(monkeypatch):
    calls = _counting_scaled_integral(monkeypatch)
    with pytest.raises(QuadratureError, match="stalled"):
        solve_threshold(PowerCdfDistribution(2.0, vmax=3.0), M2, tol=1e-17)
    assert len(calls) == 53
