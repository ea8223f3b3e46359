"""Tracing wraps the package from outside, counts repeatably, and leaves no trace behind."""

import warnings

import run
import tracing


def _solve_once(api):
    dist = api.distributions.UniformDistribution(1.0)
    sol = api.optimal.optimal_mechanism(dist, api.payments.RoiTarget(2.0), grid_n=201)
    api.audit.check_dsic(sol.mechanism(), grid_n=51)
    return sol.threshold


def _traced(api):
    tracer = tracing.Tracer()
    patcher = tracing.install(api, tracer)
    try:
        threshold = _solve_once(api)
    finally:
        patcher.restore()
    return tracer, threshold


def test_counts_repeat_and_wrappers_come_off():
    with warnings.catch_warnings():
        api = run.import_package()
    originals = (api.optimal.solve_threshold, api.numerics.adaptive_simpson, api.revenue.adaptive_simpson,
                 api.payments.PaymentSchedule.value_many, api.distributions.ValueDistribution.marginal_revenue)
    first, d1 = _traced(api)
    second, d2 = _traced(api)
    assert d1 == d2 == _solve_once(api)
    now = (api.optimal.solve_threshold, api.numerics.adaptive_simpson, api.revenue.adaptive_simpson,
           api.payments.PaymentSchedule.value_many, api.distributions.ValueDistribution.marginal_revenue)
    assert now == originals
    m1, m2 = first.metrics(), second.metrics()
    counted = [k for k, (unit, _) in tracing.METRICS.items() if unit in ("count", "bytes") and k in m1]
    assert {k: m1[k] for k in counted} == {k: m2[k] for k in counted}
    assert m1["distributions.psi_calls"] > 0
    assert m1["numerics.simpson_calls"] > 0 and m1["numerics.integrand_evals"] > m1["numerics.simpson_calls"]
    assert m1["payments.schedule_points"] >= 201
    # the audited grid is the 51 requested points plus the ramp's knot at D = 0.75
    assert m1["audit.check_dsic_cells"] == 52 * 52
    assert m1["optimal.optimal_mechanism_s"] >= m1["optimal.solve_threshold_s"] > 0.0
    # every kept span closed inside its parent
    spans = {s[0]: s for s in first.spans}
    for span_id, _, start, end, parent in first.spans:
        assert start <= end
        if parent is not None and parent in spans:
            assert spans[parent][2] <= start and end <= spans[parent][3]
