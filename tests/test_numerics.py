import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from roi_auction import (
    ConditioningWarning,
    ConstructionError,
    PaymentSchedule,
    PiecewiseLinearDensity,
    PowerCdfDistribution,
    RoiTarget,
    TabulatedCdf,
    UniformDistribution,
    expected_revenue_quadrature,
    make_power_ramp,
    make_step,
    make_table,
    myerson_baseline,
    payment_schedule,
)
from roi_auction.errors import QuadratureError
from roi_auction.numerics import adaptive_simpson, bisect_root
from roi_auction.optimal import _scaled_integral
from oracles import (
    loop_psi_pieces,
    loop_revenue_quadrature,
    loop_scaled_integral,
    piece_tuples,
    tuple_power_product_integral,
)


def test_simpson_polynomial_exact():
    # Simpson integrates cubics exactly at depth zero
    assert adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0, 1e-12) == pytest.approx(
        0.0, abs=1e-14
    )


def test_simpson_smooth():
    got = adaptive_simpson(math.sin, 0.0, math.pi, 1e-10)
    assert abs(got - 2.0) < 1e-10


def test_simpson_forced_nodes_handle_kinks():
    f = lambda x: abs(x - 0.3)
    exact = 0.3**2 / 2 + 0.7**2 / 2
    got = adaptive_simpson(f, 0.0, 1.0, 1e-12, forced_nodes=(0.3,))
    assert abs(got - exact) < 1e-12


def test_simpson_zero_width():
    assert adaptive_simpson(math.exp, 1.5, 1.5, 1e-12) == 0.0


def test_simpson_reports_failure():
    # a discontinuity with no forced node cannot reach 1e-14
    step = lambda x: 0.0 if x < math.sqrt(0.5) else 1.0
    with pytest.raises(QuadratureError) as info:
        adaptive_simpson(step, 0.0, 1.0, 1e-14, max_depth=6)
    assert info.value.achieved_tol > 1e-14


@given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
@settings(derandomize=True)
def test_bisect_linear(slope, root):
    f = lambda x: slope * (x - root)
    got = bisect_root(f, root - 7.0, root + 7.0, x_tol=1e-12)
    assert abs(got - root) < 1e-11


def test_bisect_requires_bracket():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, x_tol=1e-9)



def _cuts(draw, n_max: int) -> list[float]:
    """0, a sorted draw of up to n_max - 1 distinct interior points of (0, 1), then 1."""
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=n_max - 1, unique=True))
    return [0.0, *sorted(inner), 1.0]


@st.composite
def _integral_cases(draw):
    """A distribution on [0, 2^k], a ratio, G's thresholds and schedules to price."""
    vmax = 2.0 ** draw(st.integers(-30, 30))
    kind = draw(st.sampled_from(["uniform", "power_cdf", "tabulated_cdf", "piecewise_linear"]))
    if kind == "uniform":
        dist = UniformDistribution(vmax)
    elif kind == "power_cdf":
        dist = PowerCdfDistribution(draw(st.floats(1.0, 6.0)), vmax=vmax)
    elif kind == "tabulated_cdf":
        vs = _cuts(draw, 8)
        fs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(vs) - 2, max_size=len(vs) - 2)))
        dist = TabulatedCdf(tuple((v * vmax, F) for v, F in zip(vs, [0.0, *fs, 1.0])))
    else:
        bs = _cuts(draw, 8)
        ds = draw(st.lists(st.floats(0.1, 3.0), min_size=len(bs), max_size=len(bs)))
        mass = sum(0.5 * (d0 + d1) * (b1 - b0) for d0, d1, b0, b1 in zip(ds, ds[1:], bs, bs[1:]))
        dist = PiecewiseLinearDensity(tuple(b * vmax for b in bs), tuple(d / mass / vmax for d in ds))
    ratio = draw(st.one_of(st.sampled_from([1.01, 2.0, 1e4]), st.floats(1.01, 1e4)))
    thresholds = [lo for lo, _, _ in piece_tuples(dist.psi_pieces()) if lo > 0.0]
    thresholds += [vmax, draw(st.floats(0.001, 1.0)) * vmax]
    # a rule vmax one float above the distribution's restates the density's terms
    top = math.nextafter(vmax, math.inf) if draw(st.booleans()) else vmax
    at = draw(st.sampled_from(thresholds))
    rules = [make_step(min(at, 0.999 * vmax), top)]
    xs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
    rules.append(make_table(list(zip([0.0, 0.3 * top, 0.7 * top, top], [0.0, *xs]))))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            rules.append(make_power_ramp(at, ratio, top))
    except ConstructionError:
        pass  # ratio too close to 1 for this threshold
    m = RoiTarget(ratio)
    schedules = [payment_schedule(rule, m, grid_n=51) for rule in rules]
    last = schedules[-1]
    schedules.append(PaymentSchedule.hand(last.allocation, m, last.grid, 0.5 * last.payments))
    if dist.check_dmr().passed:
        schedules.append(myerson_baseline(dist, m, grid_n=51))
    return dist, m, thresholds, schedules


@given(_integral_cases())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_shared_integral_is_bitwise_the_two_loops_it_replaced(case):
    dist, m, thresholds, schedules = case
    for at in thresholds:
        assert _scaled_integral(dist, m, at).hex() == loop_scaled_integral(dist, m, at).hex()
    for sched in schedules:
        got = expected_revenue_quadrature(sched, dist).mean
        assert got.hex() == loop_revenue_quadrature(sched, dist).hex()


def _hexed(pieces):
    return [(lo.hex(), hi.hex(), [(a.hex(), e.hex()) for a, e in terms]) for lo, hi, terms in pieces]


@st.composite
def _psi_cases(draw):
    """A distribution of any kind on [0, vmax], vmax from 1e-8 to 1e150, with zero
    densities and flat CDF cells among its pieces; a ratio, thresholds and a schedule."""
    vmax = draw(st.sampled_from([1e-8, 1.0, 1e150]) | st.floats(-8.0, 150.0).map(lambda k: 10.0**k))
    kind = draw(st.sampled_from(["uniform", "power_cdf", "tabulated_cdf", "piecewise_linear"]))
    if kind == "uniform":
        dist = UniformDistribution(vmax)
    elif kind == "power_cdf":
        dist = PowerCdfDistribution(draw(st.floats(1.0, 6.0)), vmax=vmax)
    elif kind == "tabulated_cdf":
        vs = _cuts(draw, 8)
        assume(len({v * vmax for v in vs}) == len(vs))
        # a repeated value is a flat cell, whose density is zero
        inner = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0),
                              min_size=len(vs) - 2, max_size=len(vs) - 2))
        dist = TabulatedCdf(tuple((v * vmax, F) for v, F in zip(vs, [0.0, *sorted(inner), 1.0])))
    else:
        bs = _cuts(draw, 8)
        assume(len({b * vmax for b in bs}) == len(bs))
        ds = draw(st.lists(st.just(0.0) | st.floats(0.1, 3.0), min_size=len(bs), max_size=len(bs)))
        mass = sum(0.5 * (d0 + d1) * (b1 - b0) for d0, d1, b0, b1 in zip(ds, ds[1:], bs, bs[1:]))
        assume(mass > 0.0)
        dist = PiecewiseLinearDensity(tuple(b * vmax for b in bs), tuple(d / mass / vmax for d in ds))
    ratio = draw(st.sampled_from([1.01, 2.0, 1e4]) | st.floats(1.01, 1e4))
    thresholds = [lo for lo in dist.pdf_pieces().lo.tolist() if lo > 0.0]
    thresholds += [vmax, draw(st.floats(0.001, 1.0)) * vmax]
    rule = make_step(draw(st.floats(0.0, 0.99)) * vmax, vmax)
    return dist, RoiTarget(ratio), thresholds, payment_schedule(rule, RoiTarget(ratio), grid_n=51)


@given(_psi_cases())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_psi_rows_and_integrals_are_bitwise_the_tuple_loops_they_replaced(case):
    dist, m, thresholds, sched = case
    vmax = dist.vmax
    # a zero coefficient is an absent term of ``Pieces``, left out of the loop's rows too
    assert _hexed(piece_tuples(dist.psi_pieces())) == _hexed(piece_tuples(loop_psi_pieces(dist)))
    c = 1.0 / (m.ratio - 1.0)
    for at in thresholds:
        weight = ((0.0, at, ((1.0, c),)),)
        want = tuple_power_product_integral(weight, loop_psi_pieces(dist), at, at / vmax)
        assert _scaled_integral(dist, m, at).hex() == want.hex()
    got = expected_revenue_quadrature(sched, dist).mean
    pay, density = piece_tuples(sched.pieces()), piece_tuples(dist.pdf_pieces())
    assert got.hex() == (vmax * tuple_power_product_integral(pay, density, vmax, 1.0)).hex()


# psi raises t0 to the power k + 1 for each density exponent k; power_cdf's k is e - 1
POWER_CDF_K1 = [(e - 1.0) + 1.0 for e in np.random.default_rng(7).uniform(1.0, 6.0, 3).tolist()]


@pytest.mark.parametrize("q", [0.0, 1.0, 2.0, 3.0, 1.25, 1.0 / 3.0, 101.0, *POWER_CDF_K1])
def test_float_power_is_libm_pow_bitwise(q):
    """The payment walk raises arrays to powers with ``np.float_power`` and
    matches Python's float arithmetic bit for bit only because that is libm
    ``pow`` (``math.pow``) per element. If this fails here, that premise broke."""
    t = np.concatenate([[0.0, 1.0, 5e-324], np.random.default_rng(0).random(100_000)])
    want = np.asarray([math.pow(v, q) for v in t.tolist()])
    assert np.array_equal(np.float_power(t, np.full_like(t, q)).view(np.int64), want.view(np.int64))
    assert np.array_equal(np.float_power(t, q).view(np.int64), want.view(np.int64))
