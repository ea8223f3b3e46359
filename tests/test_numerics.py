import math
import warnings
from fractions import Fraction

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
from roi_auction.errors import DomainError, QuadratureError
from roi_auction.numerics import (
    Pieces,
    _pow,
    _prepare,
    adaptive_simpson,
    bisect_root,
    piece_terms,
    sum_sorted,
)
from roi_auction.optimal import _scaled_integral
from oracles import (
    loop_psi_pieces,
    per_point_pieces,
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


@pytest.mark.parametrize("root", [1.0, 2.0], ids=["lo", "hi"])
def test_bisect_returns_an_end_where_f_is_exactly_zero(root):
    calls = []

    def f(x):
        calls.append(x)
        return x - root

    assert bisect_root(f, 1.0, 2.0, x_tol=1e-12) == root
    assert calls == [1.0, 2.0]


def _lookups():
    """(name, lookup on arrays, the same lookup on one float) over one rule, its
    derived and hand schedules and one distribution of each kind, all on [0, 1]."""
    rule = make_power_ramp(0.6, 2.0)
    sched = payment_schedule(rule, RoiTarget(2.0), 101)
    hand = PaymentSchedule.hand(rule, RoiTarget(2.0), sched.grid, sched.payments)
    out = [
        ("evaluate", rule.evaluate, rule.evaluate),
        ("prefix_integral", rule.prefix_integral, rule.prefix_integral),
        ("derived value_many", sched.value_many, sched.value_at),
        ("hand value_many", hand.value_many, hand.value_at),
    ]
    for dist in (
        UniformDistribution(1.0),
        PowerCdfDistribution(2.0),
        PiecewiseLinearDensity((0.0, 0.5, 1.0), (0.0, 2.0, 0.0)),
        TabulatedCdf(((0.0, 0.0), (0.25, 0.1), (0.5, 0.45), (1.0, 1.0))),
    ):
        for name in ("quantile", "cdf", "pdf", "marginal_revenue"):
            fn = getattr(dist, name)
            out.append((f"{type(dist).__name__} {name}", fn, fn))
    return out


@pytest.mark.parametrize("order", ["shuffled", "sorted"])
def test_every_lookup_keeps_the_shape_of_its_points(order):
    points = np.array([[0.7, 0.1], [0.45, 0.9]])
    if order == "sorted":
        points = np.sort(points, axis=None).reshape(2, 2)
    for name, many, one in _lookups():
        got = many(points)
        assert got.shape == (2, 2), name
        want = np.array([[one(v) for v in row] for row in points.tolist()])
        assert got.tobytes() == want.tobytes(), name


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


@pytest.mark.parametrize("q", [3.0, 1.25, 0.5, 1.0 / 3.0, 101.0, *POWER_CDF_K1])
def test_pow_is_libm_pow_bitwise_off_the_exact_exponents(q):
    # _pow's counterpart of the test above: past {0, 1, 2} it is np.float_power,
    # written over its argument
    t = np.concatenate([[0.0, 1.0, 5e-324], np.random.default_rng(0).random(100_000)])
    want = np.float_power(t, q)
    into = t.copy()
    assert _pow(into, q) is into
    assert np.array_equal(into.view(np.int64), want.view(np.int64))


def test_pow_is_exact_at_zero_one_and_two():
    # ones, t itself, and t * t, the correctly rounded square that libm's pow(t, 2)
    # is not always; each written over its argument
    t = np.concatenate([[0.0, 1.0, 5e-324, 1e-200], np.random.default_rng(1).random(2000)])
    ones, same, square = (_pow(t.copy(), q) for q in (0.0, 1.0, 2.0))
    assert np.array_equal(ones, np.ones_like(t))
    assert np.array_equal(same.view(np.int64), t.view(np.int64))
    assert all(float(Fraction(v) ** 2) == got for v, got in zip(t.tolist(), square.tolist()))
    for q in (0.0, 1.0, 2.0):
        into = t.copy()
        assert _pow(into, q) is into


def _sorted_points(pieces, vmax, n, seed):
    """n sorted uniform points on [0, vmax] plus every row start and vmax itself."""
    u = np.random.default_rng(seed).random(n) * vmax
    return np.sort(np.concatenate([u, pieces.lo, pieces.hi, [0.0, vmax]]))


def _table_rule(n_points):
    v = np.linspace(0.0, 1.0, n_points)
    x = np.clip(np.maximum.accumulate(v + 0.05 * np.sin(37.0 * v)), 0.0, 1.0)
    return make_table(list(zip(v.tolist(), x.tolist())))


SUM_SORTED_CASES = {
    "posted_price": lambda: myerson_baseline(UniformDistribution(1.0)),
    "ramp_ratio_2": lambda: payment_schedule(make_power_ramp(0.75, 2.0), RoiTarget(2.0)),
    "ramp_ratio_5": lambda: payment_schedule(make_power_ramp(0.9, 5.0, 3.5), RoiTarget(5.0)),
    "table_1001_ratio_2": lambda: payment_schedule(_table_rule(1001), RoiTarget(2.0)),
    "table_1001_ratio_5": lambda: payment_schedule(_table_rule(1001), RoiTarget(5.0)),
    "hand": lambda: PaymentSchedule.hand(
        make_power_ramp(0.75, 2.0), RoiTarget(2.0), [0.0, 0.25, 0.5], [0.0, 0.1, 0.3]
    ),
}


@pytest.mark.parametrize("case", SUM_SORTED_CASES)
def test_sum_sorted_is_the_per_point_sum_bitwise(case):
    # row starts (right-continuous), row ends and vmax are among the points; each
    # point's float is the per-point row search and term sum
    sched = SUM_SORTED_CASES[case]()
    pieces, vmax = sched.pieces(), sched.allocation.vmax
    lowered = piece_terms(pieces)
    a = _sorted_points(pieces, vmax, 20_000, 3)
    got = sum_sorted(lowered, a, vmax)
    want = per_point_pieces(pieces, a, vmax)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a block that holds no point of most rows, and an empty one
    for lo, hi in ((0.3, 0.31), (0.999, 1.0), (0.0, 0.0)):
        part = a[(a >= lo * vmax) & (a <= hi * vmax)]
        assert np.array_equal(
            sum_sorted(lowered, part, vmax).view(np.int64),
            per_point_pieces(pieces, part, vmax).view(np.int64),
        )
    assert sum_sorted(lowered, np.empty(0), vmax).shape == (0,)


def test_sum_sorted_takes_one_slice_per_term_across_rows():
    # the derived pieces of a 1,001-point table rule switch rows between tight and
    # flat, yet lower to a few terms, each spanning hundreds of rows
    rule_terms = piece_terms(payment_schedule(_table_rule(1001), RoiTarget(2.0)).pieces()).terms
    assert len(rule_terms) <= 6 and max(r1 - r0 for r0, r1, _, _ in rule_terms) > 500
    # zero coefficients are absent terms, whatever their exponent; a term's slice
    # may hold rows without it (coefficient 0.0); a row with no live term is
    # +0.0, and a negative term at t = 0 (-0.0) sums to +0.0 too
    pieces = Pieces(
        np.array([0.0, 0.25, 0.5, 0.5, 0.75]),
        np.array([0.25, 0.5, 0.5, 0.75, 1.0]),
        np.array([[0.0, -2.0], [0.0, 3.0], [7.0, 0.0], [-1.5, 4.0], [0.0, 0.0]]),
        np.array([[1.7, 1.0], [2.0, 1.0], [0.5, 5.0], [0.5, 1.0], [2.0, 3.0]]),
    )
    lowered = piece_terms(pieces)
    assert [(r0, r1, coef.tolist(), q) for r0, r1, coef, q in lowered.terms] == [
        (2, 4, [7.0, -1.5], 0.5), (0, 4, [-2.0, 3.0, 0.0, 4.0], 1.0),
    ]
    a = np.array([0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 1.0])
    got = sum_sorted(lowered, a, 1.0)
    want = per_point_pieces(pieces, a, 1.0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0
    assert got[3] == -1.5 * math.pow(0.5, 0.5) + 4.0 * 0.5 and got[-1] == 0.0
    assert math.copysign(1.0, got[-1]) == 1.0
    # an absent term adds 0 only where t^q is finite, so negative exponents are refused
    with pytest.raises(ValueError, match="non-negative"):
        piece_terms(pieces._replace(expo=-pieces.expo))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prepare_refuses_nan_and_infinities_in_every_shape(bad):
    # the domain check reduces the points to their least and greatest; nan and
    # either infinity fail it whether the points are a scalar, 1-D or 2-D
    two_d = [[0.25, 0.5], [bad, 0.75]]
    for v in (bad, np.float64(bad), [0.25, bad], two_d, np.full((2, 3), bad)):
        with pytest.raises(DomainError, match=f"point {bad!r} outside"):
            _prepare(v, 1.0)
    # an empty lookup has no point to refuse, in any shape
    for empty in (np.empty(0), np.empty((0, 3)), np.empty((2, 0))):
        a, scalar = _prepare(empty, 1.0)
        assert a.shape == empty.shape and not scalar
