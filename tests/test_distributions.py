import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roi_auction import (
    DescriptorError,
    DomainError,
    PiecewiseLinearDensity,
    PowerCdfDistribution,
    TabulatedCdf,
    UniformDistribution,
    distribution_from_descriptor,
)
from oracles import central_difference, piece_tuples

TRIANGULAR = PiecewiseLinearDensity((0.0, 1.0), (2.0, 0.0))
TENT = PiecewiseLinearDensity((0.0, 0.5, 1.0), (0.0, 2.0, 0.0))
TABLE = TabulatedCdf(((0.0, 0.0), (0.25, 0.1), (0.5, 0.45), (1.0, 1.0)))
ALL = [UniformDistribution(1.0), PowerCdfDistribution(2.0), TRIANGULAR, TENT, TABLE]


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_cdf_endpoints(dist):
    assert dist.cdf(0.0) == pytest.approx(0.0, abs=1e-12)
    assert dist.cdf(dist.vmax) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_pdf_is_cdf_derivative_off_knots(dist):
    kinks = {lo for lo, _, _ in piece_tuples(dist.pdf_pieces())[1:]}
    h = dist.vmax * 1e-6
    for t in (0.137, 0.391, 0.622, 0.843):
        v = t * dist.vmax
        if any(abs(v - k) < 10 * h for k in kinks):
            continue
        numeric = central_difference(dist.cdf, v, h)
        assert numeric == pytest.approx(dist.pdf(v), abs=1e-4)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_marginal_revenue_is_density_weighted_virtual_value(dist):
    for t in (0.2, 0.5, 0.77):
        v = t * dist.vmax
        f = dist.pdf(v)
        if f <= 0.0:
            continue
        phi = v - (1.0 - dist.cdf(v)) / f
        assert dist.marginal_revenue(v) == pytest.approx(phi * f, abs=1e-12)


SCALED = [
    UniformDistribution(2.5),
    PowerCdfDistribution(3.5, vmax=0.8),
    PiecewiseLinearDensity((0.0, 0.6, 1.5, 3.0), tuple(h / 9.975 for h in (1.0, 3.0, 4.0, 3.5))),
    TabulatedCdf(((0.0, 0.0), (0.5, 0.1), (1.0, 0.45), (2.0, 1.0))),
]


@pytest.mark.parametrize("dist", ALL + SCALED, ids=lambda d: f"{type(d).__name__}-{d.vmax}")
def test_psi_pieces_reproduce_marginal_revenue(dist):
    pieces = piece_tuples(dist.psi_pieces())
    assert pieces[0][0] == 0.0 and pieces[-1][1] == dist.vmax
    assert all(a[1] == b[0] for a, b in zip(pieces[:-1], pieces[1:]))
    for lo, hi, terms in pieces:
        assert all(e >= 0.0 for _, e in terms)
        # interior points plus the left end, where the pieces follow the right-continuous pdf
        for v in np.append(np.linspace(lo, hi, 9)[:-1], hi - 1e-9 * dist.vmax):
            want = dist.marginal_revenue(v)
            got = sum(a * (v / dist.vmax) ** e for a, e in terms)
            assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("dist", ALL + SCALED, ids=lambda d: f"{type(d).__name__}-{d.vmax}")
def test_pdf_pieces_reproduce_pdf(dist):
    pieces = piece_tuples(dist.pdf_pieces())
    assert pieces[0][0] == 0.0 and pieces[-1][1] == dist.vmax
    assert all(a[1] == b[0] for a, b in zip(pieces[:-1], pieces[1:]))
    for lo, hi, terms in pieces:
        for v in np.append(np.linspace(lo, hi, 9)[:-1], hi - 1e-9 * dist.vmax):
            got = sum(a * (v / dist.vmax) ** e for a, e in terms)
            assert got == pytest.approx(dist.pdf(v), abs=1e-12)


def test_power_cdf_density_survives_huge_vmax():
    dist = PowerCdfDistribution(2.0, vmax=1e300)
    assert dist.pdf(0.5e300) == pytest.approx(1e-300)
    assert dist.check_dmr().passed


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
@given(u=st.floats(0.0, 1.0))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_quantile_inverts_cdf(dist, u):
    v = dist.quantile(u)
    assert 0.0 <= v <= dist.vmax
    assert dist.cdf(v) == pytest.approx(u, abs=1e-8)


def test_quantile_vectorized_matches_scalar():
    us = np.linspace(0.0, 1.0, 17)
    vec = TABLE.quantile(us)
    assert vec.shape == us.shape
    for u, v in zip(us, vec):
        assert TABLE.quantile(float(u)) == v


def test_support_is_enforced():
    with pytest.raises(DomainError):
        UniformDistribution(1.0).cdf(1.5)
    with pytest.raises(DomainError):
        TABLE.pdf(-0.2)
    with pytest.raises(DomainError):
        TABLE.quantile(1.2)


def test_uniform_closed_forms():
    u = UniformDistribution(2.0)
    assert u.pdf(1.3) == 0.5
    assert u.cdf(0.5) == 0.25
    # psi(v) = 2v/vmax - 1
    assert u.marginal_revenue(1.5) == pytest.approx(0.5)


def test_power_cdf_closed_forms():
    p = PowerCdfDistribution(2.0)
    assert p.cdf(0.5) == 0.25
    assert p.pdf(0.5) == 1.0
    assert p.quantile(0.25) == pytest.approx(0.5)
    # psi(v) = 3v^2 - 1 for k=2 on [0, 1]
    assert p.marginal_revenue(0.6) == pytest.approx(3 * 0.36 - 1)


def test_dmr_verdicts():
    assert UniformDistribution(1.0).check_dmr().passed
    assert PowerCdfDistribution(2.0).check_dmr().passed
    report = TRIANGULAR.check_dmr()
    # psi = 4v - 3v^2 - 1 peaks at 2/3 and falls after it
    assert not report.passed
    assert report.first_violation_at > 2.0 / 3.0 - 0.01
    assert report.worst_drop > 0.0


def test_dmr_catches_a_density_drop_at_a_knot():
    # f falls from 1.001 to 0.998998 at 0.5005, so psi falls by 0.5005 * 0.002002 there;
    # the 1001-point grid cell across the knot rises by more than that
    dist = TabulatedCdf(((0.0, 0.0), (0.5005, 0.5010005), (1.0, 1.0)))
    report = dist.check_dmr()
    assert not report.passed
    assert report.worst_drop == pytest.approx(0.5005 * (1.001 - 0.4989995 / 0.4995), rel=1e-9)
    assert report.worst_at == report.first_violation_at == 0.5005
    assert report.grid_n == 1001


# psi is 4.996 at 0.5001 and 4.0e-4 one float below 0.5002: it falls inside one piece
# narrower than a grid cell, and the density has no downward jump at a breakpoint
NARROW_FALL = PiecewiseLinearDensity(
    (0.0, 0.5, 0.5001, 0.5002, 1.0), tuple(d / 1.001 for d in (1.0, 1.0, 11.0, 1.0, 1.0))
)


def test_dmr_catches_a_fall_inside_one_piece():
    report = NARROW_FALL.check_dmr()
    assert not report.passed
    assert report.worst_at == report.first_violation_at == 0.5001
    end = math.nextafter(0.5002, 0.0)
    fall = NARROW_FALL.marginal_revenue(0.5001) - NARROW_FALL.marginal_revenue(end)
    assert report.worst_drop == fall
    assert fall == pytest.approx(4.996, abs=1e-3)
    assert report.grid_n == 1001


def test_dmr_compares_psi_at_a_vertex_inside_the_piece():
    # psi = 4v - 3v^2 - 1 rises from -1 to 0 across [0, 1], so a 2-point grid sees no
    # fall; its vertex at 2/3, where psi is 1/3, does
    report = TRIANGULAR.check_dmr(grid_n=2)
    assert not report.passed
    assert report.worst_at == report.first_violation_at == pytest.approx(2.0 / 3.0)
    assert report.worst_drop == pytest.approx(1.0 / 3.0)


def test_dmr_report_shape():
    rep = TRIANGULAR.check_dmr(grid_n=501)
    d = rep.to_dict()
    assert d["grid_n"] == 501
    assert set(d) == {"passed", "worst_drop", "worst_at", "first_violation_at", "grid_n", "tol"}
    assert "FAIL" in rep.summary()


def test_tabulated_density_is_piecewise_constant():
    # slope of the middle segment of TABLE is (0.45-0.1)/0.25 = 1.4
    assert TABLE.pdf(0.3) == pytest.approx(1.4)
    assert TABLE.pdf(0.25) == pytest.approx(1.4)  # right-continuous at the knot


def test_quantile_takes_leftmost_preimage():
    flat = TabulatedCdf(((0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)))
    assert flat.quantile(0.5) == pytest.approx(0.4)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_descriptor_round_trip(dist):
    again = distribution_from_descriptor(dist.descriptor())
    vs = np.linspace(0.0, dist.vmax, 23)
    assert np.allclose(again.cdf(vs), dist.cdf(vs), atol=1e-14)
    assert again.descriptor() == dist.descriptor()


@pytest.mark.parametrize(
    "bad",
    [
        {"kind": "mystery"},
        {"kind": "uniform"},
        {"kind": "uniform", "vmax": 1.0, "extra": 3},
        {"kind": "power_cdf", "vmax": 1.0},
        {"kind": "uniform", "vmax": "one"},
        {"kind": "tabulated_cdf", "vmax": 2.0, "points": [[0.0, 0.0], [1.0, 1.0]]},
        [],
        {"kind": "tabulated_cdf", "vmax": 1e-10, "points": [[0.0, 0.0], [2e-10, 1.0]]},
        # a string of digits is neither an array of numbers nor a list of pairs
        {"kind": "piecewise_linear_density", "vmax": 2, "breakpoints": "012", "densities": [0.5] * 3},
        {"kind": "tabulated_cdf", "vmax": 1, "points": ["00", "11"]},
        {"kind": "power_cdf", "vmax": 1.0, "exponent": True},
    ],
)
def test_descriptor_rejects_malformed(bad):
    with pytest.raises(DescriptorError):
        distribution_from_descriptor(bad)


def test_construction_guards():
    from roi_auction import ConstructionError

    with pytest.raises(ConstructionError):
        PowerCdfDistribution(0.5)
    with pytest.raises(ConstructionError):
        UniformDistribution(-1.0)
    with pytest.raises(ConstructionError):
        PiecewiseLinearDensity((0.0, 1.0), (1.0, 0.5))  # mass 0.75
    with pytest.raises(ConstructionError):
        TabulatedCdf(((0.0, 0.1), (1.0, 1.0)))  # F(0) != 0
    with pytest.raises(ConstructionError):
        TabulatedCdf(((0.0, 0.0), (0.5, 0.6), (1.0, 0.4)))  # decreasing


@pytest.mark.parametrize("vmax", [1e160, 1e200])
def test_density_slope_below_normal_floats_is_refused(vmax):
    # the triangular slope -2 / vmax^2 goes subnormal (1e160) or to -0.0 (1e200);
    # cdf(0.5 vmax) then read 0.7500028 and 1.0 where 0.75 is right
    from roi_auction import ConstructionError

    with pytest.raises(ConstructionError, match="smallest normal float"):
        PiecewiseLinearDensity((0.0, vmax), (2.0 / vmax, 0.0))


def test_density_slope_above_normal_floats_keeps_the_cdf():
    vmax = 1e150
    dist = PiecewiseLinearDensity((0.0, vmax), (2.0 / vmax, 0.0))
    assert piece_tuples(dist.pdf_pieces())[0][2][1][0] == pytest.approx(-2.0 / vmax, rel=1e-12)
    assert dist.cdf(0.5 * vmax) == pytest.approx(0.75, rel=1e-12)
    # equal densities have slope zero and stay accepted at any scale
    flat = PiecewiseLinearDensity((0.0, 1e200), (1e-200, 1e-200))
    assert flat.cdf(0.5e200) == pytest.approx(0.5, rel=1e-12)


FIVE_PIECES = PiecewiseLinearDensity((0.0, 0.3, 1.1, 1.7, 2.5), (0.1, 0.5, 0.4, 0.3, 0.55))


@pytest.mark.parametrize("dist", [TRIANGULAR, TENT, FIVE_PIECES], ids=["triangular", "tent", "five"])
def test_piecewise_density_per_piece_slope_formulas_keep_their_bits(dist):
    # the cached slopes give the bits of (d[i+1] - d[i]) / (b[i+1] - b[i]) worked out per piece
    b, d, vmax = dist.breakpoints, dist.densities, dist.vmax
    want_pieces = []
    for i in range(len(b) - 1):
        slope = (d[i + 1] - d[i]) / (b[i + 1] - b[i]) * vmax
        want_pieces.append((b[i], b[i + 1], ((d[i] - slope * b[i] / vmax, 0.0), (slope, 1.0))))
    # a zero coefficient is an absent term, left out on both sides
    assert piece_tuples(dist.pdf_pieces()) == piece_tuples(want_pieces)
    v = np.linspace(0.0, vmax, 97)
    i = np.clip(np.searchsorted(b, v, side="right") - 1, 0, len(b) - 2)
    ba, da = np.asarray(b), np.asarray(d)
    slope = (da[i + 1] - da[i]) / (ba[i + 1] - ba[i])
    t = v - ba[i]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (da[:-1] + da[1:]) * np.diff(ba))])
    want_cdf = np.minimum(cum[i] + da[i] * t + 0.5 * slope * t * t, 1.0)
    assert np.array_equal(dist.cdf(v), want_cdf)
