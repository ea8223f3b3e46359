import math

import pytest
from hypothesis import given, strategies as st

from roi_auction.errors import QuadratureError
from roi_auction.numerics import adaptive_simpson, bisect_root


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
def test_bisect_linear(slope, root):
    f = lambda x: slope * (x - root)
    got = bisect_root(f, root - 7.0, root + 7.0, x_tol=1e-12)
    assert abs(got - root) < 1e-11


def test_bisect_requires_bracket():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, x_tol=1e-9)

