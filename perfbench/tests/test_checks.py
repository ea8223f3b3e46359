"""Every output check passes on a right answer and trips on a slightly wrong one."""

import json
import math

import numpy as np
import pytest

import checks
import reference as ref
from checks import CheckFailed

UNIFORM = {"kind": "uniform", "vmax": 1.0}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def solve_output(ratio=2.0, d_shift=0.0, pay_shift=0.0, rev_shift=0.0):
    """What `solve` prints and writes for the uniform law, built from the reference."""
    dist = ref.from_descriptor(UNIFORM)
    d = ref.threshold(dist, ratio) + d_shift
    rev = ref.ramp_revenue(dist, ratio, d) + rev_shift
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101), [d]]))
    x = ref.ramp_value(grid, d, ratio)
    p = np.where(grid >= d, d, grid * x) + pay_shift * (grid >= d)
    rows = [f"{_fmt(v)},{_fmt(a)},0,{_fmt(q)},0" for v, a, q in zip(grid, x, p)]
    return {
        "rc": 0,
        "stdout": f"D = {_fmt(d)}\nboundary_case = interior_root\nrevenue = {_fmt(rev)}\nwrote a and b\n",
        "solution": {"D": float(_fmt(d)), "revenue": float(_fmt(rev))},
        "csv": "v,x,p_myerson,p_roi,rebate\n" + "\n".join(rows) + "\n",
    }


def solve_expected(ratio=2.0):
    dist = ref.from_descriptor(UNIFORM)
    d = ref.threshold(dist, ratio)
    return {"desc": UNIFORM, "ratio": ratio, "D": d, "revenue": ref.ramp_revenue(dist, ratio, d)}


def trips(name, fn, *args):
    with pytest.raises(CheckFailed) as info:
        fn(*args)
    assert info.value.name == name


@pytest.mark.parametrize("ratio", (1.01, 2.0, 5.0))
def test_solve_checks(ratio):
    checks.verify_solve(solve_expected(ratio), solve_output(ratio))
    trips("solve.threshold", checks.verify_solve, solve_expected(ratio), solve_output(ratio, d_shift=1e-5))
    trips("solve.revenue", checks.verify_solve, solve_expected(ratio), solve_output(ratio, rev_shift=1e-5))
    trips("solve.csv_ir", checks.verify_solve, solve_expected(ratio), solve_output(ratio, pay_shift=0.01))
    trips("solve.csv_flat_price", checks.verify_solve, solve_expected(ratio), solve_output(ratio, pay_shift=-0.01))
    failed = dict(solve_output(ratio), rc=1)
    trips("solve.exit_code", checks.verify_solve, solve_expected(ratio), failed)


def test_revenue_checks():
    checks.verify_table_revenue({"optimum": 0.375, "reference": 0.37}, 0.37 + 1e-9)
    trips("revenue.below_optimum", checks.verify_table_revenue, {"optimum": 0.375, "reference": 0.375}, 0.375 + 2e-8)
    trips("revenue.table_reference", checks.verify_table_revenue, {"optimum": 0.375, "reference": 0.37}, 0.37 + 2e-6)
    checks.verify_step_revenue({"posted_revenue": 0.25}, 0.25)
    trips("revenue.step_price", checks.verify_step_revenue, {"posted_revenue": 0.25}, 0.25 + 1e-8)


def compare_output(mc_shift_se=1.0, d_shift=0.0):
    se = 2.5e-4
    rows = [
        {"name": "posted_price", "threshold": 0.5, "rev_quad": 0.25, "rev_mc": 0.25 - se, "stderr": se},
        {"name": "roi_optimal", "threshold": 0.75 + d_shift, "rev_quad": 0.375,
         "rev_mc": 0.375 + mc_shift_se * se, "stderr": se},
    ]
    return {"rc": 0, "stdout": json.dumps({"rows": rows})}


def test_compare_checks():
    expected = {"price": 0.5, "posted_revenue": 0.25, "D": 0.75, "revenue": 0.375}
    checks.verify_compare(expected, compare_output())
    trips("compare.mc_within_4se", checks.verify_compare, expected, compare_output(mc_shift_se=4.5))
    trips("compare.threshold", checks.verify_compare, expected, compare_output(d_shift=1e-5))


def tampered_case(shift=0.01):
    edges, levels, ratio = [0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 1.0], 2.0
    grid = [i / 20 for i in range(21)]
    allocs = [ref.staircase_value(edges, levels, v) for v in grid]
    pays = list(ref.staircase_payments(edges, levels, ratio, grid))
    pays[14] -= shift
    expected = {"grid": grid, "allocations": allocs, "payments": pays, "ratio": ratio}
    return expected, ref.misreport_gain(grid, allocs, pays, ratio)


def audit_out(rc, dsic_pass, dsic_worst, char_pass=False):
    return {
        "rc": rc,
        "passed": dsic_pass and char_pass,
        "pass": {"monotone": True, "characterization": char_pass, "dsic": dsic_pass, "ir": True},
        "worst": {"monotone": 0.0, "characterization": 0.01, "dsic": dsic_worst, "ir": 0.0},
    }


def test_audit_checks():
    expected, gain = tampered_case()
    checks.verify_tampered_file(expected, audit_out(1, False, gain))
    trips("audit.tampered_exit_code", checks.verify_tampered_file, expected, audit_out(0, False, gain))
    trips("audit.tampered_file_fails", checks.verify_tampered_file, expected, audit_out(1, True, gain))
    trips("audit.dsic_matches_explicit_search", checks.verify_tampered_file, expected,
          audit_out(1, False, gain + 1e-6))
    trips("audit.dsic_matches_explicit_search", checks.verify_tampered_file, expected, audit_out(1, False, "inf"))
    checks.verify_honest_file(audit_out(0, True, 0.0, char_pass=True))
    trips("audit.honest_file_passes", checks.verify_honest_file, audit_out(0, False, 0.01, char_pass=True))
    checks.verify_ramp_dsic({"passed": True, "worst": 0.0})
    trips("audit.ramp_dsic", checks.verify_ramp_dsic, {"passed": True, "worst": 1e-5})
    assert math.isfinite(gain) and gain == pytest.approx(0.01, abs=1e-12)
