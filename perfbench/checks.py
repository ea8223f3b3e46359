"""Output checks for the benchmark, on plain data only.

Each verify_* function takes what the benchmark expects of one operation
(reference values computed apart from the package) and the output the
operation produced, and raises CheckFailed naming the first check that does
not hold. Nothing here imports roi_auction, so the checks can be tested on
fabricated outputs.

Tolerances, and why each holds (see also README.md):

* GATE_TOL 1e-6: the package's acceptance gates hold thresholds and revenues
  to 1e-6, and the solver's own tolerance is 1e-9, so an honest answer sits
  three orders inside it.
* PAYMENT_TOL 1e-9: the solved ramp's payments are v x below D and D above
  it up to rounding (the rebate cancels exactly); the CSV prints 12
  significant digits, so the printed identity holds to about 1e-12.
* OPTIMALITY_SLACK 1e-8: no truthful mechanism earns more than the optimal
  ramp; the slack only absorbs quadrature error, as in acceptance gate 6.
* STEP_TOL 1e-9: a step rule pays exactly its price above it, so quadrature
  of a piecewise-constant payment against a smooth density reaches its
  requested 1e-9 tolerance.
* MC_SIGMAS 4: a Monte Carlo mean lies within 4 standard errors of the truth
  except with probability about 6e-5.
* DSIC_TOL 1e-6 and the exact-match tolerance 1e-9 for the explicit-loop
  misreport search: both sides take the same maximum over the same grid
  and payments, so they differ only by rounding and the report's 12
  printed digits.
"""

from __future__ import annotations

import json
import math

import reference as ref

GATE_TOL = 1e-6
PAYMENT_TOL = 1e-9
OPTIMALITY_SLACK = 1e-8
STEP_TOL = 1e-9
MC_SIGMAS = 4.0
DSIC_TOL = 1e-6
SEARCH_MATCH_TOL = 1e-9


class CheckFailed(Exception):
    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name


def expect(name: str, ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(name, detail)


def close(name: str, got: float, want: float, tol: float) -> None:
    expect(name, abs(got - want) <= tol, f"got {got!r}, want {want!r} within {tol:g}")


# ---------------------------------------------------------------------------
# solve-sweep


def _stdout_field(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split("=", 1)[1])
    raise CheckFailed("solve.stdout", f"no '{key} = ' line in {stdout!r}")


def verify_solve(expected: dict, out: dict) -> None:
    """expected: desc, ratio, D, revenue; out: rc, stdout, solution (dict), csv (text)."""
    expect("solve.exit_code", out["rc"] == 0, f"exit code {out['rc']}, stderr {out.get('stderr')!r}")
    d_printed = _stdout_field(out["stdout"], "D")
    close("solve.threshold", d_printed, expected["D"], GATE_TOL)
    close("solve.revenue", _stdout_field(out["stdout"], "revenue"), expected["revenue"], GATE_TOL)
    close("solve.json_threshold", float(out["solution"]["D"]), expected["D"], GATE_TOL)
    close("solve.json_revenue", float(out["solution"]["revenue"]), expected["revenue"], GATE_TOL)
    verify_ramp_csv(out["csv"], d_printed, expected["ratio"], expected["desc"]["vmax"])


def verify_ramp_csv(text: str, d: float, ratio: float, vmax: float) -> None:
    """p <= v x everywhere; p = v x below D and p = D from D on; x is the ramp."""
    lines = text.splitlines()
    expect("solve.csv_header", lines[0] == "v,x,p_myerson,p_roi,rebate", f"header {lines[0]!r}")
    c = ref.weight_exponent(ratio)
    last_v = -1.0
    for line in lines[1:]:
        v, x, _, p, _ = (float(s) for s in line.split(","))
        # 12 printed digits can merge a knot with a grid point next to it
        expect("solve.csv_grid", v >= last_v, f"grid decreases at v={v!r}")
        last_v = v
        expect("solve.csv_ir", p <= v * x + PAYMENT_TOL, f"p={p!r} exceeds v x={v * x!r} at v={v!r}")
        want_x = 1.0 if v >= d else (v / d) ** c
        close("solve.csv_allocation", x, want_x, GATE_TOL)
        if v < d:
            close("solve.csv_first_price", p, v * x, PAYMENT_TOL)
        else:
            close("solve.csv_flat_price", p, d, PAYMENT_TOL)
    close("solve.csv_covers_support", last_v, vmax, PAYMENT_TOL)


# ---------------------------------------------------------------------------
# revenue-sweep


def verify_table_revenue(expected: dict, revenue: float) -> None:
    """expected: optimum (reference ramp revenue) and reference (dense-grid revenue)."""
    expect(
        "revenue.below_optimum",
        revenue <= expected["optimum"] + OPTIMALITY_SLACK,
        f"perturbed rule earned {revenue!r}, above the optimum {expected['optimum']!r}",
    )
    close("revenue.table_reference", revenue, expected["reference"], GATE_TOL)


def verify_step_revenue(expected: dict, revenue: float) -> None:
    """expected: price r and r (1 - F(r))."""
    close("revenue.step_price", revenue, expected["posted_revenue"], STEP_TOL)


# ---------------------------------------------------------------------------
# mc-compare


def verify_compare(expected: dict, out: dict) -> None:
    """expected: price, posted_revenue, D, revenue; out: rc and the JSON table text."""
    expect("compare.exit_code", out["rc"] == 0, f"exit code {out['rc']}, stderr {out.get('stderr')!r}")
    rows = {r["name"]: r for r in json.loads(out["stdout"])["rows"]}
    expect("compare.rows", set(rows) == {"posted_price", "roi_optimal"}, f"rows {sorted(rows)}")
    posted, best = rows["posted_price"], rows["roi_optimal"]
    close("compare.posted_price", posted["threshold"], expected["price"], GATE_TOL)
    close("compare.posted_revenue", posted["rev_quad"], expected["posted_revenue"], GATE_TOL)
    close("compare.threshold", best["threshold"], expected["D"], GATE_TOL)
    close("compare.revenue", best["rev_quad"], expected["revenue"], GATE_TOL)
    for row in (posted, best):
        se = row["stderr"]
        expect("compare.stderr_positive", se > 0.0, f"{row['name']} stderr {se!r}")
        expect(
            "compare.mc_within_4se",
            abs(row["rev_mc"] - row["rev_quad"]) <= MC_SIGMAS * se,
            f"{row['name']}: |{row['rev_mc']} - {row['rev_quad']}| > {MC_SIGMAS:g} x {se}",
        )


# ---------------------------------------------------------------------------
# audit-battery


def verify_audit_passes(name: str, out: dict) -> None:
    """out: passed plus {check name: worst violation}."""
    failing = [k for k, ok in out["pass"].items() if not ok]
    expect(name, out["passed"] and not failing, f"failing checks {failing}, worst {out['worst']}")


def verify_ramp_dsic(out: dict) -> None:
    expect("audit.ramp_dsic", out["passed"] and out["worst"] <= DSIC_TOL, f"worst gain {out['worst']!r}")


def verify_honest_file(out: dict) -> None:
    expect("audit.honest_exit_code", out["rc"] == 0, f"exit code {out['rc']}")
    verify_audit_passes("audit.honest_file_passes", out)


def verify_tampered_file(expected: dict, out: dict) -> None:
    """expected: grid, allocations, payments of the tampered file and the ratio."""
    expect("audit.tampered_exit_code", out["rc"] == 1, f"exit code {out['rc']}")
    for check in ("dsic", "characterization"):
        expect("audit.tampered_file_fails", not out["pass"][check], f"{check} passed on tampered payments")
    gain = ref.misreport_gain(expected["grid"], expected["allocations"], expected["payments"], expected["ratio"])
    reported = out["worst"]["dsic"]
    reported = math.inf if reported == "inf" else float(reported)
    if math.isinf(gain) or math.isinf(reported):
        expect("audit.dsic_matches_explicit_search", gain == reported, f"check_dsic {reported!r}, loops {gain!r}")
    else:
        close("audit.dsic_matches_explicit_search", reported, gain, SEARCH_MATCH_TOL * max(1.0, gain))
