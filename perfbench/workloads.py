"""The four benchmark workloads: inputs, operations, warm-up and expectations.

A workload's build() turns the seed into one round of operations. Each
operation has a timed part (run), an untimed part that turns the raw result
into plain data (collect), and a verify step that checks that data against
references computed apart from the package (checks.py, reference.py).
Every call into roi_auction goes through a module attribute looked up at
call time, so the tracing wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks
import inputs
import reference as ref

#: Monte Carlo seed handed to `compare`; fixed so the 4-standard-error check
#: faces the same draws on every workload seed (see README.md)
MC_SEED = 20231003
MC_SAMPLES = 1_000_000


@dataclass
class Op:
    key: str  # names the input; one key must always give the same output
    run: Callable[[], Any]  # the timed operation
    collect: Callable[[Any], Any]  # untimed: raw result -> plain data
    verify: Callable[[Any], None]  # raises checks.CheckFailed


@dataclass
class Round:
    ops: list[Op]
    warmup: list[Callable[[], Any]]


def cli_call(api, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = api.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _report_data(report) -> dict:
    return {
        "passed": report.passed,
        "pass": {c.name: c.passed for c in report.checks},
        "worst": {c.name: c.worst_violation for c in report.checks},
    }


# ---------------------------------------------------------------------------
# solve-sweep

#: (descriptor, ratio, --tol or None) for the slow solves: the two slowest
#: known (uniform at ratio 5 with tol 1e-12, a piecewise-linear density at
#: ratio 20) and ratio 1.01, whose weight exponent 100 > 50 takes the
#: steep-exponent path. They are fixed instances; see inputs.UNIFORM_UNIT.
HARD_SOLVES = (
    (inputs.UNIFORM_UNIT, 5.0, 1e-12),
    (inputs.HUMP_DENSITY, 20.0, None),
    (inputs.UNIFORM_UNIT, 1.01, None),
)
#: seeded solves of the other two kinds at ratios 1.5 and 2
MID_SOLVES = (("tabulated_cdf", 1.5), ("power_cdf", 2.0))
#: seeded solves at ratio 2 (weight exponent 1, no endpoint singularity),
#: cheap and alike; with 12 of them the median operation is one of these and
#: shows the fixed cost of a solve: payment schedule, CSV, CLI
EASY_KINDS = ("uniform", "piecewise_linear_density")
EASY_DRAWS = 6
EASY_RATIO = 2.0


def build_solve(api, seed: int, workdir: Path) -> Round:
    easy = [
        (inputs.distribution(seed, kind, f"solve:{draw}"), EASY_RATIO, None)
        for draw in range(EASY_DRAWS)
        for kind in EASY_KINDS
    ]
    # the easy solves sit between the slow ones, so their timings sample the
    # whole round rather than one stretch of it
    step = len(easy) // len(HARD_SOLVES)
    cases = []
    for i, hard in enumerate(HARD_SOLVES):
        cases += [hard, *easy[i * step:(i + 1) * step]]
    for kind, ratio in MID_SOLVES:
        cases.append((inputs.distribution(seed, kind, "solve"), ratio, None))
    ops = []
    for i, (desc, ratio, tol) in enumerate(cases):
        rdist = ref.from_descriptor(desc)
        d = ref.threshold(rdist, ratio)
        expected = {"desc": desc, "ratio": ratio, "D": d, "revenue": ref.ramp_revenue(rdist, ratio, d)}
        path = write_json(workdir / f"solve{i}.json", desc)
        out = workdir / f"solution{i}.json"
        argv = ["solve", path, "--m", repr(ratio), "--out", str(out)]
        if tol is not None:
            argv += ["--tol", repr(tol)]

        def collect(res, out=out):
            res["solution"] = json.loads(out.read_text(encoding="utf-8"))
            res["csv"] = out.with_name(out.stem + "_schedule.csv").read_text(encoding="utf-8")
            return res

        ops.append(Op(
            key=f"solve{i}",
            run=lambda argv=argv: cli_call(api, argv),
            collect=collect,
            verify=lambda res, e=expected: checks.verify_solve(e, res),
        ))
    path = write_json(workdir / "warmup.json", inputs.UNIFORM_UNIT)
    warm = ["solve", path, "--m", "2.0", "--out", str(workdir / "warmup_solution.json")]
    return Round(ops, [lambda: cli_call(api, warm)])


# ---------------------------------------------------------------------------
# revenue-sweep

REVENUE_RATIOS = (2.0, 5.0)
#: perturbed tables per (kind, ratio); each has its own distribution draw, so
#: the round averages over 48 independent rules
TABLE_DRAWS = 6


def build_revenue(api, seed: int, workdir: Path) -> Round:
    ops = []
    # kinds and ratios alternate, so every stretch of the round samples each
    for draw in range(TABLE_DRAWS):
        for ratio in REVENUE_RATIOS:
            for kind in inputs.KINDS:
                tag = f"{kind}:{ratio}:{draw}"
                desc = inputs.distribution(seed, kind, f"table:{tag}")
                rdist = ref.from_descriptor(desc)
                dist = api.distributions.distribution_from_descriptor(desc)
                d = ref.threshold(rdist, ratio)
                points = inputs.perturbed_ramp_table(seed, tag, d, ratio, rdist.vmax)
                rule = api.allocation.allocation_from_descriptor(inputs.table_descriptor(points, rdist.vmax))
                expected = {
                    "optimum": ref.ramp_revenue(rdist, ratio, d),
                    "points": points,
                    "ratio": ratio,
                    "rdist": rdist,
                }
                ops.append(Op(
                    key=f"table:{tag}",
                    run=lambda rule=rule, dist=dist, ratio=ratio: _revenue(api, rule, dist, ratio),
                    collect=lambda rev: rev,
                    verify=lambda rev, e=expected: _verify_table(e, rev),
                ))
    for kind in inputs.KINDS:
        desc = inputs.distribution(seed, kind, "step")
        rdist = ref.from_descriptor(desc)
        dist = api.distributions.distribution_from_descriptor(desc)
        price = ref.posted_price(rdist)
        step = api.allocation.allocation_from_descriptor(inputs.step_descriptor(price, rdist.vmax))
        expected = {"posted_revenue": ref.posted_revenue(rdist, price)}
        ops.append(Op(
            key=f"step:{kind}",
            run=lambda rule=step, dist=dist: _revenue(api, rule, dist, 2.0),
            collect=lambda rev: rev,
            verify=lambda rev, e=expected: checks.verify_step_revenue(e, rev),
        ))
    return Round(ops, [ops[-1].run])


def _revenue(api, rule, dist, ratio: float) -> float:
    mech = api.audit.mechanism_for(rule, api.payments.RoiTarget(ratio))
    return api.revenue.expected_revenue_quadrature(mech, dist).mean


def _verify_table(expected: dict, revenue: float) -> None:
    pieces = ref.table_pieces(expected["points"])
    reference = ref.dense_revenue(pieces, expected["ratio"], expected["rdist"])
    checks.verify_table_revenue({"optimum": expected["optimum"], "reference": reference}, revenue)


# ---------------------------------------------------------------------------
# mc-compare

COMPARE_RATIO = 2.0


def build_compare(api, seed: int, workdir: Path) -> Round:
    ops = []
    for kind in inputs.KINDS:
        desc = inputs.distribution(seed, kind, "compare")
        rdist = ref.from_descriptor(desc)
        d = ref.threshold(rdist, COMPARE_RATIO)
        price = ref.posted_price(rdist)
        expected = {
            "price": price,
            "posted_revenue": ref.posted_revenue(rdist, price),
            "D": d,
            "revenue": ref.ramp_revenue(rdist, COMPARE_RATIO, d),
        }
        path = write_json(workdir / f"compare_{kind}.json", desc)
        argv = ["compare", path, "--m", repr(COMPARE_RATIO), "--mc-samples", str(MC_SAMPLES),
                "--seed", str(MC_SEED), "--format", "json"]
        ops.append(Op(
            key=f"compare:{kind}",
            run=lambda argv=argv: cli_call(api, argv),
            collect=lambda res: res,
            verify=lambda res, e=expected: checks.verify_compare(e, res),
        ))
    small = ["compare", str(workdir / f"compare_{inputs.KINDS[0]}.json"), "--m", repr(COMPARE_RATIO),
             "--mc-samples", "1000", "--format", "json"]
    return Round(ops, [lambda: cli_call(api, small)])


# ---------------------------------------------------------------------------
# audit-battery

AUDIT_RATIOS = (1.5, 2.0, 5.0)
HAND_RATIO = 3.0
#: (kind, ratio, grid) for check_dsic on the reference ramps
DSIC_CASES = (("uniform", 2.0, 2001), ("power_cdf", 5.0, 4001))
PROFILE_RATIOS = ((2.0, 3.0), (1.5, 2.0, 5.0))


def build_audit(api, seed: int, workdir: Path) -> Round:
    target = api.payments.RoiTarget
    standard = []
    for tag in "abcde":
        rule = api.allocation.allocation_from_descriptor(inputs.monotone_rule(seed, tag))
        for ratio in AUDIT_RATIOS:
            standard.append(Op(
                key=f"standard:{tag}:{ratio}",
                run=lambda rule=rule, ratio=ratio: api.audit.run_standard_audit(
                    api.audit.mechanism_for(rule, target(ratio))),
                collect=_report_data,
                verify=lambda res: checks.verify_audit_passes("audit.truthful_passes", res),
            ))
    heavy = []
    honest, tampered, edges, levels = inputs.hand_schedule(seed, "hand", HAND_RATIO)
    grid = tampered["schedule"]["grid"]
    expected = {
        "grid": grid,
        "allocations": [ref.staircase_value(edges, levels, v) for v in grid],
        "payments": tampered["schedule"]["payments"],
        "ratio": HAND_RATIO,
    }
    files = (
        ("honest", honest, checks.verify_honest_file),
        ("tampered", tampered, lambda res: checks.verify_tampered_file(expected, res)),
    )
    for name, mech_file, verify in files:
        argv = ["audit", write_json(workdir / f"{name}.json", mech_file), "--format", "json"]
        heavy.append(Op(
            key=f"file:{name}",
            run=lambda argv=argv: cli_call(api, argv),
            collect=_audit_file_data,
            verify=verify,
        ))
    for kind, ratio, grid_n in DSIC_CASES:
        rdist = ref.from_descriptor(inputs.distribution(seed, kind, "audit"))
        ramp = api.allocation.make_power_ramp(ref.threshold(rdist, ratio), ratio, rdist.vmax)
        mech = api.audit.mechanism_for(ramp, target(ratio))
        heavy.append(Op(
            key=f"dsic:{kind}:{grid_n}",
            run=lambda mech=mech, grid_n=grid_n: api.audit.check_dsic(mech, grid_n=grid_n),
            collect=lambda c: {"passed": c.passed, "worst": c.worst_violation},
            verify=checks.verify_ramp_dsic,
        ))
    for ratios in PROFILE_RATIOS:
        ms = [target(r) for r in ratios]
        heavy.append(Op(
            key=f"profile:{len(ratios)}",
            run=lambda ms=ms: api.audit.profile_audit(api.audit.highest_bid_wins(1.0), ms),
            collect=_report_data,
            verify=lambda res: checks.verify_audit_passes("audit.profile_passes", res),
        ))
    # standard audits between the heavy operations, as in the solve sweep
    ops = []
    per = len(standard) // len(heavy) + 1
    for i, op in enumerate(heavy):
        ops += [*standard[i * per:(i + 1) * per], op]
    ops += standard[len(heavy) * per:]
    return Round(ops, [standard[0].run, heavy[0].run])


def _audit_file_data(res: dict) -> dict:
    report = json.loads(res["stdout"])
    return {
        "rc": res["rc"],
        "passed": all(c["pass"] for c in report["checks"]),
        "pass": {c["name"]: c["pass"] for c in report["checks"]},
        "worst": {c["name"]: c["worst_violation"] for c in report["checks"]},
    }


WORKLOADS = {
    "solve-sweep": build_solve,
    "revenue-sweep": build_revenue,
    "mc-compare": build_compare,
    "audit-battery": build_audit,
}
