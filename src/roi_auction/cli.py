"""Command-line front end.

Exit codes: 0 when the requested computation or check passes, 1 when a
well-formed input fails a check (non-DMR distribution, failing audit,
mismatched worked example), 2 for unusable input (bad JSON, unknown fields,
ratio at or below 1 or at 2**51 and above, bad flag values). Output is
deterministic: floats render at 12 significant digits (the allocation that
``solve`` writes keeps full precision, so it reads back as the same rule) and
rerunning a command reproduces its bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .allocation import allocation_from_descriptor
from .audit import run_standard_audit
from .distributions import distribution_from_descriptor
from .errors import (
    ConditioningWarning,
    ConstructionError,
    DescriptorError,
    DomainError,
    RoiAuctionError,
)
from .formatting import fmt, json_ready
from .optimal import optimal_mechanism
from .payments import DEFAULT_GRID_N, PaymentSchedule, RoiTarget, payment_schedule, schedule_on
from .revenue import compare as compare_mechanisms
from .revenue import expected_revenue_quadrature, myerson_baseline


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # report usage problems through the exit-code contract instead of exiting
    def error(self, message: str):
        raise _UsageError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # bad syntax or bytes, an integer past Python's digit limit, or deep nesting
        raise _UsageError(f"{path} is not valid JSON: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)


def _json_text(data) -> str:
    return json.dumps(json_ready(data), indent=2, sort_keys=True) + "\n"


def _require_m(args) -> RoiTarget:
    if args.m is None:
        raise _UsageError("this command needs --m (the target return ratio, > 1)")
    return RoiTarget(args.m)


def _mechanism_from_file(path: str, args, grid_n: int) -> PaymentSchedule:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise DescriptorError("mechanism file must hold a JSON object")
    if "segments" in data:
        rule = allocation_from_descriptor(data)
        return payment_schedule(rule, _require_m(args), grid_n)
    allowed = {"allocation", "m", "schedule"}
    if "allocation" not in data or not set(data) <= allowed:
        raise DescriptorError(
            f"mechanism file needs 'allocation' plus optional 'm'/'schedule', got {sorted(data)}"
        )
    rule = allocation_from_descriptor(data["allocation"])
    ratio = args.m if args.m is not None else data.get("m")
    if ratio is None:
        raise _UsageError("no target ratio: pass --m or put an 'm' field in the file")
    try:
        ratio = float(ratio)
    except (TypeError, ValueError, OverflowError):
        raise DescriptorError(f"'m' must be a number, got {ratio!r}")
    m = RoiTarget(ratio)
    if "schedule" not in data:
        return payment_schedule(rule, m, grid_n)
    sched = data["schedule"]
    if not isinstance(sched, dict) or set(sched) != {"grid", "payments"}:
        raise DescriptorError("'schedule' needs exactly 'grid' and 'payments' arrays")
    try:
        grid = np.asarray([float(v) for v in sched["grid"]])
        payments = np.asarray([float(p) for p in sched["payments"]])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"schedule arrays must be numeric: {exc}")
    if grid.size != payments.size or grid.size < 2:
        raise DescriptorError("schedule arrays must share a length of at least 2")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(payments))):
        raise DescriptorError("schedule grid and payments must be finite numbers")
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0) or grid[-1] > rule.vmax * (1 + 1e-12):
        raise DescriptorError("schedule grid must increase strictly from 0 within [0, vmax]")
    return schedule_on(rule, m, grid).with_payments(payments)


def _cmd_dmr_check(args) -> int:
    dist = distribution_from_descriptor(_load_json(args.file))
    report = dist.check_dmr(grid_n=args.grid if args.grid is not None else 1001)
    if args.format == "json":
        _emit(_json_text(report.to_dict()), args.out)
    elif args.format == "csv":
        d = report.to_dict()
        cols = ["passed", "worst_drop", "worst_at", "first_violation_at", "grid_n", "tol"]
        vals = [("" if d[c] is None else fmt(d[c]) if isinstance(d[c], float) else str(d[c])) for c in cols]
        _emit(",".join(cols) + "\n" + ",".join(vals) + "\n", args.out)
    else:
        _emit(report.summary() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_solve(args) -> int:
    dist = distribution_from_descriptor(_load_json(args.file))
    m = _require_m(args)
    grid_n = args.grid if args.grid is not None else DEFAULT_GRID_N
    sol = optimal_mechanism(dist, m, grid_n=grid_n, tol=args.tol)
    out = Path(args.out) if args.out is not None else Path("solution.json")
    csv_path = out.with_name(out.stem + "_schedule.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fp:
        sol.schedule.write_csv(fp)
    with open(out, "w", encoding="utf-8", newline="\n") as fp:
        # not _json_text: that would cut the allocation back to 12 digits
        fp.write(json.dumps(sol.descriptor(str(csv_path)), indent=2, sort_keys=True) + "\n")
    sys.stdout.write(
        f"D = {fmt(sol.threshold)}\n"
        f"boundary_case = {sol.boundary_case.value}\n"
        f"revenue = {fmt(sol.expected_revenue)}\n"
        f"wrote {out} and {csv_path}\n"
    )
    return 0


def _cmd_payment_table(args) -> int:
    rule = allocation_from_descriptor(_load_json(args.file))
    m = _require_m(args)
    grid_n = args.grid if args.grid is not None else DEFAULT_GRID_N
    mono = rule.check_monotone()
    if not mono.passed:
        sys.stderr.write(
            f"allocation rule decreases near v = {fmt(mono.at_v)} "
            f"(drop {fmt(mono.worst_violation)}); payments are undefined\n"
        )
        return 1
    schedule = payment_schedule(rule, m, grid_n)
    if args.format == "json":
        _emit(
            _json_text(
                {
                    "v": schedule.grid.tolist(),
                    "x": schedule.allocations.tolist(),
                    "p_myerson": schedule.myerson.tolist(),
                    "p_roi": schedule.payments.tolist(),
                    "rebate": schedule.rebates.tolist(),
                }
            ),
            args.out,
        )
    else:
        _emit(schedule.csv_text(), args.out)
    return 0


def _cmd_audit(args) -> int:
    grid_n = args.grid if args.grid is not None else DEFAULT_GRID_N
    mech = _mechanism_from_file(args.file, args, grid_n)
    report = run_standard_audit(mech)
    if args.format == "json":
        _emit(report.to_json_text(), args.out)
    else:
        _emit(report.summary() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    dist = distribution_from_descriptor(_load_json(args.file))
    m = _require_m(args)
    grid_n = args.grid if args.grid is not None else DEFAULT_GRID_N
    table = compare_mechanisms(dist, m, mc_samples=args.mc_samples, seed=args.seed, grid_n=grid_n)
    if args.format == "json":
        _emit(_json_text(table.to_dict()), args.out)
    elif args.format == "csv":
        _emit(table.csv_text(), args.out)
    else:
        _emit(table.text(), args.out)
    return 0


def _cmd_example1(args) -> int:
    from .distributions import UniformDistribution

    m = RoiTarget(args.m if args.m is not None else 2.0)
    grid_n = args.grid if args.grid is not None else DEFAULT_GRID_N
    dist = UniformDistribution(1.0)
    base = myerson_baseline(dist, m, grid_n)
    base_rev = expected_revenue_quadrature(base, dist).mean
    sol = optimal_mechanism(dist, m, grid_n=grid_n, tol=args.tol)
    audit = run_standard_audit(sol.schedule)
    verdict = "PASS" if audit.passed else "FAIL"
    line = (
        f"Myerson: {base_rev:.6f}, ROI-optimal: {sol.expected_revenue:.6f}, "
        f"D = {sol.threshold:.6f}, audit: {verdict}"
    )
    sys.stdout.write(line + "\n")
    ok = (
        abs(base_rev - 0.25) <= 1e-6
        and abs(sol.expected_revenue - 0.375) <= 1e-6
        and abs(sol.threshold - 0.75) <= 1e-6
        and audit.passed
    )
    if not ok:
        sys.stderr.write("worked example drifted from its frozen values\n")
    return 0 if ok else 1


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--m", type=float, default=None, help="target return ratio (> 1)")
    shared.add_argument("--grid", type=int, default=None, help="payment grid size")
    shared.add_argument("--tol", type=float, default=1e-9, help="solver tolerance")
    shared.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    shared.add_argument("--mc-samples", type=int, default=100_000, help="Monte Carlo draws")
    shared.add_argument("--format", choices=("json", "csv", "text"), default="text")
    shared.add_argument("--out", default=None, help="write output here instead of stdout")

    parser = _Parser(prog="roi-auction", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dmr-check", parents=[shared]).add_argument("file")
    sub.add_parser("solve", parents=[shared]).add_argument("file")
    sub.add_parser("payment-table", parents=[shared]).add_argument("file")
    sub.add_parser("audit", parents=[shared]).add_argument("file")
    sub.add_parser("compare", parents=[shared]).add_argument("file")
    sub.add_parser("example1", parents=[shared])
    return parser


_COMMANDS = {
    "dmr-check": _cmd_dmr_check,
    "solve": _cmd_solve,
    "payment-table": _cmd_payment_table,
    "audit": _cmd_audit,
    "compare": _cmd_compare,
    "example1": _cmd_example1,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.grid is not None and args.grid < 2:
            raise _UsageError(f"--grid must be at least 2, got {args.grid}")
        with warnings.catch_warnings():
            # conditioning notes are for library callers; stderr keeps to error lines
            warnings.simplefilter("ignore", ConditioningWarning)
            return _COMMANDS[args.command](args)
    except (_UsageError, DescriptorError, DomainError, ConstructionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RoiAuctionError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
