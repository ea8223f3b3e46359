"""Command-line front end.

Exit codes: 0 when the requested computation or check passes, 1 when a
well-formed input fails a check (non-DMR distribution, failing audit,
mismatched worked example), 2 for unusable input (bad JSON, unknown fields,
ratio at or below 1 or at 2**51 and above, bad flag values, a flag the command
does not take, an ``--out`` that cannot be written). Output is deterministic:
rerunning a command reproduces its bytes. Floats render at 12 significant
digits; README lists the outputs that print more or fewer.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path
from typing import IO, Any, Callable, Sequence

import numpy as np

from .allocation import allocation_from_descriptor
from .audit import run_standard_audit
from .distributions import UniformDistribution, distribution_from_descriptor
from .errors import (
    ConditioningWarning,
    ConstructionError,
    DescriptorError,
    DomainError,
    RoiAuctionError,
    descriptor_number,
    descriptor_numbers,
)
from .optimal import optimal_mechanism
from .payments import DEFAULT_GRID_N, PaymentSchedule, RoiTarget, _g12_blocks, payment_schedule
from .revenue import compare as compare_mechanisms
from .revenue import expected_revenue_quadrature, myerson_baseline


def fmt(x: float) -> str:
    """Fixed 12-significant-digit rendering, the package-wide float format.

    The schedule CSV and ``columns_json`` render the same ``.12g`` spec a
    block of cells at a time with ``payments._g12_blocks``, which gives
    ``"%.12g" % x`` byte for byte: in numpy where it can prove the digits,
    and through ``%`` itself for the other cells (non-finite ones, |x| below
    1e-290 or from 1e290 up, and those within 2^-9 of a 12-digit tie).
    """
    return format(float(x), ".12g")


def json_ready(obj: Any) -> Any:
    """Deep-copy with floats rounded for output; non-finite floats become strings."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj


def json_text(data: Any) -> str:
    """Sorted, indented JSON of ``data`` with every float at 12 digits."""
    return json.dumps(json_ready(data), indent=2, sort_keys=True) + "\n"


# the %.12g cells whose text columns_json rewrites
_INTEGER_CELL = re.compile(r"\n(-?\d+)(?=\n)")
_OTHER_CELL = re.compile(r"\n(\S*e(?:\+1[2-5]|-3(?:0[89]|[12]\d))|-?inf|nan)(?=\n)")


def columns_json(columns: dict[str, np.ndarray]) -> str:
    """``json_text`` of float columns given as arrays, each column rendered at
    ``%.12g`` by ``payments._g12_blocks`` as a one-column table.

    For a finite x, ``json_text`` writes repr(float(fmt(x))). Decimals of up to
    15 significant digits read back as distinct normal floats, so repr keeps
    fmt's digits and differs only in layout: it adds ".0" to an integer and
    writes exponents 12 to 15 out in full. Those cells, cells that may be
    subnormal and non-finite ones are rewritten; every other cell is already
    its JSON text.
    """
    parts = []
    for name in sorted(columns):
        col = columns[name]
        text = "\n" + "".join(_g12_blocks(np.reshape(col, (-1, 1))))
        text = _INTEGER_CELL.sub(r"\n\1.0", text)
        text = _OTHER_CELL.sub(lambda m: "\n" + json.dumps(json_ready(float(m[1]))), text)
        items = text[1:-1].replace("\n", ",\n    ")
        parts.append(f"  {json.dumps(name)}: [\n    {items}\n  ]")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def csv_text(records: Sequence[dict]) -> str:
    """CSV headed by the first record's keys: None is empty, a float ``fmt``, the rest ``str``."""
    cols = list(records[0])
    cells = [[rec[c] for c in cols] for rec in records]
    rows = [["" if v is None else fmt(v) if isinstance(v, float) else str(v) for v in r] for r in cells]
    return "".join(",".join(row) + "\n" for row in [cols, *rows])


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


def _emit(text: str | Callable[[IO[str]], object], out: str | None) -> None:
    """Write text, or call a writer with the stream, to stdout or to the file out."""
    write = text if callable(text) else lambda fp: fp.write(text)
    if out is None:
        write(sys.stdout)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fp:
            write(fp)
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc}")


def _require_m(args) -> RoiTarget:
    if args.m is None:
        raise _UsageError("this command needs --m (the target return ratio, > 1)")
    return RoiTarget(args.m)


def _mechanism_from_file(args) -> PaymentSchedule:
    data = _load_json(args.file)
    if not isinstance(data, dict):
        raise DescriptorError("mechanism file must hold a JSON object")
    if "segments" in data:
        rule = allocation_from_descriptor(data)
        return payment_schedule(rule, _require_m(args), args.grid)
    allowed = {"allocation", "m", "schedule"}
    if "allocation" not in data or not set(data) <= allowed:
        raise DescriptorError(
            f"mechanism file needs 'allocation' plus optional 'm'/'schedule', got {sorted(data)}"
        )
    rule = allocation_from_descriptor(data["allocation"])
    ratio = args.m if args.m is not None else data.get("m")
    if ratio is None:
        raise _UsageError("no target ratio: pass --m or put an 'm' field in the file")
    m = RoiTarget(descriptor_number(ratio, "'m'"))
    if "schedule" not in data:
        return payment_schedule(rule, m, args.grid)
    sched = data["schedule"]
    if not isinstance(sched, dict) or set(sched) != {"grid", "payments"}:
        raise DescriptorError("'schedule' needs exactly 'grid' and 'payments' arrays")
    grid = descriptor_numbers(sched["grid"], "schedule 'grid'")
    payments = descriptor_numbers(sched["payments"], "schedule 'payments'")
    return PaymentSchedule.hand(rule, m, grid, payments)


def _cmd_dmr_check(args) -> int:
    dist = distribution_from_descriptor(_load_json(args.file))
    report = dist.check_dmr() if args.grid is None else dist.check_dmr(grid_n=args.grid)
    if args.format == "json":
        _emit(json_text(report.to_dict()), args.out)
    elif args.format == "csv":
        _emit(csv_text([report.to_dict()]), args.out)
    else:
        _emit(report.summary() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_solve(args) -> int:
    dist = distribution_from_descriptor(_load_json(args.file))
    m = _require_m(args)
    sol = optimal_mechanism(dist, m, grid_n=args.grid, tol=args.tol)
    named = args.out if args.out is not None else "solution.json"
    out = Path(named)
    # refused before the schedule CSV beside it is written; Path drops a trailing /
    if out.is_dir() or named.endswith((os.sep, "/")):
        raise _UsageError(f"cannot write {args.out!r}: it names a directory, not a file")
    csv_path = out.with_name(out.stem + "_schedule.csv")
    _emit(sol.schedule.write_csv, str(csv_path))
    fields = {
        **json_ready({"D": sol.threshold, "revenue": sol.expected_revenue}),
        "boundary_case": sol.boundary_case.value,
        "schedule_csv_path": str(csv_path),
        # full precision: a ramp scale cut to 12 digits overshoots 1 at D by up to
        # ~1e-11, so the rule read back would fail its monotonicity check
        "allocation": sol.schedule.allocation.descriptor(),
    }
    _emit(json.dumps(fields, indent=2, sort_keys=True) + "\n", str(out))
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
    mono = rule.check_monotone()
    if not mono.passed:
        sys.stderr.write(
            f"allocation rule decreases near v = {fmt(mono.at_v)} "
            f"(drop {fmt(mono.worst_violation)}); payments are undefined\n"
        )
        return 1
    schedule = payment_schedule(rule, m, args.grid)
    if args.format == "json":
        _emit(columns_json(schedule.columns()), args.out)
    else:
        _emit(schedule.write_csv, args.out)
    return 0


def _cmd_audit(args) -> int:
    report = run_standard_audit(_mechanism_from_file(args))
    if args.format == "json":
        _emit(json_text(report.to_dict()), args.out)
    else:
        _emit(report.summary() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    dist = distribution_from_descriptor(_load_json(args.file))
    m = _require_m(args)
    table = compare_mechanisms(dist, m, mc_samples=args.mc_samples, seed=args.seed, grid_n=args.grid)
    if args.format == "json":
        _emit(json_text(table.to_dict()), args.out)
    elif args.format == "csv":
        _emit(csv_text(table.to_dict()["rows"]), args.out)
    else:
        _emit(table.text(), args.out)
    return 0


def _cmd_example1(args) -> int:
    m = RoiTarget(args.m)
    dist = UniformDistribution(1.0)
    base = myerson_baseline(dist, m, args.grid)
    base_rev = expected_revenue_quadrature(base, dist).mean
    sol = optimal_mechanism(dist, m, grid_n=args.grid, tol=args.tol)
    audit = run_standard_audit(sol.schedule)
    verdict = "PASS" if audit.passed else "FAIL"
    line = (
        f"Myerson: {base_rev:.6f}, ROI-optimal: {sol.expected_revenue:.6f}, "
        f"D = {sol.threshold:.6f}, audit: {verdict}"
    )
    _emit(line + "\n", args.out)
    ok = (
        abs(base_rev - 0.25) <= 1e-6
        and abs(sol.expected_revenue - 0.375) <= 1e-6
        and abs(sol.threshold - 0.75) <= 1e-6
        and audit.passed
    )
    if not ok:
        sys.stderr.write("worked example drifted from its frozen values\n")
    return 0 if ok else 1


@functools.cache
def _build_parser() -> _Parser:
    # built on the first main call and reused; parse_args keeps no state between calls.
    # Each command takes only the flags it reads, so argparse refuses any other.
    parser = _Parser(prog="roi-auction", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {name: sub.add_parser(name) for name in _COMMANDS}
    grid_help = f"payment grid size (default {DEFAULT_GRID_N})"
    for name, cmd in cmds.items():
        if name != "example1":
            cmd.add_argument("file")
        if name != "dmr-check":
            m_default = 2.0 if name == "example1" else None
            cmd.add_argument("--m", type=float, default=m_default, help="target return ratio (> 1)")
            cmd.add_argument("--grid", type=int, default=DEFAULT_GRID_N, help=grid_help)
        if name in ("solve", "example1"):
            cmd.add_argument("--tol", type=float, default=1e-9, help="solver tolerance")
        cmd.add_argument("--out", help="write output here instead of stdout")
    cmds["dmr-check"].add_argument("--grid", type=int, help="DMR grid size (default 1001)")
    cmds["compare"].add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    cmds["compare"].add_argument("--mc-samples", type=int, default=100_000, help="Monte Carlo draws")
    for name, formats in (("dmr-check", "text json csv"), ("payment-table", "csv json"),
                          ("audit", "text json"), ("compare", "text json csv")):
        cmds[name].add_argument("--format", choices=formats.split(), default=formats.split()[0])
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
