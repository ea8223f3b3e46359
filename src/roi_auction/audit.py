"""Grid-based incentive audits of mechanisms, each given as a ``PaymentSchedule``.

The checks here are sound but grid-limited: they evaluate truthful and
misreported outcomes on finite grids (always including allocation knots,
where first-price tightness makes violations show up) and report the worst
observed violation with a witness.

Each audited mechanism's truthful outcomes, the audit grid with x and p on
it, are evaluated once: ``check_dsic`` and ``check_ir`` are wrappers over the
kernels ``_dsic`` and ``_ir``, which take those outcomes, and
``run_standard_audit``, ``uniqueness_probe`` and ``profile_audit`` hand one
evaluation to every kernel that reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .allocation import AllocationRule, MonotonicityReport, make_constant, make_step
from .errors import ConstructionError
from .payments import FEASIBILITY_TOL, PaymentSchedule, RoiTarget, payment_schedule

#: The fixed audit policy: the own-value grid, each check's pass tolerance, the
#: uniqueness probe's payment shifts (in units of max(1, vmax)), and, for a
#: profile audit, the grid of opponent bids and the grid of the payment schedule
#: derived for each induced rule.
AUDIT_GRID_N = 201
DSIC_TOL = 1e-6
IR_TOL = 1e-9
CHARACTERIZATION_TOL = 1e-9
PROBE_OFFSETS = (0.01, -0.01)
PROFILE_OPPONENT_GRID_N = 21
PROFILE_SCHEDULE_GRID_N = 2001

#: report columns per block of check_dsic's misreport search; a block is
#: evaluated only for the value rows its bounds leave open, so memory is
#: O(_DSIC_BLOCK * n) on an n-point grid
_DSIC_BLOCK = 64

#: a rule's truthful mechanism, under the name audit callers use
mechanism_for = payment_schedule


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    worst_violation: float
    witness: dict | None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "worst_violation": self.worst_violation,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks]}

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            state = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name}: {state} (worst violation {c.worst_violation:.6g})")
        overall = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {overall}")
        return "\n".join(lines)


def _verdict(name: str, violations, tol: float, witness_at: Callable[[int], dict]) -> AuditCheck:
    """The first largest violation, floored at 0, passes at or below tol; its
    witness, ``witness_at`` of its index, is named only above 0."""
    i = int(np.argmax(violations))
    worst = max(float(violations[i]), 0.0)
    return AuditCheck(name, worst <= tol, worst, witness_at(i) if worst > 0.0 else None)


def _audit_grid(mech: PaymentSchedule, grid_n: int) -> np.ndarray:
    """Evaluation points: a uniform grid (or schedule subsample) plus knots.

    Grid points inside the feasibility slack band around a knot are dropped in
    the knot's favor: a pair straddling a jump by less than the slack would
    let the lower point "feasibly" take the upper one's deal, a knife edge
    that exists only at tolerance scale.
    """
    knots = np.asarray(mech.allocation.knots())
    if mech.derived:
        base = np.linspace(0.0, mech.allocation.vmax, grid_n)
    else:
        # hand-supplied payments are defined at their own grid; audit there
        sg = mech.grid
        take = np.unique(np.linspace(0, sg.size - 1, min(grid_n, sg.size)).round().astype(int))
        base = sg[take]
    if knots.size:
        merge_tol = 10.0 * FEASIBILITY_TOL * max(1.0, mech.allocation.vmax)
        # knots are sorted, so the nearest one to each point is a searchsorted neighbour
        j = np.searchsorted(knots, base)
        below = knots[(j - 1).clip(min=0)]
        above = knots[j.clip(max=knots.size - 1)]
        gap = np.minimum(np.abs(base - below), np.abs(base - above))
        base = base[gap > merge_tol]
    return np.unique(np.concatenate([base, knots]))


def _truthful_outcomes(mech: PaymentSchedule, grid_n: int):
    """The audit grid with each point's truthful allocation and payment."""
    grid = _audit_grid(mech, grid_n)
    return grid, mech.allocation.evaluate(grid), mech.value_many(grid)


def check_dsic(mech: PaymentSchedule, grid_n: int = AUDIT_GRID_N) -> AuditCheck:
    """Worst utility gain from any feasible misreport over all ordered grid pairs."""
    return _dsic(_truthful_outcomes(mech, grid_n), mech.m.ratio)


def _dsic(outcomes, ratio: float) -> AuditCheck:
    """``check_dsic`` on truthful outcomes (grid, x, p).

    For true value v and report b the utility is ratio * (v x(b)) - p(b), and
    the report is feasible where v x(b) >= p(b) - FEASIBILITY_TOL. Reports are
    searched _DSIC_BLOCK columns at a time in ascending b. Per block, the grid
    times the block's largest x and the block's smallest payment bound every
    cell in the cells' own floating-point order (the grid is >= 0, and each
    rounding is monotone), so a value row skips a block that holds no feasible
    report, cannot reach the truthful utility, or cannot beat the row's best
    so far. Live rows are evaluated exactly, and a later block takes a row
    only with a strictly larger maximum, so ties stay at the lowest b: the
    result is bitwise that of the full value-by-report matrices.
    """
    grid, x, p = outcomes
    p_floor = p - FEASIBILITY_TOL
    vx_truth = grid * x
    truth_feas = vx_truth >= p_floor
    u_truth = ratio * vx_truth - p
    # the best report's utility is at least the truthful one, where truth is feasible
    lower = np.where(truth_feas, u_truth, -np.inf)
    best = np.full_like(grid, -np.inf)
    best_at = np.zeros(grid.size, dtype=np.intp)
    starts = np.arange(0, grid.size, _DSIC_BLOCK)
    x_top = np.maximum.reduceat(x, starts)
    p_low = np.minimum.reduceat(p, starts)
    floor_low = np.minimum.reduceat(p_floor, starts)
    for start, xt, pl, fl in zip(starts.tolist(), x_top, p_low, floor_low):
        hi = grid * xt
        ub = ratio * hi - pl
        # written as a negation, so a NaN bound keeps its row live
        live = np.flatnonzero(~((hi < fl) | (ub < lower) | (ub <= best)))
        if not live.size:
            continue
        cols = slice(start, start + _DSIC_BLOCK)
        util = np.multiply.outer(grid[live], x[cols])
        feas = util >= p_floor[cols]
        util *= ratio
        util -= p[cols]
        np.copyto(util, -np.inf, where=~feas)
        at = util.argmax(axis=1)
        top = util[np.arange(live.size), at]
        gain = top > best[live]
        rows = live[gain]
        best[rows] = top[gain]
        best_at[rows] = start + at[gain]
    # a gain past the float range is an infinite one, which fails as it should
    with np.errstate(over="ignore"):
        gains = np.where(truth_feas, best - u_truth, np.inf)
    # no feasible report at all, truthful or not: nothing to gain
    gains = np.where(~truth_feas & ~(best > -np.inf), 0.0, gains)
    return _verdict(
        "dsic", gains, DSIC_TOL, lambda i: {"v": float(grid[i]), "b": float(grid[int(best_at[i])])}
    )


def check_ir(mech: PaymentSchedule) -> AuditCheck:
    """Truthful payments never exceed realized value v * x(v) (the hard constraint)."""
    return _ir(_truthful_outcomes(mech, AUDIT_GRID_N))


def _ir(outcomes) -> AuditCheck:
    """``check_ir`` on truthful outcomes (grid, x, p)."""
    grid, x, p = outcomes
    return _verdict("ir", p - grid * x, IR_TOL, lambda i: {"v": float(grid[i])})


def check_characterization(mech: PaymentSchedule) -> AuditCheck:
    """Payments must match the rebate formula for the rule, and the rule be monotone."""
    return _characterization(mech, mech.allocation.check_monotone(grid_n=AUDIT_GRID_N))


def _characterization(mech: PaymentSchedule, mono: MonotonicityReport) -> AuditCheck:
    """``check_characterization`` given the rule's ``check_monotone`` report."""
    ref = payment_schedule(mech.allocation, mech.m, grid_n=AUDIT_GRID_N)
    recomputed = ref.value_many(mech.grid)
    gaps = np.abs(mech.payments - recomputed)
    gap_i = int(np.argmax(gaps))
    gap = float(gaps[gap_i])
    passed = gap <= CHARACTERIZATION_TOL and mono.passed
    worst = max(gap, mono.worst_violation)
    witness = None
    if not passed:
        witness = {
            "payment_gap": gap,
            "payment_gap_at": float(mech.grid[gap_i]),
            "monotone": mono.passed,
            "monotone_violation_at": mono.at_v,
        }
    return AuditCheck("characterization", passed, worst, witness)


def uniqueness_probe(mech: PaymentSchedule) -> AuditCheck:
    """Shifting payments on the top half of the grid must break DSIC or the constraint.

    ``PROBE_OFFSETS`` are in units of max(1, vmax). Payments reach up to v x <= vmax,
    so an absolute shift would vanish in their rounding at large vmax; below 1
    the unit stays 1, so the shift stays above the audits' absolute tolerances.
    The witness lists the offsets in those units.

    Each probe is a hand schedule on ``mech``'s grid with its rule, so all of
    them share one audit grid and one x on it; only the payments there, each
    probe's own interpolation, differ. A probe goes uncaught when it passes
    both ``_ir`` and ``_dsic``, and ``_dsic`` runs only once ``_ir`` has passed.
    """
    vmax = mech.allocation.vmax
    mask = mech.grid >= vmax / 2.0
    probes = []
    for off in PROBE_OFFSETS:
        perturbed = mech.payments.copy()
        perturbed[mask] += off * max(1.0, vmax)
        probes.append(PaymentSchedule.hand(mech.allocation, mech.m, mech.grid, perturbed))
    grid = _audit_grid(probes[0], AUDIT_GRID_N)
    x = mech.allocation.evaluate(grid)
    uncaught: list[float] = []
    for off, probe in zip(PROBE_OFFSETS, probes):
        outcomes = (grid, x, probe.value_many(grid))
        if _ir(outcomes).passed and _dsic(outcomes, mech.m.ratio).passed:
            uncaught.append(off)
    witness = {"offsets": list(PROBE_OFFSETS), "uncaught": uncaught}
    return AuditCheck("uniqueness_probe", not uncaught, float(len(uncaught)), witness)


def run_standard_audit(mech: PaymentSchedule) -> AuditReport:
    """The audit battery used by the command-line front end.

    The rule's monotonicity is checked once, for its own line and for the
    characterization, and the truthful outcomes are evaluated once, for DSIC
    and IR; the uniqueness probe evaluates its shifted schedules on their own
    grid. Every verdict is that of the public checks run one by one.
    """
    mono = mech.allocation.check_monotone(grid_n=AUDIT_GRID_N)
    outcomes = _truthful_outcomes(mech, AUDIT_GRID_N)
    checks = (
        AuditCheck(
            "monotone",
            mono.passed,
            mono.worst_violation,
            None if mono.passed else {"at_v": mono.at_v},
        ),
        _characterization(mech, mono),
        _dsic(outcomes, mech.m.ratio),
        _ir(outcomes),
        uniqueness_probe(mech),
    )
    return AuditReport(checks)


ProfileFactory = Callable[[int, tuple[float, ...]], AllocationRule]


def profile_audit(
    factory: ProfileFactory,
    ms: Sequence[RoiTarget],
    vmax: float = 1.0,
) -> AuditReport:
    """Audit a multi-bidder rule bidder-by-bidder across opponent bid profiles.

    ``factory(i, opponent_bids)`` must return the allocation curve bidder i
    faces as a function of its own bid when the others bid as given, each on
    a ``PROFILE_OPPONENT_GRID_N``-point grid over [0, vmax]. Each induced
    single-bidder mechanism (bidder i's target, payments on a
    ``PROFILE_SCHEDULE_GRID_N``-point schedule) gets ``check_dsic`` and
    ``check_ir``; non-monotone induced curves are reported without deriving
    payments for them.

    The factory is called for every profile, but each distinct induced
    (rule, target) pair is audited once per call, on one evaluation of its
    truthful outcomes: rules and targets are frozen and compare by value, and
    many profiles induce the same curve (under ``highest_bid_wins`` it depends
    only on the top opponent bid). Each profile keeps its pair's audit, and
    each check's violations are laid out in profile order, so a witness names
    the first profile that reaches the worst violation.
    """
    n = len(ms)
    if n < 2:
        raise ConstructionError("profile audits need at least two bidders")
    if n > 3:
        raise ConstructionError("profile audits support at most three bidders")
    opponents = np.linspace(0.0, vmax, PROFILE_OPPONENT_GRID_N).tolist()
    # per audited pair, each check's (violation, witness of the induced audit)
    audits: dict[tuple[AllocationRule, RoiTarget], tuple[tuple[float, dict | None], ...]] = {}
    rows = []
    for i in range(n):
        for bids in itertools.product(opponents, repeat=n - 1):
            rule = factory(i, bids)
            key = (rule, ms[i])
            found = audits.get(key)
            if found is None:
                found = audits[key] = _induced_audit(rule, ms[i])
            rows.append((i, bids, found))
    tols = {"profile_monotone": 0.0, "profile_dsic": DSIC_TOL, "profile_ir": IR_TOL}
    checks = []
    for c, (name, tol) in enumerate(tols.items()):

        def named(j: int, c=c) -> dict:
            i, bids, found = rows[j]
            return {"bidder": i, "opponents": list(bids), **(found[c][1] or {})}

        violations = np.asarray([found[c][0] for _, _, found in rows])
        checks.append(_verdict(name, violations, tol, named))
    return AuditReport(tuple(checks))


def _induced_audit(rule: AllocationRule, m: RoiTarget) -> tuple[tuple[float, dict | None], ...]:
    """(violation, witness) of one induced pair's monotone, DSIC and IR checks.

    A non-monotone curve has no payments to check; its DSIC and IR read 0.
    """
    mono = rule.check_monotone(grid_n=AUDIT_GRID_N)
    if not mono.passed:
        return (mono.worst_violation, None), (0.0, None), (0.0, None)
    mech = payment_schedule(rule, m, grid_n=PROFILE_SCHEDULE_GRID_N)
    outcomes = _truthful_outcomes(mech, AUDIT_GRID_N)
    dsic, ir = _dsic(outcomes, m.ratio), _ir(outcomes)
    return (0.0, None), (dsic.worst_violation, dsic.witness), (ir.worst_violation, ir.witness)


def highest_bid_wins(vmax: float = 1.0) -> ProfileFactory:
    """Demo profile rule: the top bid takes the item, ties included.

    An opponent bid of exactly vmax leaves bidder i no winning report; the
    induced curve is the null rule (the knife-edge tie at the top is
    irrelevant to grid audits).
    """

    def factory(i: int, opponent_bids: tuple[float, ...]) -> AllocationRule:
        top = max(opponent_bids) if opponent_bids else 0.0
        if top >= vmax:
            return make_constant(0.0, vmax)
        return make_step(top, vmax)

    return factory
