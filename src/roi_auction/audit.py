"""Grid-based incentive audits for mechanism bundles.

The checks here are sound but grid-limited: they evaluate truthful and
misreported outcomes on finite grids (always including allocation knots,
where first-price tightness makes violations show up) and report the worst
observed violation with a witness. A bidder whose hard return constraint
fails gets no finite utility; that case is carried as an explicit sentinel,
ordered below every finite utility and never mixed into arithmetic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .allocation import AllocationRule, make_constant, make_step
from .errors import ConstructionError
from .formatting import json_ready
from .payments import DEFAULT_GRID_N, FEASIBILITY_TOL, PaymentSchedule, RoiTarget, payment_schedule

#: rows of the misreport matrices that check_dsic holds at once
_DSIC_BLOCK = 256


class Infeasible:
    """Sentinel outcome for reports violating the hard return constraint."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFEASIBLE"


INFEASIBLE = Infeasible()


def utility(v: float, x_b: float, p_b: float, m: RoiTarget):
    """ratio * v * x - p when the constraint v * x >= p holds, else the sentinel."""
    if v * x_b >= p_b - FEASIBILITY_TOL:
        return m.ratio * v * x_b - p_b
    return INFEASIBLE


@dataclass(frozen=True, eq=False)
class Mechanism:
    """Allocation rule, payment schedule and the ROI target they were built for."""

    allocation: AllocationRule
    schedule: PaymentSchedule
    m: RoiTarget

    def __post_init__(self):
        if self.schedule.m.ratio != self.m.ratio:
            raise ConstructionError("schedule and mechanism disagree on the ROI ratio")

    def allocation_at(self, v: float) -> float:
        return float(self.allocation.evaluate(v))

    def payment_at(self, v: float, side: str = "right") -> float:
        return self.schedule.value_at(v, side=side)


def mechanism_for(rule: AllocationRule, m: RoiTarget, grid_n: int = DEFAULT_GRID_N) -> Mechanism:
    """Bundle a rule with its derived truthful payments."""
    return Mechanism(rule, payment_schedule(rule, m, grid_n), m)


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

    def to_json_text(self) -> str:
        return json.dumps(json_ready(self.to_dict()), indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            state = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name}: {state} (worst violation {c.worst_violation:.6g})")
        overall = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {overall}")
        return "\n".join(lines)


def _audit_grid(mech: Mechanism, grid_n: int) -> np.ndarray:
    """Evaluation points: a uniform grid (or schedule subsample) plus knots.

    Grid points inside the feasibility slack band around a knot are dropped in
    the knot's favor: a pair straddling a jump by less than the slack would
    let the lower point "feasibly" take the upper one's deal, a knife edge
    that exists only at tolerance scale.
    """
    knots = np.asarray(mech.allocation.knots())
    if mech.schedule.derived:
        base = np.linspace(0.0, mech.allocation.vmax, grid_n)
    else:
        # hand-supplied payments are defined at their own grid; audit there
        sg = mech.schedule.grid
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


def check_dsic(mech: Mechanism, grid_n: int = 201, tol: float = 1e-6) -> AuditCheck:
    """Worst utility gain from any misreport over all ordered grid pairs.

    The value-by-report matrices are built _DSIC_BLOCK rows at a time, so
    memory stays linear in the grid size.
    """
    grid = _audit_grid(mech, grid_n)
    x = mech.allocation.evaluate(grid)
    p = mech.schedule.value_many(grid)
    ratio = mech.m.ratio
    p_floor = p - FEASIBILITY_TOL
    best = np.empty_like(grid)
    best_at = np.empty(grid.size, dtype=np.intp)
    any_feas = np.empty(grid.size, dtype=bool)
    for start in range(0, grid.size, _DSIC_BLOCK):
        rows = slice(start, start + _DSIC_BLOCK)
        vx = grid[rows, None] * x[None, :]
        feas = vx >= p_floor
        util_feas = np.where(feas, ratio * vx - p[None, :], -np.inf)
        best[rows] = util_feas.max(axis=1)
        best_at[rows] = util_feas.argmax(axis=1)
        any_feas[rows] = feas.any(axis=1)
    # the diagonal of the matrices above, in the same floating-point order
    vx_truth = grid * x
    truth_feas = vx_truth >= p_floor
    u_truth = ratio * vx_truth - p
    gains = np.where(truth_feas, best - u_truth, np.inf)
    stuck = ~truth_feas & ~any_feas
    gains = np.where(stuck, 0.0, gains)
    worst_i = int(np.argmax(gains))
    worst = max(float(gains[worst_i]), 0.0)
    witness = None
    if worst > 0.0:
        witness = {"v": float(grid[worst_i]), "b": float(grid[int(best_at[worst_i])])}
    return AuditCheck("dsic", worst <= tol, worst, witness)


def check_ir(mech: Mechanism, grid_n: int = 201, tol: float = 1e-9) -> AuditCheck:
    """Truthful payments never exceed realized value v * x(v) (the hard constraint)."""
    grid = _audit_grid(mech, grid_n)
    x = mech.allocation.evaluate(grid)
    p = mech.schedule.value_many(grid)
    viol = p - grid * x
    worst_i = int(np.argmax(viol))
    worst = max(float(viol[worst_i]), 0.0)
    witness = {"v": float(grid[worst_i])} if worst > 0.0 else None
    return AuditCheck("ir", worst <= tol, worst, witness)


def check_characterization(mech: Mechanism, grid_n: int = 201, tol: float = 1e-9) -> AuditCheck:
    """Payments must match the rebate formula for the rule, and the rule be monotone."""
    ref = payment_schedule(mech.allocation, mech.m, grid_n=max(grid_n, 201))
    recomputed = ref.value_many(mech.schedule.grid)
    gaps = np.abs(mech.schedule.payments - recomputed)
    gap_i = int(np.argmax(gaps))
    gap = float(gaps[gap_i])
    mono = mech.allocation.check_monotone(grid_n=max(grid_n, 201))
    passed = gap <= tol and mono.passed
    worst = max(gap, mono.worst_violation)
    witness = None
    if not passed:
        witness = {
            "payment_gap": gap,
            "payment_gap_at": float(mech.schedule.grid[gap_i]),
            "monotone": mono.passed,
            "monotone_violation_at": mono.at_v,
        }
    return AuditCheck("characterization", passed, worst, witness)


def uniqueness_probe(
    mech: Mechanism, offsets: Sequence[float] = (0.01, -0.01), grid_n: int = 201
) -> AuditCheck:
    """Shifting payments on the top half of the grid must break DSIC or the constraint."""
    if not offsets or any(off == 0.0 for off in offsets):
        raise ConstructionError("probe offsets must be non-zero")
    base = mech.schedule
    mask = base.grid >= mech.allocation.vmax / 2.0
    uncaught: list[float] = []
    for off in offsets:
        perturbed = base.payments.copy()
        perturbed[mask] += off
        probe = Mechanism(mech.allocation, base.with_payments(perturbed), mech.m)
        dsic = check_dsic(probe, grid_n=grid_n)
        ir = check_ir(probe, grid_n=grid_n)
        if dsic.passed and ir.passed:
            uncaught.append(float(off))
    witness = {"offsets": [float(o) for o in offsets], "uncaught": uncaught}
    return AuditCheck("uniqueness_probe", not uncaught, float(len(uncaught)), witness)


def run_standard_audit(
    mech: Mechanism,
    *,
    grid_n: int = 201,
    dsic_tol: float = 1e-6,
    ir_tol: float = 1e-9,
    characterization_tol: float = 1e-9,
    probe_offsets: Sequence[float] = (0.01, -0.01),
) -> AuditReport:
    """The audit battery used by the command-line front end."""
    mono = mech.allocation.check_monotone(grid_n=max(grid_n, 201))
    checks = (
        AuditCheck(
            "monotone",
            mono.passed,
            mono.worst_violation,
            None if mono.passed else {"at_v": mono.at_v},
        ),
        check_characterization(mech, grid_n=grid_n, tol=characterization_tol),
        check_dsic(mech, grid_n=grid_n, tol=dsic_tol),
        check_ir(mech, grid_n=grid_n, tol=ir_tol),
        uniqueness_probe(mech, offsets=probe_offsets, grid_n=grid_n),
    )
    return AuditReport(checks)


ProfileFactory = Callable[[int, tuple[float, ...]], AllocationRule]


def profile_audit(
    factory: ProfileFactory,
    ms: Sequence[RoiTarget],
    vmax: float = 1.0,
    *,
    opponent_grid_n: int = 21,
    own_grid_n: int = 201,
    tol: float = 1e-6,
    ir_tol: float = 1e-9,
    schedule_grid_n: int = 2001,
) -> AuditReport:
    """Audit a multi-bidder rule bidder-by-bidder across opponent bid profiles.

    ``factory(i, opponent_bids)`` must return the allocation curve bidder i
    faces as a function of its own bid when the others bid as given. Each
    induced single-bidder mechanism (with bidder i's target) is checked for
    truthfulness and feasibility; non-monotone induced curves are reported
    without deriving payments for them.

    The factory is called for every profile, but each distinct induced
    (rule, target) pair is audited once per call: rules and targets are
    frozen and compare by value, and many profiles induce the same curve
    (under ``highest_bid_wins`` it depends only on the top opponent bid).
    Worst violations and witnesses are taken in profile order, so a witness
    names the first profile that reaches the worst violation.
    """
    n = len(ms)
    if n < 2:
        raise ConstructionError("profile audits need at least two bidders")
    if n > 3:
        raise ConstructionError("profile audits support at most three bidders")
    opponents = np.linspace(0.0, vmax, opponent_grid_n)
    worst = {"profile_monotone": 0.0, "profile_dsic": 0.0, "profile_ir": 0.0}
    witness: dict[str, dict | None] = {k: None for k in worst}
    audited: dict[tuple[AllocationRule, RoiTarget], tuple] = {}
    for i in range(n):
        for profile in itertools.product(opponents, repeat=n - 1):
            bids = tuple(float(b) for b in profile)
            rule = factory(i, bids)
            key = (rule, ms[i])
            if key not in audited:
                mono = rule.check_monotone(grid_n=own_grid_n)
                dsic = ir = None
                if mono.passed:
                    mech = mechanism_for(rule, ms[i], grid_n=schedule_grid_n)
                    dsic = check_dsic(mech, grid_n=own_grid_n, tol=tol)
                    ir = check_ir(mech, grid_n=own_grid_n, tol=ir_tol)
                audited[key] = (mono, dsic, ir)
            mono, dsic, ir = audited[key]
            if not mono.passed:
                if mono.worst_violation > worst["profile_monotone"]:
                    worst["profile_monotone"] = mono.worst_violation
                    witness["profile_monotone"] = {"bidder": i, "opponents": list(bids)}
                continue
            if dsic.worst_violation > worst["profile_dsic"]:
                worst["profile_dsic"] = dsic.worst_violation
                witness["profile_dsic"] = {"bidder": i, "opponents": list(bids), **(dsic.witness or {})}
            if ir.worst_violation > worst["profile_ir"]:
                worst["profile_ir"] = ir.worst_violation
                witness["profile_ir"] = {"bidder": i, "opponents": list(bids), **(ir.witness or {})}
    checks = (
        AuditCheck(
            "profile_monotone",
            worst["profile_monotone"] == 0.0,
            worst["profile_monotone"],
            witness["profile_monotone"],
        ),
        AuditCheck(
            "profile_dsic", worst["profile_dsic"] <= tol, worst["profile_dsic"], witness["profile_dsic"]
        ),
        AuditCheck(
            "profile_ir", worst["profile_ir"] <= ir_tol, worst["profile_ir"], witness["profile_ir"]
        ),
    )
    return AuditReport(checks)


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
