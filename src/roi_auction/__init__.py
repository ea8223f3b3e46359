"""Mechanism design toolkit for bidders with a hard return-on-investment target.

The package covers the single-bidder pipeline end to end: value
distributions and their marginal-revenue curves, monotone allocation rules,
the truthful payment rule a monotone allocation pins down under the return
constraint, the revenue-optimal threshold mechanism, and grid audits that
check any of it after the fact.
"""

from .allocation import (
    AllocationRule,
    MonotonicityReport,
    Segment,
    allocation_from_descriptor,
    make_constant,
    make_piecewise_constant,
    make_power_ramp,
    make_step,
    make_table,
)
from .audit import (
    AuditCheck,
    AuditReport,
    check_characterization,
    check_dsic,
    check_ir,
    highest_bid_wins,
    profile_audit,
    run_standard_audit,
    structural_audit,
    uniqueness_probe,
)
from .distributions import (
    DmrReport,
    PiecewiseLinearDensity,
    PowerCdfDistribution,
    TabulatedCdf,
    UniformDistribution,
    ValueDistribution,
    distribution_from_descriptor,
)
from .errors import (
    ConditioningWarning,
    ConstructionError,
    DescriptorError,
    DomainError,
    PreconditionError,
    QuadratureError,
    RoiAuctionError,
)
from .optimal import (
    BoundaryCase,
    OptimalSolution,
    optimal_mechanism,
    solve_threshold,
    threshold_integral,
)
from .payments import (
    DEFAULT_GRID_N,
    PaymentSchedule,
    RoiTarget,
    payment_schedule,
)
from .revenue import (
    ComparisonRow,
    ComparisonTable,
    RevenueEstimate,
    compare,
    expected_revenue_mc,
    expected_revenue_quadrature,
    myerson_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationRule",
    "AuditCheck",
    "AuditReport",
    "BoundaryCase",
    "ComparisonRow",
    "ComparisonTable",
    "ConditioningWarning",
    "ConstructionError",
    "DEFAULT_GRID_N",
    "DescriptorError",
    "DmrReport",
    "DomainError",
    "MonotonicityReport",
    "OptimalSolution",
    "PaymentSchedule",
    "PiecewiseLinearDensity",
    "PowerCdfDistribution",
    "PreconditionError",
    "QuadratureError",
    "RevenueEstimate",
    "RoiAuctionError",
    "RoiTarget",
    "Segment",
    "TabulatedCdf",
    "UniformDistribution",
    "ValueDistribution",
    "allocation_from_descriptor",
    "check_characterization",
    "check_dsic",
    "check_ir",
    "compare",
    "distribution_from_descriptor",
    "expected_revenue_mc",
    "expected_revenue_quadrature",
    "highest_bid_wins",
    "make_constant",
    "make_piecewise_constant",
    "make_power_ramp",
    "make_step",
    "make_table",
    "myerson_baseline",
    "optimal_mechanism",
    "payment_schedule",
    "profile_audit",
    "run_standard_audit",
    "solve_threshold",
    "structural_audit",
    "threshold_integral",
    "uniqueness_probe",
]
