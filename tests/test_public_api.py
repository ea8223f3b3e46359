"""The package's public surface, pinned: adding or removing a name is a reviewed edit here."""

import roi_auction

PUBLIC_API = (
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
)


def test_all_is_the_pinned_sorted_surface():
    assert PUBLIC_API == tuple(sorted(set(PUBLIC_API)))
    assert len(PUBLIC_API) == 49
    assert tuple(roi_auction.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in roi_auction.__all__:
        assert getattr(roi_auction, name) is not None, name
