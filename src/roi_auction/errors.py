"""Exception hierarchy shared across the package."""

from __future__ import annotations


class RoiAuctionError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RoiAuctionError, ValueError):
    """An evaluation point lies outside the supported interval."""


class ConstructionError(RoiAuctionError, ValueError):
    """Invalid arguments to a constructor (bad segments, ratios, weights, ...)."""


class DescriptorError(RoiAuctionError, ValueError):
    """A JSON descriptor is malformed: wrong kind, missing or unknown fields."""


class PreconditionError(RoiAuctionError, ValueError):
    """A documented precondition of an operation does not hold.

    Carries the diagnostic report that established the failure, when one exists.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class QuadratureError(RoiAuctionError, RuntimeError):
    """The threshold bisection stalled before its residual reached the tolerance.

    ``numerics.adaptive_simpson``, which no library path calls, raises it too.
    """

    def __init__(self, message: str, achieved_tol: float | None = None):
        super().__init__(message)
        self.achieved_tol = achieved_tol


class ConditioningWarning(UserWarning):
    """The requested parameters are numerically ill-conditioned but allowed."""
