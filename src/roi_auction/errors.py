"""Exception hierarchy shared across the package, and the one descriptor number reader."""

from __future__ import annotations

import reprlib


class RoiAuctionError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RoiAuctionError, ValueError):
    """An evaluation point lies outside the supported interval."""


class ConstructionError(RoiAuctionError, ValueError):
    """Invalid arguments to a constructor (bad segments, ratios, weights, ...)."""


class DescriptorError(RoiAuctionError, ValueError):
    """A JSON descriptor is malformed: wrong kind, missing or unknown fields."""


def descriptor_number(x, what: str) -> float:
    """A descriptor's number as a float: a JSON int or float, never a bool or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DescriptorError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise DescriptorError(f"{what} must be a number within the float range") from None


def descriptor_numbers(xs, what: str) -> tuple[float, ...]:
    """A descriptor's array (a list, or a tuple from Python) of numbers as floats."""
    if not isinstance(xs, (list, tuple)):
        raise DescriptorError(f"{what} must be a list of numbers, got {reprlib.repr(xs)}")
    return tuple(descriptor_number(x, what) for x in xs)


def descriptor_pairs(xs, what: str) -> tuple[tuple[float, float], ...]:
    """A descriptor's array of [v, y] pairs of numbers as pairs of floats."""
    pairs = isinstance(xs, (list, tuple)) and set(map(type, xs)) <= {list, tuple}
    if not (pairs and set(map(len, xs)) <= {2}):
        raise DescriptorError(f"{what} must be a list of [v, y] pairs, got {reprlib.repr(xs)}")
    flat = descriptor_numbers([x for pair in xs for x in pair], what)
    return tuple(zip(flat[::2], flat[1::2]))


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
