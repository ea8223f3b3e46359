"""Deterministic number formatting shared by CSV, JSON and CLI output."""

from __future__ import annotations

import math
from typing import Any


def fmt(x: float) -> str:
    """Fixed 12-significant-digit rendering, the package-wide float format.

    ``PaymentSchedule.write_csv`` renders the same ``.12g`` spec through
    %-formatting, a block of rows at a time; the two give the same text.
    """
    return format(float(x), ".12g")


def json_ready(obj: Any) -> Any:
    """Deep-copy with floats rounded for output; non-finite floats become strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
        return float(fmt(obj))
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj
