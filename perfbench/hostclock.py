"""Wall time scaled to a fixed host speed.

The benchmark runs on a shared host whose speed drifts by up to a factor of
two over tens of seconds, in a way the guest cannot see: steal time stays at
zero and CPU time matches wall time. So every timed call is bracketed by a
calibration pass, a fixed piece of pure-Python work that does not touch
roi_auction, and its wall time is scaled by REFERENCE_PASS_S over the
mean of the two passes. A change to the package cannot change the passes, so
it moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import time

#: wall seconds of one calibration pass on the reference host (2-core KVM
#: guest, Python 3.11.7); scaled times are in seconds of that host
REFERENCE_PASS_S = 0.002
_REPEATS = 3
_LOOP = 20_000
_DESCENDING = [float(i) for i in range(_LOOP, 0, -1)]


def calibration_pass() -> float:
    """Best wall time of a few repeats of the fixed calibration work."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(_LOOP):
            total += i * i
        sorted(_DESCENDING)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds measured between two calibration passes, in reference seconds."""
    return seconds * REFERENCE_PASS_S / (0.5 * (before + after))


def timed(fn):
    """Run fn between two calibration passes; return (result, reference seconds)."""
    before = calibration_pass()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, scaled(elapsed, before, calibration_pass())
