"""Per-layer tracing by wrapping roi_auction's public functions from outside.

Each wrapped function is replaced wherever its callers look it up: module
functions in every roi_auction module that holds a reference to the same
object (so `from .numerics import adaptive_simpson` inside optimal is
covered), methods on the class that defines them. A span records name,
start, end and parent; self time is a span's duration minus the time its
child spans cover. Spans and counts stay in memory until the run writes
them out.

Functions called per integrand point (psi, allocation evaluation) are only
counted. PaymentSchedule.value_many is timed as a light span: it adds to the
totals and to its parent's child time but keeps no record, because the
revenue quadrature calls it hundreds of thousands of times.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

#: per-layer metric name -> (unit, better); the order is the report order
METRICS = {
    "distributions.psi_calls": ("count", "lower"),
    "distributions.check_dmr_s": ("s", "lower"),
    "distributions.quantile_s": ("s", "lower"),
    "numerics.simpson_calls": ("count", "lower"),
    "numerics.integrand_evals": ("count", "lower"),
    "numerics.simpson_s": ("s", "lower"),
    "optimal.solve_threshold_s": ("s", "lower"),
    "optimal.optimal_mechanism_s": ("s", "lower"),
    "allocation.evaluate_calls": ("count", "lower"),
    "allocation.prefix_integral_calls": ("count", "lower"),
    "payments.payment_schedule_s": ("s", "lower"),
    "payments.schedule_points": ("count", "lower"),
    "payments.value_many_calls": ("count", "lower"),
    "payments.value_many_points": ("count", "lower"),
    "payments.value_many_s": ("s", "lower"),
    "payments.write_csv_s": ("s", "lower"),
    "revenue.quadrature_s": ("s", "lower"),
    "revenue.mc_s": ("s", "lower"),
    "audit.check_dsic_s": ("s", "lower"),
    "audit.check_dsic_cells": ("count", "lower"),
    "audit.check_dsic_bytes": ("bytes", "lower"),
    "audit.check_ir_s": ("s", "lower"),
    "audit.characterization_s": ("s", "lower"),
    "audit.uniqueness_probe_s": ("s", "lower"),
    "audit.profile_audit_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: check_dsic keeps three float64 n x n matrices (v x, utility, feasible
#: utility) and one boolean one alive at once; bytes are computed from the
#: size of the grid it audits, not measured
DSIC_BYTES_PER_CELL = 3 * 8 + 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, keep: bool = True) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        self.counts[name + ".calls"] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if keep:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None))

    def metrics(self) -> dict[str, float]:
        c, t, s = self.counts, self.total_s, self.self_s
        return {
            "distributions.psi_calls": c["psi"],
            "distributions.check_dmr_s": t["distributions.check_dmr"],
            "distributions.quantile_s": t["distributions.quantile"],
            "numerics.simpson_calls": c["numerics.adaptive_simpson.calls"],
            "numerics.integrand_evals": c["integrand"],
            "numerics.simpson_s": t["numerics.adaptive_simpson"],
            "optimal.solve_threshold_s": s["optimal.solve_threshold"],
            "optimal.optimal_mechanism_s": t["optimal.optimal_mechanism"],
            "allocation.evaluate_calls": c["evaluate"],
            "allocation.prefix_integral_calls": c["prefix_integral"],
            "payments.payment_schedule_s": t["payments.payment_schedule"],
            "payments.schedule_points": c["schedule_points"],
            "payments.value_many_calls": c["payments.value_many.calls"],
            "payments.value_many_points": c["value_many_points"],
            "payments.value_many_s": t["payments.value_many"],
            "payments.write_csv_s": t["payments.write_csv"],
            "revenue.quadrature_s": t["revenue.quadrature"],
            "revenue.mc_s": t["revenue.mc"],
            "audit.check_dsic_s": t["audit.check_dsic"],
            "audit.check_dsic_cells": c["dsic_cells"],
            "audit.check_dsic_bytes": c["dsic_cells"] * DSIC_BYTES_PER_CELL,
            "audit.check_ir_s": t["audit.check_ir"],
            "audit.characterization_s": t["audit.characterization"],
            "audit.uniqueness_probe_s": t["audit.uniqueness_probe"],
            "audit.profile_audit_s": t["audit.profile_audit"],
            "cli.self_s": s["cli.main"],
        }

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p} for i, n, a, b, p in self.spans
            ],
            "counts": dict(self.counts),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
        }


class Patcher:
    """Installs wrappers into roi_auction and takes them out again."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "roi_auction" and not mod_name.startswith("roi_auction."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def method(self, root: type, name: str, make_wrapper) -> None:
        classes = [root]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if name in cls.__dict__:
                original = cls.__dict__[name]
                self._undo.append((cls, name, original))
                setattr(cls, name, make_wrapper(original))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _span(tracer: Tracer, name: str, keep: bool = True, after=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, keep)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    return make


def _counted(tracer: Tracer, key: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def install(api, tracer: Tracer) -> Patcher:
    """Wrap the layer boundaries of the roi_auction modules held by api."""
    import numpy as np

    p = Patcher()
    counts = tracer.counts

    def simpson(fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def integrand(x):
                counts["integrand"] += 1
                return f(x)

            frame = tracer.enter("numerics.adaptive_simpson")
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                tracer.exit(frame)

        return wrapper

    def schedule_points(args, kwargs, result):
        counts["schedule_points"] += int(result.grid.size)

    dsic_signature = inspect.signature(api.audit.check_dsic)

    def dsic_cells(args, kwargs, result):
        # the grid check_dsic builds: hand schedules are subsampled, knots join it
        bound = dsic_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid = api.audit._audit_grid(bound.arguments["mech"], bound.arguments["grid_n"])
        counts["dsic_cells"] += int(grid.size) ** 2

    def value_many_points(args, kwargs, result):
        counts["value_many_points"] += int(np.size(args[1]))

    dist_cls = api.distributions.ValueDistribution
    p.method(dist_cls, "marginal_revenue", _counted(tracer, "psi"))
    p.method(dist_cls, "check_dmr", _span(tracer, "distributions.check_dmr"))
    p.method(dist_cls, "quantile", _span(tracer, "distributions.quantile"))
    p.function(api.numerics, "adaptive_simpson", simpson)
    p.function(api.optimal, "solve_threshold", _span(tracer, "optimal.solve_threshold"))
    p.function(api.optimal, "optimal_mechanism", _span(tracer, "optimal.optimal_mechanism"))
    rule_cls = api.allocation.AllocationRule
    p.method(rule_cls, "evaluate", _counted(tracer, "evaluate"))
    p.method(rule_cls, "prefix_integral", _counted(tracer, "prefix_integral"))
    p.function(api.payments, "payment_schedule",
               _span(tracer, "payments.payment_schedule", after=schedule_points))
    sched_cls = api.payments.PaymentSchedule
    p.method(sched_cls, "value_many",
             _span(tracer, "payments.value_many", keep=False, after=value_many_points))
    p.method(sched_cls, "write_csv", _span(tracer, "payments.write_csv"))
    p.function(api.revenue, "expected_revenue_quadrature", _span(tracer, "revenue.quadrature"))
    p.function(api.revenue, "expected_revenue_mc", _span(tracer, "revenue.mc"))
    p.function(api.revenue, "myerson_baseline", _span(tracer, "revenue.myerson_baseline"))
    p.function(api.revenue, "compare", _span(tracer, "revenue.compare"))
    p.function(api.audit, "check_dsic", _span(tracer, "audit.check_dsic", after=dsic_cells))
    p.function(api.audit, "check_ir", _span(tracer, "audit.check_ir"))
    p.function(api.audit, "check_characterization", _span(tracer, "audit.characterization"))
    p.function(api.audit, "uniqueness_probe", _span(tracer, "audit.uniqueness_probe"))
    p.function(api.audit, "run_standard_audit", _span(tracer, "audit.run_standard_audit"))
    p.function(api.audit, "profile_audit", _span(tracer, "audit.profile_audit"))
    p.function(api.cli, "main", _span(tracer, "cli.main"))
    return p
