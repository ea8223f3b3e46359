#!/usr/bin/env python3
"""Benchmark of roi_auction, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ./src.
One process, one caller, closed loop: each operation starts when the
previous one has returned. Operations run in whole rounds until --seconds
have passed (the round boundary nearest to it, and two rounds at
least). The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones: setup_s, ops_per_s,
op_p50_ms and peak_rss_mb. Their times are wall times scaled to a reference
host speed by calibration passes (hostclock.py). With --trace 1 the run makes one untraced round
and one traced round, whatever --seconds says, so that two traced runs count
the same work. It reports the per-layer metrics of the traced round and
writes them, with every span, to perfbench/out/trace-<workload>-<seed>.json.

A wrong output, or an operation that raises, makes the run exit 1 after
naming the failed check on stderr; a checkout without src/roi_auction makes it exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from types import SimpleNamespace

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: fresh interpreters that time the package import; setup_s takes their median
IMPORT_SAMPLES = 7
#: set-up runs this many times per run; setup_s adds their median
SETUP_REPEATS = 5
#: package modules the workloads and the tracer use, imported in process and by the probe
MODULES = ("allocation", "audit", "cli", "distributions", "errors", "numerics", "optimal", "payments", "revenue")

IMPORT_PROBE = f"""
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import {", ".join("roi_auction." + m for m in MODULES)}
print(time.perf_counter() - start)
"""

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package() -> SimpleNamespace:
    # numpy's BLAS stays single-threaded, so the process keeps within two threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # the payment grid must be the package default on every run
    os.environ.pop("ROI_AUCTION_DEFAULT_GRID", None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        api = SimpleNamespace(**{m: importlib.import_module(f"roi_auction.{m}") for m in MODULES})
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import roi_auction from {src}: {exc}\n")
        raise SystemExit(2)
    where = Path(api.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        sys.stderr.write(f"error: roi_auction was imported from {where}, not from {src}\n")
        raise SystemExit(2)
    # ratio 1.01 warns on purpose; a warning printed once would also make reruns differ
    warnings.simplefilter("ignore", api.errors.ConditioningWarning)
    return api


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter, as each CLI call pays it."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = hostclock.calibration_pass()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=60)
        samples.append(hostclock.scaled(float(out.stdout), before, hostclock.calibration_pass()))
    return statistics.median(samples)


class Outcomes:
    """Operation timings plus the first output per input and a digest of every rerun.

    Durations are in reference seconds (hostclock.py). The calibration pass
    after one operation is also the pass before the next.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.last_pass: float | None = None
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, tuple] = {}  # key -> (op, output, digest)
        self.mismatch: str | None = None
        self.raised: str | None = None  # key of the first operation that raised

    def run(self, op) -> None:
        self.attempted += 1
        before = self.last_pass if self.last_pass is not None else hostclock.calibration_pass()
        start = time.perf_counter()
        try:
            raw, error = op.run(), None
        except Exception:
            raw, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        self.last_pass = hostclock.calibration_pass()
        self.durations.append(hostclock.scaled(elapsed, before, self.last_pass))
        if error is not None:
            self.failed += 1
            if self.raised is None:
                self.raised = op.key
                sys.stderr.write(f"operation {op.key} raised:\n{error}")
            return
        output = op.collect(raw)
        digest = hashlib.sha256(repr(output).encode()).hexdigest()
        if op.key not in self.first:
            self.first[op.key] = (op, output, digest)
        elif self.first[op.key][2] != digest and self.mismatch is None:
            self.mismatch = op.key

    def run_round(self, ops) -> float:
        before = len(self.durations)
        for op in ops:
            self.run(op)
        return sum(self.durations[before:])

    def verify(self, checks) -> None:
        # no workload has an operation that is expected to raise
        if self.raised is not None:
            raise checks.CheckFailed(f"{self.raised}.raised", f"{self.failed} of {self.attempted} operations raised")
        if self.mismatch is not None:
            raise checks.CheckFailed("rerun_identical", f"{self.mismatch} gave different output on a rerun")
        for op, output, _ in self.first.values():
            try:
                op.verify(output)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                # output too malformed for the named checks to read
                raise checks.CheckFailed(f"{op.key}.output_format", repr(exc)) from exc


def set_up(api, build, seed: int, workdir: Path):
    """Inputs, input files and warm-up operations of one round."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rnd = build(api, seed, workdir)
    for warm in rnd.warmup:
        warm()
    return rnd


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    api = import_package()
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            rnd, seconds = hostclock.timed(lambda: set_up(api, build, args.seed, workdir))
            setups.append(seconds)

        outcomes = Outcomes()
        if args.trace:
            untraced_s = outcomes.run_round(rnd.ops)
            tracer = tracing.Tracer()
            patcher = tracing.install(api, tracer)
            try:
                traced_s = outcomes.run_round(rnd.ops)
            finally:
                patcher.restore()
            values = tracer.metrics()
            values["trace.overhead_s"] = traced_s - untraced_s
            metrics = {k: {"value": values[k], "unit": tracing.METRICS[k][0]} for k in tracing.METRICS}
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "untraced_s": untraced_s,
                "traced_s": traced_s,
                "metrics": metrics,
                **tracer.to_json(),
            }), encoding="utf-8")
        else:
            import_s = import_seconds()
            start = time.perf_counter()
            rounds = 0
            # two rounds at least, so every input is rerun and checked for identical
            # output; then stop at the round boundary nearest to --seconds
            while True:
                last = time.perf_counter()
                outcomes.run_round(rnd.ops)
                rounds += 1
                now = time.perf_counter()
                if rounds >= 2 and now - start + 0.5 * (now - last) >= args.seconds:
                    break
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            completed = outcomes.attempted - outcomes.failed
            values = {
                "setup_s": import_s + statistics.median(setups),
                "ops_per_s": completed / sum(outcomes.durations),
                "op_p50_ms": 1000.0 * statistics.median(outcomes.durations),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

        correct = True
        try:
            outcomes.verify(checks)
        except checks.CheckFailed as exc:
            correct = False
            sys.stderr.write(f"check failed: {exc}\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
