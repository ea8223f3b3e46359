"""Golden CLI runs: every byte the command-line front end produces, pinned.

Each run calls ``cli.main`` in process from a scratch directory holding the
input files, and hashes its exit code, stdout, stderr, any warning raised and
every file it writes. The hashes are checked in as ``golden_cli.json``; a
change that alters any output byte of any run fails here.

Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

VMAXES = (1.0, 3.0)
RATIOS = ("1.5", "2", "5", "20")


def _distributions(vmax: float) -> dict[str, dict]:
    return {
        "uniform": {"kind": "uniform", "vmax": vmax},
        "power": {"kind": "power_cdf", "vmax": vmax, "exponent": 2.0},
        "linear": {
            "kind": "piecewise_linear_density",
            "vmax": vmax,
            "breakpoints": [0.0, vmax],
            "densities": [0.5 / vmax, 1.5 / vmax],
        },
        "tabulated": {
            "kind": "tabulated_cdf",
            "vmax": vmax,
            "points": [[0.0, 0.0], [vmax / 2, 0.3], [vmax, 1.0]],
        },
    }


def _rules(vmax: float) -> dict[str, dict]:
    t = 2 * vmax / 5
    return {
        "step": {
            "vmax": vmax,
            "segments": [
                {"lo": 0.0, "hi": t, "shape": {"type": "constant", "level": 0.0}},
                {"lo": t, "hi": vmax, "shape": {"type": "constant", "level": 1.0}},
            ],
        },
        "ramp": {
            "vmax": vmax,
            "segments": [
                {
                    "lo": 0.0,
                    "hi": 0.75 * vmax,
                    "shape": {"type": "power", "scale": 1.0 / (0.75 * vmax), "exponent": 1.0},
                },
                {"lo": 0.75 * vmax, "hi": vmax, "shape": {"type": "constant", "level": 1.0}},
            ],
        },
        "table": {
            "vmax": vmax,
            "segments": [
                {
                    "lo": 0.0,
                    "hi": vmax,
                    "shape": {
                        "type": "table",
                        "points": [[0.0, 0.0], [vmax / 2, 0.2], [vmax, 1.0]],
                    },
                }
            ],
        },
    }


def _hand_schedules(vmax: float) -> dict[str, dict]:
    # the step rule's truthful payment is its threshold, at every ratio
    rule = _rules(vmax)["step"]
    grid = [k * vmax / 5 for k in range(6)]
    honest = [0.0, 0.0] + [grid[2]] * 4
    up = honest[:3] + [p + 0.05 * vmax for p in honest[3:]]
    down = honest[:3] + [p - 0.05 * vmax for p in honest[3:]]
    return {
        name: {"allocation": rule, "m": 2, "schedule": {"grid": grid, "payments": pay}}
        for name, pay in (("honest", honest), ("raised", up), ("lowered", down))
    }


def _inputs() -> dict[str, dict]:
    files = {}
    for vmax in VMAXES:
        tag = f"{vmax:g}"
        for name, desc in _distributions(vmax).items():
            files[f"dist_{name}_{tag}.json"] = desc
        for name, desc in _rules(vmax).items():
            files[f"rule_{name}_{tag}.json"] = desc
        for name, desc in _hand_schedules(vmax).items():
            files[f"hand_{name}_{tag}.json"] = desc
    # decreasing density: fails the DMR precondition
    files["dist_falling_1.json"] = {
        "kind": "piecewise_linear_density",
        "vmax": 1.0,
        "breakpoints": [0.0, 1.0],
        "densities": [2.0, 0.0],
    }
    return files


def _runs() -> list[list[str]]:
    runs: list[list[str]] = []
    for vmax in VMAXES:
        tag = f"{vmax:g}"
        for kind in _distributions(vmax):
            dist = f"dist_{kind}_{tag}.json"
            for m in RATIOS:
                runs.append(["solve", dist, "--m", m, "--grid", "2001", "--out", "sol.json"])
            runs.append(["compare", dist, "--m", "2", "--grid", "2001", "--mc-samples", "20000"])
            runs.append(
                ["compare", dist, "--m", "5", "--grid", "2001", "--mc-samples", "20000",
                 "--format", "csv", "--seed", "3"]
            )
            runs.append(["dmr-check", dist])
        for rule in _rules(vmax):
            path = f"rule_{rule}_{tag}.json"
            for m in RATIOS:
                runs.append(["audit", path, "--m", m])
            runs.append(["audit", path, "--m", "2", "--format", "json"])
            runs.append(["payment-table", path, "--m", "1.5", "--grid", "201"])
            runs.append(["payment-table", path, "--m", "20", "--grid", "201", "--format", "csv"])
            runs.append(["payment-table", path, "--m", "2", "--grid", "51", "--format", "json"])
        for hand in _hand_schedules(vmax):
            path = f"hand_{hand}_{tag}.json"
            runs.append(["audit", path])
            runs.append(["audit", path, "--m", "5", "--format", "json"])
    runs.append(["solve", "dist_uniform_1.json", "--m", "2", "--out", "full.json"])
    for fmt in ("text", "json", "csv"):
        runs.append(["dmr-check", "dist_linear_1.json", "--format", fmt])
        runs.append(["dmr-check", "dist_falling_1.json", "--format", fmt, "--grid", "101"])
    for m in RATIOS:
        runs.append(["example1", "--m", m, "--grid", "2001"])
    runs.append(["example1"])
    # unusable input: missing ratio, ratio at 1, grid of one point
    runs.append(["solve", "dist_uniform_1.json"])
    runs.append(["audit", "rule_step_1.json", "--m", "1"])
    runs.append(["payment-table", "rule_step_1.json", "--m", "2", "--grid", "1"])
    return runs


def _digest(argv: list[str], workdir: Path, before: set[str]) -> str:
    from roi_auction.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    written = {}
    for path in sorted(workdir.iterdir()):
        if path.name not in before:
            written[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
    record = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": written,
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def compute_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, desc in _inputs().items():
            (workdir / name).write_text(json.dumps(desc), encoding="utf-8")
        before = {p.name for p in workdir.iterdir()}
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            digests = {}
            for argv in _runs():
                key = " ".join(argv)
                assert key not in digests, f"duplicate run {key}"
                digests[key] = _digest(argv, workdir, before)
        finally:
            os.chdir(cwd)
    return digests


def test_cli_outputs_match_golden_hashes():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute_digests()
    assert len(actual) >= 40
    changed = sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
    assert not changed, f"{len(changed)} CLI runs differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    digests = compute_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(digests)} run hashes to {GOLDEN}\n")
