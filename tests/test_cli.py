import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roi_auction
from roi_auction import RoiTarget, make_power_ramp, make_step, payment_schedule
from roi_auction.cli import main

UNIFORM_DESC = {"kind": "uniform", "vmax": 1.0}
TRIANGULAR_DESC = {
    "kind": "piecewise_linear_density",
    "vmax": 1.0,
    "breakpoints": [0.0, 1.0],
    "densities": [2.0, 0.0],
}
STEP_DESC = {
    "vmax": 1.0,
    "segments": [
        {"lo": 0.0, "hi": 0.4, "shape": {"type": "constant", "level": 0.0}},
        {"lo": 0.4, "hi": 1.0, "shape": {"type": "constant", "level": 1.0}},
    ],
}
DECREASING_DESC = {
    "vmax": 1.0,
    "segments": [
        {"lo": 0.0, "hi": 0.5, "shape": {"type": "constant", "level": 1.0}},
        {"lo": 0.5, "hi": 1.0, "shape": {"type": "constant", "level": 0.5}},
    ],
}


def _write(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture()
def uniform_file(tmp_path):
    return _write(tmp_path, "uniform.json", UNIFORM_DESC)


@pytest.fixture()
def triangular_file(tmp_path):
    return _write(tmp_path, "triangular.json", TRIANGULAR_DESC)


@pytest.fixture()
def step_file(tmp_path):
    return _write(tmp_path, "step.json", STEP_DESC)


def test_dmr_check_text_and_exit_codes(uniform_file, triangular_file, capsys):
    assert main(["dmr-check", uniform_file]) == 0
    assert "pass" in capsys.readouterr().out
    assert main(["dmr-check", triangular_file]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_dmr_check_structured_formats(uniform_file, capsys):
    assert main(["dmr-check", uniform_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert main(["dmr-check", uniform_file, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("passed,worst_drop")
    assert len(lines) == 2


def test_solve_writes_solution_and_schedule(uniform_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert main(["solve", uniform_file, "--m", "2", "--out", str(out)]) == 0
    printed = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    assert float(printed["D"]) == pytest.approx(0.75, abs=1e-8)
    assert printed["boundary_case"] == "interior_root"
    assert float(printed["revenue"]) == pytest.approx(0.375, abs=1e-8)

    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"D", "boundary_case", "revenue", "allocation", "schedule_csv_path"}
    assert data["D"] == pytest.approx(0.75, abs=1e-9)
    csv_path = tmp_path / "sol_schedule.csv"
    assert str(csv_path) == data["schedule_csv_path"]
    first_line = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "v,x,p_myerson,p_roi,rebate"


def test_solve_reruns_are_byte_identical(uniform_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    argv = ["solve", uniform_file, "--m", "2", "--out", str(out)]
    assert main(argv) == 0
    stdout_one = capsys.readouterr().out
    json_one = out.read_bytes()
    csv_one = (tmp_path / "sol_schedule.csv").read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout_one
    assert out.read_bytes() == json_one
    assert (tmp_path / "sol_schedule.csv").read_bytes() == csv_one


def test_solve_default_output_names(uniform_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", uniform_file, "--m", "2"]) == 0
    assert (tmp_path / "solution.json").exists()
    assert (tmp_path / "solution_schedule.csv").exists()


def test_solve_refuses_failing_precondition(triangular_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", triangular_file, "--m", "2"]) == 1
    assert "check failed" in capsys.readouterr().err


def test_solve_usage_errors(uniform_file, capsys):
    assert main(["solve", uniform_file]) == 2
    assert "--m" in capsys.readouterr().err
    assert main(["solve", uniform_file, "--m", "1.0"]) == 2
    assert main(["solve", uniform_file, "--m", "0.5"]) == 2
    assert main(["solve", uniform_file, "--m", "2", "--grid", "1"]) == 2


def test_solved_allocation_reads_back_as_monotone(uniform_file, tmp_path, capsys):
    # the ramp scale is written at full precision; at 12 digits it overshot 1 at D
    out = tmp_path / "sol.json"
    assert main(["solve", uniform_file, "--m", "2", "--grid", "501", "--out", str(out)]) == 0
    rule = _write(tmp_path, "rule.json", json.loads(out.read_text(encoding="utf-8"))["allocation"])
    capsys.readouterr()
    assert main(["payment-table", rule, "--m", "2", "--grid", "501"]) == 0
    assert main(["audit", rule, "--m", "2", "--grid", "501"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def _single_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_ratio_too_close_to_one_is_unusable_input(command, uniform_file, tmp_path, capsys):
    # c = 1e7: the ramp scale D^-c overflows a float
    argv = [command, uniform_file, "--m", "1.0000001", "--mc-samples", "100"]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert "too close to 1" in _single_error_line(capsys)


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_huge_vmax_is_unusable_input(command, tmp_path, capsys):
    # the density no longer overflows, but H(D) = D^2 G(D) would at ratio 2
    desc = {"kind": "power_cdf", "vmax": 1e300, "exponent": 2.0}
    path = _write(tmp_path, "huge.json", desc)
    assert main(["dmr-check", path]) == 0
    argv = [command, path, "--m", "2", "--mc-samples", "100", "--out", str(tmp_path / "o.json")]
    assert main(argv) == 2
    assert "overflows" in _single_error_line(capsys)


@pytest.mark.parametrize("tol", ["inf", "0", "-1", "nan"])
def test_unusable_solver_tolerance_is_unusable_input(tol, tmp_path, capsys):
    # --tol inf printed a wrong D with exit 0; 0, -1 and nan exited 1
    path = _write(tmp_path, "power.json", {"kind": "power_cdf", "vmax": 1.0, "exponent": 2.0})
    out = str(tmp_path / "sol.json")
    assert main(["solve", path, "--m", "2", f"--tol={tol}", "--out", out]) == 2
    assert "tolerance" in _single_error_line(capsys)
    assert main(["example1", f"--tol={tol}"]) == 2
    assert "tolerance" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "ratio", ["abc", [2], {}, 10**400], ids=["string", "list", "object", "huge_int"]
)
def test_non_numeric_file_ratio_is_unusable_input(ratio, tmp_path, capsys):
    path = _write(tmp_path, "mech.json", {"allocation": STEP_DESC, "m": ratio})
    assert main(["audit", path]) == 2
    assert "'m' must be a number" in _single_error_line(capsys)


def test_file_ratio_at_or_below_one_names_the_range(tmp_path, capsys):
    path = _write(tmp_path, "mech.json", {"allocation": STEP_DESC, "m": 0.5})
    assert main(["audit", path]) == 2
    assert "1 < ratio < inf" in _single_error_line(capsys)


@pytest.mark.parametrize("ratio", ["1e5", "1e6"])
def test_audit_passes_honest_ramp_at_large_ratio(ratio, tmp_path, capsys):
    path = _write(tmp_path, "ramp.json", make_power_ramp(0.75, 2.0).descriptor())
    assert main(["audit", path, "--m", ratio]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_module_entry_point_runs(uniform_file, tmp_path):
    src = str(Path(roi_auction.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "sol.json"
    argv = [sys.executable, "-m", "roi_auction.cli", "solve", uniform_file, "--m", "2"]
    done = subprocess.run(
        argv + ["--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "D = 0.75" in done.stdout
    assert out.exists() and (tmp_path / "sol_schedule.csv").exists()


def test_steep_ratio_keeps_stderr_clean(uniform_file, tmp_path):
    # ratio 1.01 gives ramp exponent 100, which the library flags with a ConditioningWarning
    src = str(Path(roi_auction.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "roi_auction.cli", "solve", uniform_file, "--m", "1.01"]
    done = subprocess.run(
        argv + ["--out", str(tmp_path / "sol.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""


def test_unreadable_inputs_are_usage_errors(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["dmr-check", str(broken)]) == 2
    assert main(["dmr-check", str(tmp_path / "missing.json")]) == 2
    unknown = _write(tmp_path, "unknown.json", {"kind": "zipf", "vmax": 1.0})
    assert main(["dmr-check", unknown]) == 2
    assert "error:" in capsys.readouterr().err


def test_payment_table_formats(step_file, capsys):
    assert main(["payment-table", step_file, "--m", "2", "--grid", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "v,x,p_myerson,p_roi,rebate"
    assert len(lines) == 7  # five grid points plus the jump knot
    assert main(["payment-table", step_file, "--m", "2", "--grid", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"v", "x", "p_myerson", "p_roi", "rebate"}
    assert len(data["v"]) == 6
    assert data["p_roi"][-1] == pytest.approx(0.4, abs=1e-12)


def test_payment_table_rejects_decreasing_rule(tmp_path, capsys):
    path = _write(tmp_path, "decreasing.json", DECREASING_DESC)
    assert main(["payment-table", path, "--m", "2"]) == 1
    assert "payments are undefined" in capsys.readouterr().err


def test_audit_accepts_derived_mechanisms(step_file, tmp_path, capsys):
    assert main(["audit", step_file, "--m", "2"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    mech = _write(tmp_path, "mech.json", {"allocation": STEP_DESC, "m": 2.0})
    assert main(["audit", mech, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in data["checks"])


def test_audit_requires_some_ratio(step_file, capsys):
    assert main(["audit", step_file]) == 2
    assert "--m" in capsys.readouterr().err


def test_audit_flags_tampered_schedule(tmp_path, capsys):
    sched = payment_schedule(make_step(0.4, 1.0), RoiTarget(2.0), grid_n=5)
    halved = {
        "allocation": STEP_DESC,
        "m": 2.0,
        "schedule": {
            "grid": sched.grid.tolist(),
            "payments": [0.5 * p for p in sched.payments.tolist()],
        },
    }
    path = _write(tmp_path, "halved.json", halved)
    assert main(["audit", path]) == 1
    assert "FAIL" in capsys.readouterr().out

    honest = {
        "allocation": STEP_DESC,
        "m": 2.0,
        "schedule": {"grid": sched.grid.tolist(), "payments": sched.payments.tolist()},
    }
    path = _write(tmp_path, "honest.json", honest)
    assert main(["audit", path]) == 0


@pytest.mark.parametrize("array", ["grid", "payments"])
@pytest.mark.parametrize("literal", [float("nan"), float("inf")])
def test_non_finite_schedule_is_unusable_input(array, literal, tmp_path, capsys):
    sched = payment_schedule(make_step(0.4, 1.0), RoiTarget(2.0), grid_n=5)
    data = {"grid": sched.grid.tolist(), "payments": sched.payments.tolist()}
    data[array][2] = literal  # json writes NaN / Infinity literals
    path = _write(tmp_path, "bad.json", {"allocation": STEP_DESC, "m": 2.0, "schedule": data})
    assert main(["audit", path]) == 2
    assert "finite" in _single_error_line(capsys)


def test_audit_schedule_shape_validation(tmp_path, capsys):
    bad_grid = {
        "allocation": STEP_DESC,
        "m": 2.0,
        "schedule": {"grid": [0.1, 0.5, 1.0], "payments": [0.0, 0.0, 0.0]},
    }
    assert main(["audit", _write(tmp_path, "a.json", bad_grid)]) == 2
    lengths = {
        "allocation": STEP_DESC,
        "m": 2.0,
        "schedule": {"grid": [0.0, 1.0], "payments": [0.0]},
    }
    assert main(["audit", _write(tmp_path, "b.json", lengths)]) == 2
    extra = {"allocation": STEP_DESC, "m": 2.0, "unexpected": 1}
    assert main(["audit", _write(tmp_path, "c.json", extra)]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_formats_and_determinism(uniform_file, capsys):
    argv = [
        "compare",
        uniform_file,
        "--m",
        "2",
        "--mc-samples",
        "2000",
        "--grid",
        "2001",
        "--format",
        "csv",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0] == "name,threshold,rev_quad,rev_mc,stderr"
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    assert main(argv[:-2] + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in data["rows"]] == ["posted_price", "roi_optimal"]


def test_example1_prints_frozen_line(capsys):
    assert main(["example1"]) == 0
    out = capsys.readouterr().out
    assert out == "Myerson: 0.250000, ROI-optimal: 0.375000, D = 0.750000, audit: PASS\n"


def test_env_grid_override(step_file, monkeypatch, capsys):
    monkeypatch.setenv("ROI_AUCTION_DEFAULT_GRID", "5")
    assert main(["payment-table", step_file, "--m", "2", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["v"]) == 6
    monkeypatch.setenv("ROI_AUCTION_DEFAULT_GRID", "1")
    assert main(["payment-table", step_file, "--m", "2"]) == 2
    monkeypatch.setenv("ROI_AUCTION_DEFAULT_GRID", "many")
    assert main(["payment-table", step_file, "--m", "2"]) == 2
    assert "ROI_AUCTION_DEFAULT_GRID" in capsys.readouterr().err


def test_out_flag_redirects_reports(uniform_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["dmr-check", uniform_file, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text(encoding="utf-8"))["passed"] is True


def test_argparse_problems_use_exit_code_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["dmr-check"]) == 2
    assert main(["example1", "--format", "yaml"]) == 2
    capsys.readouterr()
