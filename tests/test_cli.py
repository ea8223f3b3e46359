import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import roi_auction
from roi_auction import RoiTarget, make_power_ramp, make_step, payment_schedule
from roi_auction.cli import columns_json, csv_text, fmt, json_text, main
from roi_auction.payments import DEFAULT_GRID_N

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
    assert data["boundary_case"] == "interior_root"
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
    argv = [command, uniform_file, "--m", "1.0000001", "--out", str(tmp_path / "out.json")]
    assert main(argv + (["--mc-samples", "100"] if command == "compare" else [])) == 2
    assert "too close to 1" in _single_error_line(capsys)


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_huge_vmax_is_unusable_input(command, tmp_path, capsys):
    # the density no longer overflows, but H(D) = D^2 G(D) would at ratio 2
    desc = {"kind": "power_cdf", "vmax": 1e300, "exponent": 2.0}
    path = _write(tmp_path, "huge.json", desc)
    assert main(["dmr-check", path]) == 0
    argv = [command, path, "--m", "2", "--out", str(tmp_path / "o.json")]
    assert main(argv + (["--mc-samples", "100"] if command == "compare" else [])) == 2
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
    "ratio",
    ["abc", [2], {}, 10**400, "2", True],
    ids=["string", "list", "object", "huge_int", "digit_string", "bool"],
)
def test_non_numeric_file_ratio_is_unusable_input(ratio, tmp_path, capsys):
    path = _write(tmp_path, "mech.json", {"allocation": STEP_DESC, "m": ratio})
    assert main(["audit", path]) == 2
    assert "'m' must be a number" in _single_error_line(capsys)


BIG = 10**400  # json writes all 401 digits; float() overflows on it


def _one_segment_rule(shape: dict, vmax: float = 1.0) -> dict:
    return {"vmax": vmax, "segments": [{"lo": 0.0, "hi": vmax, "shape": shape}]}


def _linear_density(breakpoints: list, densities: list) -> dict:
    return {
        "kind": "piecewise_linear_density",
        "vmax": breakpoints[-1],
        "breakpoints": breakpoints,
        "densities": densities,
    }


# a density rising from 0 over [0, 1e-300], then flat to 1e10: DMR, with psi finite on
# the grid, but the t^2 coefficient of psi on the first piece, vmax^2 y / w, overflows
STEEP_Y = 1.0 / (0.5e-300 + (1e10 - 1e-300))

# a hand schedule whose one cell has slope -1.8e308 / 1e-300: its interpolant overflows to -inf
TINY_CELL_SCHEDULE = {
    "allocation": {
        "vmax": 1e-300,
        "segments": [
            {"lo": 0.0, "hi": 5e-301, "shape": {"type": "constant", "level": 0.0}},
            {"lo": 5e-301, "hi": 1e-300, "shape": {"type": "constant", "level": 0.0}},
        ],
    },
    "schedule": {"grid": [0.0, 1e-300], "payments": [0.0, -179769314.0]},
}


@pytest.mark.parametrize(
    "command,desc",
    [
        ("solve", {"kind": "uniform", "vmax": BIG}),
        ("solve", {"kind": "power_cdf", "vmax": 1.0, "exponent": BIG}),
        ("dmr-check", {"kind": "tabulated_cdf", "vmax": 1, "points": [[0, 0], [BIG, 0.5], [1, 1]]}),
        ("payment-table", _one_segment_rule({"type": "constant", "level": BIG})),
        # the slope 2e600 overflows, so psi is nan on the grid
        ("dmr-check", _linear_density([0.0, 1e-300], [0.0, 2e300])),
        ("solve", _linear_density([0.0, 1e-300, 1e10], [0.0, STEEP_Y, STEEP_Y])),
        # x = 0 * v^2 on [0, 1e300]: v^2 itself leaves the float range
        ("payment-table", _one_segment_rule({"type": "power", "scale": 0, "exponent": 2}, 1e300)),
        ("dmr-check", {"kind": [], "vmax": 1.0}),
        ("payment-table", _one_segment_rule({"type": ["constant"], "level": 1.0})),
        ("audit", TINY_CELL_SCHEDULE),
        # ends at twice its declared vmax, which a mismatch of 1e-9 * max(1, vmax) let through
        ("solve", {"kind": "tabulated_cdf", "vmax": 1e-10, "points": [[0, 0], [2e-10, 1]]}),
        # a string of digits or a bool is no number, nor a string an array of them
        ("dmr-check", {**_linear_density([0, 1, 2], [0.5, 0.5, 0.5]), "breakpoints": "012"}),
        ("solve", {"kind": "tabulated_cdf", "vmax": 1, "points": ["00", "11"]}),
        ("payment-table", {"vmax": 1, "segments": [
            {"lo": False, "hi": True, "shape": {"type": "constant", "level": True}}]}),
        ("payment-table", {**_one_segment_rule({"type": "constant", "level": 1.0}), "vmax": "1"}),
        ("audit", {"allocation": STEP_DESC, "m": 2, "schedule": {"grid": "01", "payments": [0, 0]}}),
    ],
    ids=[
        "big_uniform_vmax",
        "big_power_exponent",
        "big_tabulated_point",
        "big_constant_level",
        "nan_psi",
        "psi_terms_overflow",
        "power_integral_overflow",
        "list_kind",
        "list_shape_type",
        "schedule_slope_overflow",
        "tiny_vmax_disagrees",
        "string_breakpoints",
        "string_points",
        "bool_bounds_and_level",
        "string_rule_vmax",
        "string_schedule_grid",
    ],
)
def test_out_of_range_or_mistyped_descriptors_are_unusable_input(
    command, desc, tmp_path, capsys
):
    path = _write(tmp_path, "input.json", desc)
    # dmr-check takes no ratio, and argparse would refuse the option before the file is read
    options = [] if command == "dmr-check" else ["--m", "2", "--out", str(tmp_path / "o.json")]
    assert main([command, path, *options]) == 2
    _single_error_line(capsys)


# x = 1e-300 v on [0, 1e300]: v^2 leaves the float range, the integral 1e-300 v^2 / 2 does not
TINY_SLOPE_RULE = _one_segment_rule({"type": "linear", "slope": 1e-300, "intercept": 0.0}, 1e300)


def _run_quietly(argv, capsys):
    """(exit code, stdout), asserting that nothing reached stderr or the warnings module."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    assert [str(w.message) for w in caught] == []
    return code, out


def test_linear_rule_past_float_range_of_v_squared_has_finite_payments(tmp_path, capsys):
    path = _write(tmp_path, "rule.json", TINY_SLOPE_RULE)
    code, out = _run_quietly(["payment-table", path, "--m", "2", "--format", "csv"], capsys)
    assert code == 0
    header, *lines = out.splitlines()
    assert header == "v,x,p_myerson,p_roi,rebate"
    rows = {row[0]: [float(c) for c in row] for row in (line.split(",") for line in lines)}
    assert all(math.isfinite(c) for row in rows.values() for c in row)
    _, x, p_myerson, p_roi, rebate = rows["5e+299"]
    assert x == 0.5 and rebate == 0.0
    assert p_myerson == pytest.approx(1.25e299, rel=1e-12)
    assert p_roi == pytest.approx(2.5e299, rel=1e-12)


def test_linear_rule_past_float_range_of_v_squared_audits_without_nan(tmp_path, capsys):
    path = _write(tmp_path, "rule.json", TINY_SLOPE_RULE)
    _, out = _run_quietly(["audit", path, "--m", "2"], capsys)
    assert "nan" not in out
    for name in ("monotone", "characterization", "dsic", "ir", "uniqueness_probe"):
        assert f"\n{name}: pass" in f"\n{out}"
    assert "overall: PASS" in out


def test_ratio_times_vmax_past_float_range_is_unusable_input(tmp_path, capsys):
    # g = ratio p~ - v x overflowed in payments._envelope: rev(quad) printed nan and inf
    desc = {"kind": "power_cdf", "vmax": 1e300, "exponent": 88.17}
    path = _write(tmp_path, "huge.json", desc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["compare", path, "--m", "1e15"]) == 2
    assert [str(w.message) for w in caught] == []
    assert "leaves the float range" in _single_error_line(capsys)


def test_hand_schedule_past_float_range_is_unusable_input(tmp_path, capsys):
    # a hand schedule is refused as a derived one is, where (ratio + 1) vmax
    # passes half the float range
    data = {
        "allocation": _one_segment_rule({"type": "constant", "level": 1.0}, 1e300),
        "m": 1e15,
        "schedule": {"grid": [0.0, 1e300], "payments": [0.0, 0.0]},
    }
    path = _write(tmp_path, "huge.json", data)
    assert main(["audit", path]) == 2
    assert "leaves the float range" in _single_error_line(capsys)


def test_audit_gain_past_float_range_fails_without_a_warning(tmp_path, capsys):
    # a value-4 bidder who reports 10 gains 1e308 - (-1e308), past the float range: the
    # audit printed numpy's overflow warning and its source line on stderr before its report
    rule = {
        "vmax": 10.0,
        "segments": [
            {"lo": 0.0, "hi": 4.0, "shape": {"type": "constant", "level": 0.0}},
            {"lo": 4.0, "hi": 10.0, "shape": {"type": "constant", "level": 1.0}},
        ],
    }
    schedule = {"grid": [0.0, 5.0, 10.0], "payments": [1e308, 0.0, -1e308]}
    path = _write(tmp_path, "mech.json", {"allocation": rule, "m": 2, "schedule": schedule})
    code, out = _run_quietly(["audit", path], capsys)
    assert code == 1
    assert "dsic: FAIL (worst violation inf)" in out


@pytest.mark.parametrize("command", ["solve", "payment-table", "audit", "compare", "example1", "dmr-check"])
def test_grid_past_memory_is_unusable_input(command, uniform_file, step_file, tmp_path, capsys):
    # each command ended in numpy's _ArrayMemoryError traceback, exit 1; 10^12 float64
    # grid points are 7.3 TiB, refused before anything is allocated
    argv = [command, "--grid", str(10**12)]
    if command != "example1":
        argv.insert(1, step_file if command in ("payment-table", "audit") else uniform_file)
    if command not in ("example1", "dmr-check"):
        argv += ["--m", "2"]
    if command == "solve":
        argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert "in memory" in _single_error_line(capsys)


def test_monte_carlo_stderr_stays_finite_at_large_payments(tmp_path, capsys):
    # np.std squared payments near 1e160 and printed "+/- inf" with an overflow warning
    path = _write(tmp_path, "wide.json", {"kind": "uniform", "vmax": 1e160})
    code, out = _run_quietly(["compare", path, "--m", "1e15"], capsys)
    assert code == 0
    stderrs = [float(line.rsplit("+/- ", 1)[1]) for line in out.splitlines()]
    assert len(stderrs) == 2
    assert all(math.isfinite(se) and se > 0.0 for se in stderrs)


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--seed", str(2**64)], "2**64"),
        (["--mc-samples", str(2**62)], "in memory"),
        (["--mc-samples", "-5"], "mc_samples >= 0"),
    ],
    ids=["seed_2_to_64", "samples_2_to_62", "negative_samples"],
)
def test_monte_carlo_seed_or_sample_count_past_its_range_is_unusable_input(
    flags, message, uniform_file, capsys
):
    # 2^64 and 2^62 ended in a ValueError traceback: Philox keys hold 128 bits, and
    # numpy refuses 2^62 floats before it allocates anything; -5 exited 0, as 0 does
    argv = ["compare", uniform_file, "--m", "2", "--mc-samples", "10", *flags]
    assert main(argv) == 2
    assert message in _single_error_line(capsys)


def test_negative_seed_is_unusable_input_without_draws(uniform_file, capsys):
    # with --mc-samples 0 the seed was never checked, and this printed a table
    argv = ["compare", uniform_file, "--m", "2", "--mc-samples", "0", "--seed", "-5"]
    assert main(argv) == 2
    assert "0 <= seed < 2**64" in _single_error_line(capsys)


def test_largest_monte_carlo_seed_runs(uniform_file, capsys):
    argv = ["compare", uniform_file, "--m", "2", "--mc-samples", "10", "--seed", str(2**64 - 1)]
    code, out = _run_quietly(argv, capsys)
    assert code == 0
    assert out.count("rev(mc)=") == 2


def test_density_slope_below_normal_floats_is_unusable_input(tmp_path, capsys):
    path = _write(tmp_path, "tri.json", _linear_density([0.0, 1e200], [2e-200, 0.0]))
    assert main(["dmr-check", path]) == 2
    assert "smallest normal float" in _single_error_line(capsys)


def _fresh_interpreter_stdout(argv: list[str]) -> str:
    src = str(Path(roi_auction.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "roi_auction.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    return done.stdout


def test_parser_reuse_keeps_no_options_between_calls(uniform_file, tmp_path, capsys, monkeypatch):
    import roi_auction.cli as cli

    seen = []
    for name, command in cli._COMMANDS.items():
        def record(args, command=command):
            seen.append(vars(args).copy())
            return command(args)

        monkeypatch.setitem(cli._COMMANDS, name, record)
    out = str(tmp_path / "sol.json")
    runs = [
        (["solve", uniform_file, "--m", "2", "--grid", "51", "--tol", "1e-6", "--out", out], 0),
        (["compare", uniform_file, "--m", "3", "--grid", "51", "--seed", "5", "--bogus"], 2),
        (["compare", uniform_file, "--m", "2"], 0),
        (["example1"], 0),
    ]
    stdouts = []
    for argv, code in runs:
        assert main(argv) == code
        stdouts.append(capsys.readouterr().out)
    # each command's namespace holds its own flags only; the usage error never reaches a command
    assert seen == [
        {"command": "solve", "file": uniform_file, "m": 2.0, "grid": 51, "tol": 1e-6, "out": out},
        {"command": "compare", "file": uniform_file, "m": 2.0, "grid": DEFAULT_GRID_N, "seed": 0,
         "mc_samples": 100_000, "format": "text", "out": None},
        {"command": "example1", "m": 2.0, "grid": DEFAULT_GRID_N, "tol": 1e-9, "out": None},
    ]
    for (argv, _), stdout in zip(runs, stdouts):
        assert stdout == _fresh_interpreter_stdout(argv)


@pytest.mark.parametrize(
    "raw",
    [
        b'{"kind": "uniform", "vmax": 1' + b"0" * 5000 + b"}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"kind": "\xff"}',
    ],
    ids=["integer_past_digit_limit", "deep_nesting", "not_utf8"],
)
def test_undecodable_json_is_unusable_input(raw, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["dmr-check", str(path)]) == 2
    assert "is not valid JSON" in _single_error_line(capsys)


def test_file_ratio_at_or_below_one_names_the_range(tmp_path, capsys):
    path = _write(tmp_path, "mech.json", {"allocation": STEP_DESC, "m": 0.5})
    assert main(["audit", path]) == 2
    assert "1 < ratio < inf" in _single_error_line(capsys)


@pytest.mark.parametrize("ratio", ["2251799813685248", "1e300"])
def test_ratio_past_payment_precision_is_unusable_input(ratio, tmp_path, capsys):
    # from 2**51 on the payment error bound is vmax; at 1e300 p_roi printed 1 at
    # v = 1, where the truthful payment is 0.75
    path = _write(tmp_path, "ramp.json", make_power_ramp(0.75, 2.0).descriptor())
    assert main(["payment-table", path, "--m", ratio]) == 2
    assert "2**51" in _single_error_line(capsys)


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


@pytest.mark.parametrize(
    "shape",
    [
        {"type": "linear", "slope": -1e-10, "intercept": 0.5},
        {"type": "table", "points": [[0.0, 0.2], [0.5, 0.6], [1.0, 0.6 - 1e-10]]},
    ],
    ids=["linear", "table_cell"],
)
def test_fall_spread_over_a_piece_is_a_failed_check(shape, tmp_path, capsys):
    path = _write(tmp_path, "falling.json", _one_segment_rule(shape))
    assert main(["payment-table", path, "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "payments are undefined" in err
    assert main(["audit", path, "--m", "2"]) == 1
    assert "monotone: FAIL" in capsys.readouterr().out


def test_density_drop_at_a_knot_is_a_failed_check(tmp_path, monkeypatch, capsys):
    # psi falls by about 1.0e-3 at 0.5005, inside a rising cell of the 1001-point grid
    knot = {"kind": "tabulated_cdf", "vmax": 1, "points": [[0, 0], [0.5005, 0.5010005], [1, 1]]}
    path = _write(tmp_path, "knot.json", knot)
    monkeypatch.chdir(tmp_path)
    assert main(["dmr-check", path]) == 1
    out, err = capsys.readouterr()
    assert out.count("FAIL") == 1 and "at v=0.5005" in out and err == ""
    assert main(["solve", path, "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("check failed:")
    assert not (tmp_path / "solution.json").exists()


def test_psi_fall_inside_one_piece_is_a_failed_check(tmp_path, monkeypatch, capsys):
    # psi falls from 4.996 to 4.0e-4 inside the piece [0.5001, 0.5002]
    dens = [d / 1.001 for d in (1.0, 1.0, 11.0, 1.0, 1.0)]
    path = _write(tmp_path, "narrow.json", _linear_density([0.0, 0.5, 0.5001, 0.5002, 1.0], dens))
    monkeypatch.chdir(tmp_path)
    assert main(["dmr-check", path]) == 1
    out, err = capsys.readouterr()
    assert out.count("FAIL") == 1 and "at v=0.5001" in out and err == ""
    assert main(["solve", path, "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("check failed:")
    assert not (tmp_path / "solution.json").exists()


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


def test_example1_out_writes_the_frozen_line_to_the_file(tmp_path, capsys):
    out = tmp_path / "example1.txt"
    assert main(["example1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == (
        "Myerson: 0.250000, ROI-optimal: 0.375000, D = 0.750000, audit: PASS\n"
    )


def test_csv_text_cells():
    records = [
        {"name": "a", "x": 1.0 / 3.0, "n": 7, "ok": True, "gap": None},
        {"name": "b", "x": math.inf, "n": 0, "ok": False, "gap": 1e21},
    ]
    assert csv_text(records) == (
        "name,x,n,ok,gap\na,0.333333333333,7,True,\nb,inf,0,False,1e+21\n"
    )


def test_json_text_rounds_floats_and_names_non_finite_ones():
    data = {"b": [1.0 / 3.0, -math.inf, math.nan], "a": {"n": 2, "ok": None}}
    assert json.loads(json_text(data)) == {
        "a": {"n": 2, "ok": None},
        "b": [0.333333333333, "-inf", "nan"],
    }
    assert json_text(data).startswith('{\n  "a"')


def test_columns_json_is_json_text_of_the_columns():
    # cells at the layout switches of %.12g and repr, the subnormals, non-finite
    # values, and random bit patterns, which reach every exponent
    edges = [
        0.0, -0.0, 1.0, -3.0, 1.0 / 3.0, 1e-4, 9.99999999999e-5, 1e-5, 999999999999.4,
        999999999999.5, 123456789012.0, 1e12, 1e15, 9.99999999999e15, 1e16, 1e21,
        2.2250738585072014e-308, 2.225e-308, 1e-310, 5e-324, 1.7976931348623157e308,
        math.inf, -math.inf, math.nan,
    ]
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, size=(5, 4000), dtype=np.uint64, endpoint=False)
    columns = bits.view(np.float64)
    columns[:, :len(edges)] = np.stack([np.roll(edges, k) for k in range(5)])
    data = dict(zip(["v", "x", "p_myerson", "p_roi", "rebate"], columns))
    assert columns_json(data) == json_text({k: col.tolist() for k, col in data.items()})
    sched = payment_schedule(make_power_ramp(0.75, 2.0), RoiTarget(2.0))
    data = sched.columns()
    assert columns_json(data) == json_text({k: col.tolist() for k, col in data.items()})


def test_payment_table_json_holds_the_schedule_columns(step_file, tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["payment-table", step_file, "--m", "2", "--grid", "11", "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    sched = payment_schedule(make_step(0.4, 1.0), RoiTarget(2.0), 11)
    assert list(sched.columns()) == ["v", "x", "p_myerson", "p_roi", "rebate"]
    assert data == {k: [float(fmt(v)) for v in col] for k, col in sched.columns().items()}


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


# Each command's flags and --format values, as README's flag table lists them. Any other
# flag or value is refused: a flag the command would ignore is unusable input.
FLAG_ROWS = {
    "dmr-check": (["--grid", "--out"], ["text", "json", "csv"]),
    "solve": (["--m", "--grid", "--tol", "--out"], []),
    "payment-table": (["--m", "--grid", "--out"], ["csv", "json"]),
    "audit": (["--m", "--grid", "--out"], ["text", "json"]),
    "compare": (["--m", "--grid", "--seed", "--mc-samples", "--out"], ["text", "json", "csv"]),
    "example1": (["--m", "--grid", "--tol", "--out"], []),
}


@pytest.mark.parametrize("command", list(FLAG_ROWS))
def test_each_command_accepts_only_its_own_flags(command, uniform_file, step_file, tmp_path, capsys):
    flags, formats = FLAG_ROWS[command]
    # example1 matches its frozen values at 2001 points, not at 51
    values = {"--m": "2", "--grid": "2001", "--tol": "1e-9", "--seed": "3", "--mc-samples": "10"}
    values["--out"] = str(tmp_path / "out.json")
    argv = [command]
    if command != "example1":
        argv.append(step_file if command in ("payment-table", "audit") else uniform_file)
    argv += [arg for flag in flags for arg in (flag, values[flag])]
    # the whole row at once, with each of the command's --format values
    for extra in [["--format", value] for value in formats] or [[]]:
        assert main(argv + extra) == 0
        assert capsys.readouterr().err == ""
    for flag in sorted(values.keys() - set(flags)):
        assert main(argv + [flag, values[flag]]) == 2
        assert "unrecognized arguments" in _single_error_line(capsys)
    for value in ["text", "json", "csv"]:
        if value not in formats:
            assert main(argv + ["--format", value]) == 2
            refusal = "invalid choice" if formats else "unrecognized arguments"
            assert refusal in _single_error_line(capsys)


# --- exit-code contract over generated inputs --------------------------------------------
# Descriptors start valid and are then mutated; fields and flags range over huge integers,
# NaN/Infinity literals, empty lists, wrong types, extreme vmax and extreme --m.

_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 2, BIG, -BIG, 5e-324, 1e-300, 1e300, 1.7e308]),
)
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))
_FIELD = st.one_of(_NUMBERS, _JUNK)
_SCALE = st.sampled_from([1e-300, 1e-8, 1.0, 3.0, 1e8, 1e300])


@st.composite
def _mutated(draw, base):
    # most examples stay well-formed; the rest lose a field, gain one, or get a bad value
    desc = dict(draw(base))
    action = draw(st.sampled_from(["keep"] * 5 + ["drop", "extra", "junk"]))
    key = draw(st.sampled_from(sorted(desc)))
    if action == "drop":
        del desc[key]
    elif action == "extra":
        desc["extra"] = 1
    elif action == "junk":
        desc[key] = draw(_FIELD)
    return desc


@st.composite
def _knots(draw, vmax, n):
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1)))
    return [0.0, *(vmax * t for t in cuts), vmax]


_KINDS = ["uniform", "power_cdf", "tabulated_cdf", "piecewise_linear_density"]


@st.composite
def _distribution(draw):
    vmax = draw(_SCALE)
    kind = draw(st.sampled_from(_KINDS))
    if kind == "uniform":
        return {"kind": kind, "vmax": vmax}
    if kind == "power_cdf":
        return {"kind": kind, "vmax": vmax, "exponent": draw(st.floats(1.0, 1e3))}
    n = draw(st.integers(1, 4))
    knots = draw(_knots(vmax, n))
    if kind == "tabulated_cdf":
        levels = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1)))
        points = [[v, F] for v, F in zip(knots, [0.0, *levels, 1.0])]
        return {"kind": kind, "vmax": vmax, "points": points}
    heights = draw(st.lists(st.floats(0.0, 10.0), min_size=n + 1, max_size=n + 1))
    pairs = zip(heights, heights[1:], knots, knots[1:])
    mass = sum(0.5 * (a + b) * (w - v) for a, b, v, w in pairs)
    return _linear_density(knots, [h / mass for h in heights] if mass > 0.0 else heights)


@st.composite
def _allocation(draw):
    vmax = draw(_SCALE)
    n = draw(st.integers(1, 3))
    edges = draw(_knots(vmax, n))
    levels = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1)))
    segments = []
    for lo, hi, a, b in zip(edges, edges[1:], levels, levels[1:]):
        kind = draw(st.sampled_from(["constant", "linear", "power", "table"]))
        if kind == "constant":
            shape = {"type": kind, "level": a}
        elif kind == "linear":
            slope = (b - a) / (hi - lo) if hi > lo else 0.0
            shape = {"type": kind, "slope": slope, "intercept": a - slope * lo}
        elif kind == "power":
            exponent = draw(st.floats(0.01, 100.0))
            try:
                scale = b / hi**exponent
            except (OverflowError, ZeroDivisionError):
                scale = 0.0
            shape = {"type": kind, "scale": scale, "exponent": exponent}
        else:
            shape = {"type": kind, "points": [[lo, a], [hi, b]]}
        segments.append({"lo": lo, "hi": hi, "shape": draw(_mutated(st.just(shape)))})
    return {"vmax": vmax, "segments": segments}


@st.composite
def _mechanism_file(draw):
    rule = draw(_mutated(_allocation()))
    data = {"allocation": rule, "m": draw(st.sampled_from([2.0, 1.5, 0.5]) | _FIELD)}
    vmax = rule.get("vmax")
    if isinstance(vmax, float):
        n = draw(st.integers(2, 5))
        pay = st.floats(0.0, 1.0).map(lambda t: t * vmax) | _NUMBERS
        grid = [vmax * i / (n - 1) for i in range(n)]
        data["schedule"] = {"grid": grid, "payments": draw(st.lists(pay, min_size=n, max_size=n))}
    return draw(_mutated(st.just(data)))


_INPUT_JUNK = st.one_of(_JUNK, st.dictionaries(st.text(max_size=8), _FIELD, max_size=3))
_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["dmr-check", "solve", "compare"]), _mutated(_distribution())),
    st.tuples(st.sampled_from(["payment-table", "audit"]), _mutated(_allocation())),
    st.tuples(st.just("audit"), _mechanism_file()),
    st.tuples(st.sampled_from(["dmr-check", "solve", "payment-table", "audit"]), _INPUT_JUNK),
    st.tuples(st.just("example1"), st.none()),
)
_RATIOS = ["1.01", "1.5", "2", "3", "20"] * 3
_RATIOS += ["1", "1.0000001", "1e15", "1e300", "inf", "nan", "-1"]


@given(
    command=_COMMANDS,
    m=st.sampled_from(_RATIOS + [None]),
    tol=st.sampled_from(["1e-9", "1e-12", "0", "nan", "inf"]),
    grid=st.sampled_from(["51", "51", "51", "2", "1"]),
    mc_samples=st.sampled_from(["200", "1", "0"]),
    data=st.data(),
)
@settings(max_examples=150, derandomize=True, deadline=2000)
def test_exit_code_contract_holds_on_generated_inputs(command, m, tol, grid, mc_samples, data):
    name, desc = command
    flags, formats = FLAG_ROWS[name]
    with tempfile.TemporaryDirectory() as tmp:
        argv = [name]
        if name != "example1":
            argv.append(os.path.join(tmp, "input.json"))
            with open(argv[-1], "w", encoding="utf-8") as fp:
                json.dump(desc, fp)
        # every flag is drawn from the command's own row, so each run reaches the command
        values = {"--m": m, "--grid": grid, "--tol": tol, "--mc-samples": mc_samples}
        values["--out"] = os.path.join(tmp, "out.json")
        argv += [f"{flag}={values[flag]}" for flag in flags if values.get(flag) is not None]
        if formats:
            argv.append(f"--format={data.draw(st.sampled_from(formats))}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        # stderr holds only error lines, and warnings would have printed there
        assert err.getvalue() == "" and [str(w.message) for w in caught] == []
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
