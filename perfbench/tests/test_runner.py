"""The run loop counts failures, catches a rerun that changes its output, and scales timings."""

import time

import pytest

import checks
import hostclock
import run
from workloads import Op


def op(key, outputs):
    it = iter(outputs)

    def step():
        value = next(it)
        if isinstance(value, Exception):
            raise value
        return value

    return Op(key=key, run=step, collect=lambda r: r, verify=lambda r: checks.expect("value", r > 0, f"{r}"))


def test_identical_reruns_pass():
    outcomes = run.Outcomes()
    ops = [op("a", [1.0, 1.0]), op("b", [2.0, 2.0])]
    outcomes.run_round(ops)
    outcomes.run_round(ops)
    outcomes.verify(checks)
    assert (outcomes.attempted, outcomes.failed, len(outcomes.durations)) == (4, 0, 4)


def test_changed_rerun_trips():
    outcomes = run.Outcomes()
    ops = [op("a", [1.0, 1.0 + 1e-15])]
    outcomes.run_round(ops)
    outcomes.run_round(ops)
    with pytest.raises(checks.CheckFailed) as info:
        outcomes.verify(checks)
    assert info.value.name == "rerun_identical"


def test_wrong_first_output_trips_and_errors_count_as_failed(capsys):
    outcomes = run.Outcomes()
    ops = [op("a", [-1.0]), op("b", [RuntimeError("boom")])]
    outcomes.run_round(ops)
    assert (outcomes.attempted, outcomes.failed) == (2, 1)
    assert "boom" in capsys.readouterr().err
    with pytest.raises(checks.CheckFailed):
        outcomes.verify(checks)


def test_malformed_output_is_named():
    outcomes = run.Outcomes()
    bad = Op(key="a", run=lambda: {}, collect=lambda r: r, verify=lambda r: r["missing"])
    outcomes.run_round([bad])
    with pytest.raises(checks.CheckFailed) as info:
        outcomes.verify(checks)
    assert info.value.name == "a.output_format"


def test_raising_operation_fails_the_run(capsys):
    outcomes = run.Outcomes()
    ops = [op("a", [1.0, 1.0]), op("b", [2.0, RuntimeError("late")])]
    outcomes.run_round(ops)
    outcomes.run_round(ops)
    assert (outcomes.attempted, outcomes.failed) == (4, 1)
    assert "late" in capsys.readouterr().err
    with pytest.raises(checks.CheckFailed) as info:
        outcomes.verify(checks)
    assert info.value.name == "b.raised"


def test_durations_are_scaled_by_the_calibration_passes(monkeypatch):
    # a host running at half the reference speed: passes take twice as long
    monkeypatch.setattr(hostclock, "calibration_pass", lambda: 2.0 * hostclock.REFERENCE_PASS_S)
    outcomes = run.Outcomes()
    slow = Op(key="a", run=lambda: time.sleep(0.05) or 1.0, collect=lambda r: r, verify=lambda r: None)
    outcomes.run_round([slow])
    assert 0.025 <= outcomes.durations[0] < 0.04
