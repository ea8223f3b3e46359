"""The benchmark's tracer still finds every package name it wraps.

``perfbench/tracing.py`` looks package functions, methods and signatures up by
name, so a rename or deletion in the package breaks only a traced benchmark
run. This installs the tracer on the package and takes it off again.
"""

import importlib
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_state() -> dict:
    """Each package module's and package class's attributes, by owner."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "roi_auction"]
    classes = [
        c
        for m in owners
        for c in vars(m).values()
        if inspect.isclass(c) and c.__module__.split(".")[0] == "roi_auction"
    ]
    while classes:
        cls = classes.pop()
        if cls not in owners:
            owners.append(cls)
            classes.extend(cls.__subclasses__())
    return {owner: dict(vars(owner)) for owner in owners}


def _changed(before: dict, after: dict) -> list[tuple]:
    return [
        (owner, name)
        for owner in before.keys() | after.keys()
        for name in before.get(owner, {}).keys() | after.get(owner, {}).keys()
        if before.get(owner, {}).get(name) is not after.get(owner, {}).get(name)
    ]


@pytest.fixture()
def perfbench(monkeypatch):
    """The benchmark's ``run`` and ``tracing`` modules, imported for one test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("run"), importlib.import_module("tracing")
    for name in ("run", "tracing", "hostclock"):
        sys.modules.pop(name, None)


def test_tracer_installs_and_comes_off(perfbench):
    run, tracing = perfbench
    # the modules run.import_package loads, without its environment and warnings settings
    api = SimpleNamespace(**{m: importlib.import_module(f"roi_auction.{m}") for m in run.MODULES})
    before = _package_state()
    patcher = tracing.install(api, tracing.Tracer())
    try:
        assert _changed(before, _package_state())
        assert api.audit.uniqueness_probe.__wrapped__ is before[api.audit]["uniqueness_probe"]
    finally:
        patcher.restore()
    assert _changed(before, _package_state()) == []
