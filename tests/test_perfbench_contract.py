"""What the benchmark in ``perfbench/`` needs of the program.

The benchmark traces and checks the program by patching module attributes
(``hooks.TRACE_TARGETS``, ``checks.CAPTURE_TARGETS``) and by reading the
arguments of the calls it intercepts.  These tests import its modules
read-only (no bytecode is written next to them) and fail when a change to
the program would silently break the benchmark.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hybridse.coordination import CoordinationParams, run_drse
from hybridse.powerflow import solve_powerflow
from hybridse.telemetry import ScheduleConfig, simulate_measurements

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    pytest.importorskip("scipy")
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        mods = {name: importlib.import_module(name) for name in ("hooks", "layers", "checks")}
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return SimpleNamespace(**mods)


def drse_estimate(grid, loads):
    truth = solve_powerflow(grid, loads)
    ms = simulate_measurements(grid, truth.state, ScheduleConfig(), t=3600.0, seed=4)
    return run_drse(grid, ms, CoordinationParams(max_iterations=5))


def test_every_target_resolves(perfbench):
    targets = set(perfbench.hooks.TRACE_TARGETS) | set(perfbench.checks.CAPTURE_TARGETS)
    for module, attr in sorted(targets):
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_captured_lp_problems_carry_oracle_fields(perfbench, toy5, toy5_loads):
    capture = perfbench.checks.Capture(len(toy5.regions))
    with perfbench.hooks.installed(capture, perfbench.checks.CAPTURE_TARGETS):
        drse_estimate(toy5, toy5_loads)
    assert len(capture.lps) == len(toy5.regions)
    for problem, sol in capture.lps:
        m, n = problem.a_eq.shape
        assert problem.c.shape == (n,) and problem.free_mask.shape == (n,)
        assert problem.b_eq.shape == (m,)
        assert sol.objective == pytest.approx(float(problem.c @ sol.x), abs=1e-12)


def test_traced_drse_counts_warm_lp_calls(perfbench, toy5, toy5_loads):
    tracer = perfbench.layers.Tracer()
    with perfbench.hooks.installed(tracer, perfbench.hooks.TRACE_TARGETS):
        drse_estimate(toy5, toy5_loads)
    counters = tracer.counters
    assert counters["estimation.lp.calls"] > 0
    assert 0 < counters["estimation.lp.warm_calls"] < counters["estimation.lp.calls"]
    assert tracer.count["coordination.solve_wlav_region"] > 0
    assert tracer.count["wlav.build_regional_wlav_lp"] == counters["estimation.lp.calls"]
