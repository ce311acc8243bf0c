"""An AC region that a converter forms, on ``toy5_formed``.

AC region 2 holds no slack: PQ converter 1 forms its voltage and angle
datum at aux node 6, drawing its output from DC load node 5, so DC region 1
holds two converters.  The truth path (the power flow and telemetry
synthesis) and the three estimators run on it here; the fixture is not part
of the golden matrix.
"""

import numpy as np
import pytest

from hybridse import powerflow
from hybridse.coordination import CoordinationParams, run_cwls, run_drse, run_dwls
from hybridse.grid import MODE_PQ
from hybridse.powerflow import conservation_residual, mismatch_residual, solve_powerflow
from hybridse.telemetry import (SOURCE_VIRTUAL_ZERO, MeasurementKind, ScheduleConfig,
                                simulate_measurements)

import oracle

ZERO_NOISE = ScheduleConfig(scada_vmag_pct=0.0, scada_power_pct=0.0, smart_meter_pct=0.0)


@pytest.fixture(scope="module")
def truth(toy5_formed, toy5_formed_loads):
    return solve_powerflow(toy5_formed, toy5_formed_loads)


@pytest.fixture(scope="module")
def readings(toy5_formed, truth):
    return simulate_measurements(toy5_formed, truth.state, ZERO_NOISE, t=3600.0, seed=0)


def _errors(est, state) -> tuple[float, float]:
    """Largest |dV| and |dtheta| of an estimate against a state."""
    return (max(abs(est.v[n] - v) for n, v in state.v.items()),
            max(abs(est.theta[n] - th) for n, th in state.theta.items()))


def test_the_converter_forms_the_region(toy5_formed):
    grid = toy5_formed
    assert grid.converter(1).control.mode == MODE_PQ
    assert grid.slack not in grid.region(2).nodes
    assert grid.angle_reference(2) == grid.converter(1).aux_node == 6
    assert len(grid.region(1).boundary) == 2
    plan = powerflow._plan(grid)
    # region 2's Newton injects no converter output: converter 1 forms it
    assert [feeds for newton, feeds in plan.ac if newton.region_id == 2] == [[]]
    assert [forms for *_, forms in plan.couplings.values()] == [False, True]


def test_powerflow_matches_the_per_profile_oracle(toy5_formed, toy5_formed_loads, truth):
    grid, profile = toy5_formed, toy5_formed_loads
    ref = oracle.solve_powerflow(grid, profile)
    for got, want in ((truth.state.v, ref.state.v), (truth.state.theta, ref.state.theta)):
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
    assert truth.converters == ref.converters
    assert truth.coupling_residual == ref.coupling_residual
    assert truth.outer_iterations == ref.outer_iterations == 3
    assert mismatch_residual(grid, profile, truth.state, truth.converters) <= 1e-11
    assert abs(conservation_residual(grid, profile, truth)) <= 1e-10
    # the forming converter delivers region 2's load and its coupling losses
    formed = truth.converters[1]
    assert formed.p_vsc == pytest.approx(0.05, abs=1e-4)
    assert formed.q_vsc == pytest.approx(0.02, abs=1e-4)
    assert oracle.balance_residual(formed) <= powerflow._COUPLING_TOL


def test_zero_noise_readings_are_the_physics(toy5_formed, truth, readings):
    measured = [m for m in readings if m.source != SOURCE_VIRTUAL_ZERO]
    gaps = [abs(m.value - oracle.eval_h_nonlinear(toy5_formed, truth.state, m))
            for m in measured]
    assert max(gaps) == 0.0
    # converter 1 draws at a smart-metered DC node
    assert [m.source for m in measured
            if m.kind is MeasurementKind.DC_P_INJ and m.location == (5,)] == ["smart_meter"]
    assert all(m.value == 0.0 for m in readings if m.source == SOURCE_VIRTUAL_ZERO)


def test_wls_estimators_recover_the_truth(toy5_formed, truth, readings):
    cwls = run_cwls(toy5_formed, readings)
    assert cwls.stop_reason == "converged"
    assert _errors(cwls, truth.state)[0] <= 1.2e-12
    dwls = run_dwls(toy5_formed, readings, CoordinationParams())
    assert dwls.stop_reason == "converged"
    assert _errors(dwls, truth.state)[0] <= 3e-14


def test_drse_recovers_the_linear_truth(toy5_formed, truth, readings):
    lin = oracle.linearize_measurements(toy5_formed, readings, truth.state)
    est = run_drse(toy5_formed, lin, CoordinationParams())
    assert est.stop_reason == "converged" and est.iterations == 1
    # within one unit in the last place of 1.0
    assert _errors(est, truth.state)[0] <= np.spacing(1.0)
