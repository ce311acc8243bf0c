"""Metamorphic relations of the estimators: two runs of the same code on
inputs whose estimates are known from each other.

- Permuted readings (the corrupted indices mapped along) give the same
  estimate.
- Relabelled node ids (``test_powerflow._relabelled``, each reading's node
  location mapped) give the mapped estimate.
- One SCADA reading split into two copies of the same total weight gives the
  same estimate: each copy has sigma * sqrt(2) for WLS (1/sigma^2 halved)
  and sigma * 2 for WLAV (1/sigma halved).  WLS's normalized-residual test
  sees the copies as two readings, so CWLS and DWLS run with it off.
- The grid's regions listed in reverse order give the same estimate.  The
  distributed estimators solve each region against the previous iteration's
  packets, so the order is not theirs to see: DRSE and DWLS keep every bit
  (``test_coordination.estimate_bits``).  CWLS orders its system states by
  region, and holds within the step tol.

They hold on case33 with the four SCADA lines at t = 3600 s, runs 0-19 of
master seed 20240, clean and in bad-data case 2.  CWLS and DWLS hold within
the Gauss-Newton step tol; DRSE's vertex path still depends on the order of
its rows and columns and on ties between them, so its relations are
expected failures.  The permuted, relabelled and split relations also run on
``toy5_formed`` at its loads (default schedule, t = 3600 s, noise seeds
20240-20259, clean and in case 2), where every estimator holds them within
the step tol: DRSE moves by at most 2.2e-16 there, CWLS and DWLS by at most
2.1e-8 when permuted or split; relabelled (node ids reversed), DRSE moves by
at most 1.1e-16, CWLS by 3.8e-10 and DWLS by 7.4e-9.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hybridse import data
from hybridse.bench import Scenario, prepare_context
from hybridse.coordination import CoordinationParams, run_cwls, run_drse, run_dwls
from hybridse.powerflow import InjectionProfile, solve_powerflow
from hybridse.telemetry import (CONV_KINDS, MeasurementSet, ScheduleConfig,
                                inject_bad_data, simulate_measurements)
from test_coordination import estimate_bits
from test_powerflow import _relabelled

MASTER_SEED = 20240
RUNS = 20
GN_TOL = 1e-6            # solve_wls's step tol: it fixes an estimate to within it
ESTIMATORS = {
    "cwls": lambda grid, ms: run_cwls(grid, ms),
    "dwls": lambda grid, ms: run_dwls(grid, ms, CoordinationParams()),
    "drse": lambda grid, ms: run_drse(grid, ms, CoordinationParams()),
}
DRSE_XFAIL = {
    "permuted": "measured: permuting the readings moves DRSE by more than 1e-9 in "
                "3 of 20 runs of each case, by up to 2.6e-5 p.u.; which optimal LP "
                "vertex a regional solve returns depends on the row order",
    "relabelled": "measured: relabelling the nodes moves DRSE by more than 1e-9 in "
                  "6 of 20 runs of case 0 and 7 of case 2, by up to 2.8e-5 p.u.; which "
                  "optimal LP vertex a regional solve returns depends on the column order",
    "split": "measured: splitting the one SCADA reading per run that this test picks "
             "moves DRSE by more than 1e-6 in 0 of 20 runs of each case, but over every "
             "SCADA reading of those runs 17 of 600 splits of case 0 and 13 of 600 of "
             "case 2 move it, by up to 3.6e-5 p.u.; which optimal LP vertex a "
             "regional solve returns depends on its rows",
}
# the estimators of the split relation: the sigma factor of each copy, and the
# estimator, with the normalized-residual test off
SPLIT = {
    "cwls": (math.sqrt(2.0),
             lambda grid, ms: run_cwls(grid, ms, CoordinationParams(nr_test=False))),
    "dwls": (math.sqrt(2.0),
             lambda grid, ms: run_dwls(grid, ms, CoordinationParams(nr_test=False))),
    "drse": (2.0, ESTIMATORS["drse"]),
}


@pytest.fixture(scope="module")
def case33_ctx():
    return prepare_context(Scenario(
        grid=str(data.path(data.CASE33_HYBRID)), method="cwls", runs=RUNS,
        seed=MASTER_SEED, base_profile=str(data.path(data.CASE33_HYBRID_LOADS)),
        schedule={"scada_ac_branches": [[1, 2], [2, 19], [3, 23], [6, 26]]}))


@pytest.fixture(scope="module")
def case33_runs(case33_ctx):
    """The measurement sets of runs 0-19 by bad-data case, drawn as
    ``run_single`` draws them."""
    ctx = case33_ctx
    out = {}
    for case in (0, 2):
        out[case] = []
        for run in range(RUNS):
            rng = np.random.default_rng(MASTER_SEED + run)
            _, profile = ctx.test_profiles.sample_tick(rng)
            truth = solve_powerflow(ctx.grid, profile)
            ms = simulate_measurements(ctx.grid, truth.state, ctx.schedule, t=3600.0,
                                       seed=rng)
            out[case].append(inject_bad_data(ms, case) if case else ms)
    return out


@pytest.fixture(scope="module")
def original(case33_ctx, case33_runs):
    """``original(method, case)``: the estimates of ``case33_runs[case]``,
    computed on first use."""
    kept = {}

    def get(method, case):
        if (method, case) not in kept:
            kept[method, case] = [ESTIMATORS[method](case33_ctx.grid, ms)
                                  for ms in case33_runs[case]]
        return kept[method, case]
    return get


def permuted(ms: MeasurementSet, seed: int) -> MeasurementSet:
    order = np.random.default_rng(seed).permutation(len(ms)).tolist()
    position = {old: new for new, old in enumerate(order)}
    return MeasurementSet([ms[i] for i in order],
                          tuple(sorted(position[i] for i in ms.corrupt_indices)))


def relabelled(ms: MeasurementSet, mapping: dict[int, int]) -> MeasurementSet:
    """The readings with each node location mapped; a converter reading's
    location is the converter's id, which relabelling keeps."""
    return MeasurementSet(
        [m if m.kind in CONV_KINDS
         else replace(m, location=tuple(mapping[n] for n in m.location)) for m in ms],
        ms.corrupt_indices)


def split(ms: MeasurementSet, i: int, factor: float) -> MeasurementSet:
    """The readings with reading i split into two copies of sigma * factor,
    the first in its place and the second appended."""
    copy = replace(ms[i], sigma=ms[i].sigma * factor)
    return MeasurementSet([*ms.measurements[:i], copy, *ms.measurements[i + 1:], copy],
                          ms.corrupt_indices)


def moved(est, other, mapping=None) -> float:
    """The largest |V| or theta difference between ``est`` and ``other``,
    node n of ``est`` read at ``mapping[n]`` in ``other``."""
    to = (lambda n: n) if mapping is None else mapping.get
    return max([abs(v - other.v[to(n)]) for n, v in est.v.items()]
               + [abs(th - other.theta[to(n)]) for n, th in est.theta.items()])


def _methods(relation):
    return ["cwls", "dwls",
            pytest.param("drse", marks=pytest.mark.xfail(
                strict=False, raises=AssertionError, reason=DRSE_XFAIL[relation]))]


@pytest.mark.parametrize("case", [0, 2])
@pytest.mark.parametrize("method", _methods("permuted"))
def test_permuted_readings_give_the_same_estimate(case33_ctx, case33_runs, original,
                                                  method, case):
    moves = [moved(est, ESTIMATORS[method](case33_ctx.grid, permuted(ms, run)))
             for run, (ms, est) in enumerate(zip(case33_runs[case], original(method, case)))]
    assert max(moves) <= GN_TOL, moves


@pytest.mark.parametrize("case", [0, 2])
@pytest.mark.parametrize("method", _methods("relabelled"))
def test_relabelled_nodes_give_the_mapped_estimate(case33_ctx, case33_runs, original,
                                                   method, case):
    # node ids reversed: the slack and every region's nodes change their ids
    grid = case33_ctx.grid
    ids = sorted(n.id for n in grid.nodes)
    mapping = dict(zip(ids, reversed(ids)))
    other, _ = _relabelled(grid, InjectionProfile(), mapping)
    moves = [moved(est, ESTIMATORS[method](other, relabelled(ms, mapping)), mapping)
             for ms, est in zip(case33_runs[case], original(method, case))]
    assert max(moves) <= GN_TOL, moves


def split_moves(grid, sets, method) -> list[float]:
    """How far splitting one SCADA reading per set, drawn by the set's
    index, moves ``method``'s estimate."""
    factor, estimate = SPLIT[method]
    moves = []
    for run, ms in enumerate(sets):
        scada = [i for i, m in enumerate(ms) if m.source == "scada"]
        i = scada[int(np.random.default_rng(run).integers(len(scada)))]
        moves.append(moved(estimate(grid, ms), estimate(grid, split(ms, i, factor))))
    return moves


@pytest.mark.parametrize("case", [0, 2])
@pytest.mark.parametrize("method", _methods("split"))
def test_split_reading_gives_the_same_estimate(case33_ctx, case33_runs, method, case):
    moves = split_moves(case33_ctx.grid, case33_runs[case], method)
    assert max(moves) <= GN_TOL, moves


@pytest.fixture(scope="module")
def toy5_formed_runs(toy5_formed, toy5_formed_loads):
    """Twenty noisy sets of ``toy5_formed`` at its loads by bad-data case:
    the default schedule at t = 3600 s, noise seeds 20240-20259."""
    truth = solve_powerflow(toy5_formed, toy5_formed_loads)
    sets = [simulate_measurements(toy5_formed, truth.state, ScheduleConfig(), t=3600.0,
                                  seed=MASTER_SEED + run) for run in range(RUNS)]
    return {0: sets, 2: [inject_bad_data(ms, 2) for ms in sets]}


@pytest.mark.parametrize("case", [0, 2])
@pytest.mark.parametrize("method", ["cwls", "dwls", "drse"])
def test_toy5_formed_permuted_readings(toy5_formed, toy5_formed_runs, method, case):
    estimate = ESTIMATORS[method]
    moves = [moved(estimate(toy5_formed, ms), estimate(toy5_formed, permuted(ms, run)))
             for run, ms in enumerate(toy5_formed_runs[case])]
    assert max(moves) <= GN_TOL, moves


@pytest.mark.parametrize("case", [0, 2])
@pytest.mark.parametrize("method", ["cwls", "dwls", "drse"])
def test_toy5_formed_relabelled_nodes(toy5_formed, toy5_formed_runs, method, case):
    ids = sorted(n.id for n in toy5_formed.nodes)
    mapping = dict(zip(ids, reversed(ids)))
    other, _ = _relabelled(toy5_formed, InjectionProfile(), mapping)
    estimate = ESTIMATORS[method]
    moves = [moved(estimate(toy5_formed, ms), estimate(other, relabelled(ms, mapping)), mapping)
             for ms in toy5_formed_runs[case]]
    assert max(moves) <= GN_TOL, moves


@pytest.mark.parametrize("case", [0, 2])
@pytest.mark.parametrize("method", ["cwls", "dwls", "drse"])
def test_toy5_formed_split_reading(toy5_formed, toy5_formed_runs, method, case):
    moves = split_moves(toy5_formed, toy5_formed_runs[case], method)
    assert max(moves) <= GN_TOL, moves


def assert_same_in_another_order(grid, sets, method, originals=None):
    """The estimates of ``sets`` on ``grid`` and on ``grid`` with its regions
    in reverse order are the same: bit for bit, or for CWLS within the step
    tol."""
    estimate = ESTIMATORS[method]
    other = replace(grid, regions=tuple(reversed(grid.regions)))
    assert [r.id for r in other.regions] != [r.id for r in grid.regions]
    originals = originals or [estimate(grid, ms) for ms in sets]
    pairs = [(est, estimate(other, ms)) for ms, est in zip(sets, originals)]
    if method == "cwls":
        moves = [moved(est, again) for est, again in pairs]
        assert max(moves) <= GN_TOL, moves
    else:
        assert all(estimate_bits(est) == estimate_bits(again) for est, again in pairs)


@pytest.mark.parametrize("case", [0, 2])
@pytest.mark.parametrize("method", ["cwls", "dwls", "drse"])
def test_regions_in_another_order(case33_ctx, case33_runs, original, method, case):
    assert_same_in_another_order(case33_ctx.grid, case33_runs[case], method,
                                 original(method, case))


@pytest.mark.parametrize("case", [0, 2])
@pytest.mark.parametrize("method", ["cwls", "dwls", "drse"])
def test_toy5_formed_regions_in_another_order(toy5_formed, toy5_formed_runs, method, case):
    assert_same_in_another_order(toy5_formed, toy5_formed_runs[case], method)
