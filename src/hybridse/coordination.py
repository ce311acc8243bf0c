"""Distributed estimation loop and centralized baseline.

Each iteration solves every region against the neighbors' previous-iteration
boundary packets (Jacobi style, so regions can run in parallel), AC regions
recompute their converters' losses from the fresh estimate, and per-converter
Lagrange multipliers grow by xi * |boundary mismatch|.  The loop exits when
every converter's AC-side and DC-side power claims agree within tau, or after
the iteration cap; the estimate's ``stop_reason`` says which, and calls a cap
reached with every packet equal to the previous iteration's "stalled".  Only
BoundaryPacket fields ever cross a region boundary, and between iterations
the loop holds one list of them in trace order.  A DC packet claims the DC
region's gross converter draw less the loss that region was told.

Per-iteration wall times are recorded as t_l = max over AC regions + max over
DC regions + algebra time, the parallel-execution accounting of the
coordination scheme.

Once per stall (an iteration t whose packets equal the previous one's),
DRSE asks whether the loop may skip ahead.  In a stall only the
multipliers, that is the LP costs, move, each by the same xi * |mismatch|
per iteration, and a region's LP kernel answers a repeat solve with its
last x and 0 pivots while no column prices in (see
:mod:`~.estimation.lp`).  The loop replays the multiplier additions up to
iteration cap - 2 and asks each region, by cost ranging on its stored
tableau, whether its basis stays optimal up to those multipliers.  If
every region's does, iterations t + 1 ... cap - 1 solve nothing: they make
their additions, repeat the packets and record zero-time rows, so
``se_time`` counts only work done (the check's own time is in the algebra
of iteration t).  The cap iteration solves every region as usual, so the
estimate equals the full loop's bit for bit.  A refused check is not
retried until the packets change.  DWLS runs every iteration.

What an estimate builds is only what is its own.  Every run of one
telemetry configuration reads the same rows, so the regional H and boundary
rows, the regional LP structures and the compiled nonlinear rows are kept
by the grid per row set (``GridModel.memo``); an estimate supplies z,
sigma and the boundary terms.  A DRSE estimate holds one
``estimation.wlav.RegionalLp`` per region, the one owner of the region's
model, LP template and warm start, which dies with the estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .estimation import (BoundaryTerm, EstimationResult, RegionalLp, lnr_test,
                         solve_wlav_region, solve_wls)
from .grid import AC, DC, OWNS_AC, GridModel
from .measmodel import build_region_model, build_system_model
from .powerflow import ac_branch_flow, converter_loss
from .telemetry import Measurement, MeasurementKind, MeasurementSet, build_region_H


@dataclass(frozen=True)
class BoundaryPacket:
    """The only data a region shares: its view (``side`` "ac" or "dc") of one
    converter's operating point."""

    converter: int
    side: str
    p_vsc: float
    q_vsc: float
    p_loss: float
    v_pcc: float


@dataclass(frozen=True)
class CoordinationParams:
    lambda0: float = 0.0
    xi: float = 1.0
    tau: float = 1e-4
    max_iterations: int = 20
    nr_test: bool = True          # WLS variants only

    def __post_init__(self):
        if self.lambda0 < 0 or self.xi <= 0 or self.tau <= 0 or self.max_iterations < 1:
            raise ValueError("lambda0 must be non-negative, xi and tau positive, "
                             "max_iterations >= 1")


@dataclass
class IterationTiming:
    """One iteration's times in seconds; its place in ``timing`` is its
    iteration.  An iteration that a stall skips solved nothing: all zero."""

    t_total: float
    t_region_max: float
    t_algebra: float


@dataclass
class SystemEstimate:
    v: dict[int, float]
    theta: dict[int, float]
    regions: dict[int, EstimationResult]
    lambdas: dict[int, float]
    iterations: int
    timing: list[IterationTiming]
    # "converged"; "stalled" (iteration cap, the last packets equal the
    # previous iteration's field by field) or "cap" (iteration cap otherwise)
    stop_reason: str
    # one list per iteration, its place the iteration: each converter's AC
    # packet, then its DC packet
    packet_trace: list[list[BoundaryPacket]] = field(default_factory=list)
    bad_data: dict = field(default_factory=dict)
    # wall time of the whole estimator call: model assembly, every pass and the
    # bad-data test included (se_time is the parallel accounting of the loop)
    wall_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def se_time(self) -> float:
        return sum(t.t_total for t in self.timing)

    def residual_map(self) -> dict[int, float]:
        """Global measurement index -> residual at the final estimate."""
        out: dict[int, float] = {}
        for result in self.regions.values():
            for idx, r in zip(result.meas_indices, result.residuals):
                if idx >= 0:
                    out[idx] = float(r)
        return out

    @property
    def mismatch_history(self) -> dict[int, list[float]]:
        """Converter id -> |p_vsc(ac) - p_vsc(dc)| of each iteration's packet
        pair."""
        out: dict[int, list[float]] = {}
        for pkts in self.packet_trace:
            for ac, dc in zip(pkts[::2], pkts[1::2]):
                out.setdefault(ac.converter, []).append(abs(ac.p_vsc - dc.p_vsc))
        return out

    def max_mismatch(self) -> float:
        """The largest boundary mismatch of the last iteration."""
        last = self.packet_trace[-1] if self.packet_trace else []
        return max((abs(ac.p_vsc - dc.p_vsc) for ac, dc in zip(last[::2], last[1::2])),
                   default=0.0)

    def dominant_reading(self) -> int | None:
        """Global index of the reading the estimate blames most: the one the
        normalized-residual test flagged with the largest normalized residual,
        else the one with the largest final residual."""
        flagged = [f for rep in self.bad_data.values() for f in rep.flagged]
        if flagged:
            return max(flagged, key=lambda f: abs(f[1]))[0]
        resid = self.residual_map()
        return max(resid, key=lambda i: abs(resid[i])) if resid else None


# -- bootstrap ----------------------------------------------------------------


def _bootstrap_packets(grid: GridModel, readings: list[Measurement]) -> list[BoundaryPacket]:
    """Iteration-0 packets from the converters' own telemetry (or defaults),
    in trace order."""
    conv_p: dict[int, float] = {}
    conv_q: dict[int, float] = {}
    v_pcc: dict[int, float] = {}
    for m in readings:
        if m.kind is MeasurementKind.CONV_P and m.direction == "ac":
            conv_p[m.location[0]] = m.value
        elif m.kind is MeasurementKind.CONV_Q and m.direction == "ac":
            conv_q[m.location[0]] = m.value
        elif m.kind is MeasurementKind.AC_V_MAG:
            v_pcc[m.location[0]] = m.value
    pkts: list[BoundaryPacket] = []
    for conv in grid.converters:
        p = conv_p.get(conv.id, 0.0)
        q = conv_q.get(conv.id, conv.control.q_set)
        v = v_pcc.get(conv.aux_node, 1.0)
        loss, _ = converter_loss(p, q, v, (conv.d1, conv.d2, conv.d3))
        pkts += [BoundaryPacket(conv.id, side, p, q, loss, v) for side in ("ac", "dc")]
    return pkts


def _boundary_terms(region, lambdas, pkts, at):
    """BoundaryTerm per converter of a region, from neighbor packets only:
    converter ``cid``'s AC packet is ``pkts[at[cid]]``, its DC packet the next."""
    terms: dict[int, BoundaryTerm] = {}
    for cid, orient in region.boundary:
        if orient == OWNS_AC:
            terms[cid] = BoundaryTerm(lam=lambdas[cid], neighbor_p=pkts[at[cid] + 1].p_vsc)
        else:
            ac = pkts[at[cid]]
            terms[cid] = BoundaryTerm(lam=lambdas[cid], neighbor_p=ac.p_vsc,
                                      loss_const=ac.p_loss)
    return terms


# -- the coordination loop ----------------------------------------------------


def _coordinate(grid: GridModel, readings: list[Measurement], params: CoordinationParams,
                solve_region, boundary_power, stays_optimal=None) -> SystemEstimate:
    """Jacobi coordination shared by the distributed estimators, bootstrapped
    from ``readings``.

    ``solve_region(region, terms)`` estimates one region against the
    BoundaryTerm of each of its converters.  ``boundary_power(conv, ac_result,
    dc_result)`` reads the converter's AC-side (p_vsc, q_vsc) and the DC
    region's gross draw off the two regional estimates; the loop subtracts
    the loss the DC region was told to make the DC packet's p_vsc.
    ``stays_optimal(region, terms, top)``, when given, says whether the
    region's solves under ``terms`` would repeat its last estimate while each
    multiplier rises up to ``top`` (module docstring).  The terms and the
    told losses are read from ``last``, the previous iteration's packets.
    """
    lambdas = {c.id: params.lambda0 for c in grid.converters}
    at = {conv.id: 2 * k for k, conv in enumerate(grid.converters)}
    last = _bootstrap_packets(grid, readings)
    timing: list[IterationTiming] = []
    trace: list[list[BoundaryPacket]] = []
    results: dict[int, EstimationResult] = {}
    converged = stalled = False
    checked = False             # this stall's one cost-ranging check is made
    cap = params.max_iterations
    iteration = 0

    while iteration < cap:
        iteration += 1
        t_max = {AC: 0.0, DC: 0.0}          # the slowest solve of each kind
        for region in grid.regions:
            terms = _boundary_terms(region, lambdas, last, at)
            t0 = time.perf_counter()
            results[region.id] = solve_region(region, terms)
            t_max[region.kind] = max(t_max[region.kind], time.perf_counter() - t0)

        t0 = time.perf_counter()
        pkts: list[BoundaryPacket] = []
        for conv in grid.converters:
            ac_res = results[grid.node(conv.aux_node).region]
            dc_res = results[grid.node(conv.dc_node).region]
            p_loss = last[at[conv.id]].p_loss
            p_ac, q_ac, p_draw = boundary_power(conv, ac_res, dc_res)
            v_ac = ac_res.v[conv.aux_node]
            loss, _ = converter_loss(p_ac, q_ac, v_ac, (conv.d1, conv.d2, conv.d3))
            pkts += [BoundaryPacket(conv.id, "ac", p_ac, q_ac, loss, v_ac),
                     BoundaryPacket(conv.id, "dc", p_draw - p_loss, conv.control.q_set,
                                    p_loss, dc_res.v[conv.dc_node])]
        mismatches = [abs(ac.p_vsc - dc.p_vsc) for ac, dc in zip(pkts[::2], pkts[1::2])]
        _raise_multipliers(lambdas, grid.converters, mismatches, params.xi)
        trace.append(pkts)
        converged = max(mismatches, default=0.0) <= params.tau
        stalled, last = pkts == last, pkts
        skipped = 0
        if converged or not stalled:
            checked = False
        elif stays_optimal is not None and not checked and iteration < cap - 1:
            # a stall: the skipped iterations' solves would see the multipliers
            # of iterations iteration + 1 ... cap - 1, the last made by the
            # additions up to iteration cap - 2
            checked = True
            top = dict(lambdas)
            for _ in range(iteration + 1, cap - 1):
                _raise_multipliers(top, grid.converters, mismatches, params.xi)
            if all(stays_optimal(region, _boundary_terms(region, lambdas, pkts, at), top)
                   for region in grid.regions):
                skipped = cap - 1 - iteration
        t_algebra = time.perf_counter() - t0

        t_ac, t_dc = t_max[AC], t_max[DC]
        timing.append(IterationTiming(t_ac + t_dc + t_algebra, max(t_ac, t_dc), t_algebra))

        if converged:
            break
        # each skipped iteration repeats this one's packets and additions
        # without solving a region, so it takes no time
        for _ in range(skipped):
            _raise_multipliers(lambdas, grid.converters, mismatches, params.xi)
            trace.append(list(pkts))
            timing.append(IterationTiming(0.0, 0.0, 0.0))
        iteration += skipped

    v, theta = _merge_states(grid, results)
    stop_reason = "converged" if converged else "stalled" if stalled else "cap"
    return SystemEstimate(v=v, theta=theta, regions=results, lambdas=lambdas,
                          iterations=iteration, timing=timing,
                          stop_reason=stop_reason, packet_trace=trace)


def _raise_multipliers(lambdas, converters, mismatches, xi):
    """One iteration's multiplier additions, in converter order."""
    for conv, mismatch in zip(converters, mismatches):
        lambdas[conv.id] += xi * mismatch


# -- DRSE ----------------------------------------------------------------------


def run_drse(grid: GridModel, ms: MeasurementSet,
             params: CoordinationParams = CoordinationParams()) -> SystemEstimate:
    """Distributed robust estimation: regional WLAV LPs under Lagrangian
    boundary coordination.  Non-convergence at the iteration cap is reported
    through the mismatch trace, not as a failure."""
    t_start = time.perf_counter()
    by_region = ms.by_region(grid)
    # each region's LP: its model over the row set's structure, with this
    # estimate's b, c and solve state
    lps = {r.id: RegionalLp(build_region_H(grid, r, by_region[r.id])) for r in grid.regions}

    def solve_region(region, terms):
        # the regional solve sees only its own model and BoundaryTerm values
        return solve_wlav_region(lps[region.id], terms)

    def boundary_power(conv, ac_res, dc_res):
        ac_model = lps[grid.node(conv.aux_node).region].model
        dc_model = lps[grid.node(conv.dc_node).region].model
        return (float(ac_model.boundary[conv.id] @ ac_res.x),
                float(ac_model.boundary_q[conv.id] @ ac_res.x),
                float(dc_model.boundary[conv.id] @ dc_res.x))

    def stays_optimal(region, terms, top):
        return lps[region.id].stays_optimal(terms, top)

    estimate = _coordinate(grid, ms.measurements, params, solve_region, boundary_power,
                           stays_optimal)
    estimate.wall_time = time.perf_counter() - t_start
    return estimate


# -- DWLS ----------------------------------------------------------------------


def run_dwls(grid: GridModel, ms: MeasurementSet,
             params: CoordinationParams = CoordinationParams()) -> SystemEstimate:
    """Distributed nonlinear WLS under the same partition and packet exchange,
    with a quadratic boundary penalty and a per-region normalized-residual
    test; any rejection triggers one full re-run without the rejected
    readings, on the models the test left with their rows dropped."""
    t_start = time.perf_counter()
    by_region = ms.by_region(grid)
    models = {r.id: build_region_model(grid, r, by_region[r.id]) for r in grid.regions}
    estimate = _dwls_loop(grid, ms.measurements, models, params)
    if params.nr_test:
        tests = {rid: lnr_test(model, estimate.regions[rid]) for rid, model in models.items()}
        flagged = {idx for out in tests.values() for idx, _ in out.report.flagged}
        if flagged:
            readings = [m for i, m in enumerate(ms.measurements) if i not in flagged]
            estimate = _dwls_loop(grid, readings,
                                  {rid: out.model for rid, out in tests.items()}, params)
        estimate.bad_data = {rid: out.report for rid, out in tests.items()}
    estimate.wall_time = time.perf_counter() - t_start
    return estimate


def _dwls_loop(grid, readings, models, params):
    """The coordination loop over the region models; each one's boundary rows
    are its last ``len(region.boundary)`` rows, in ``region.boundary``'s order."""
    warm: dict[int, np.ndarray] = {}

    def solve_region(region, terms):
        model = models[region.id]
        first = len(model.z) - len(region.boundary)
        overrides = {}
        for row, (cid, _) in enumerate(region.boundary, first):
            model.z[row] = terms[cid].neighbor_p + terms[cid].loss_const
            overrides[row] = terms[cid].lam
        result = solve_wls(model, x0=warm.get(region.id), weight_overrides=overrides)
        warm[region.id] = result.x
        return result

    def boundary_power(conv, ac_res, dc_res):
        p_ac, q_ac = ac_branch_flow(
            ac_res.v[conv.aux_node], ac_res.theta[conv.aux_node],
            ac_res.v[conv.ac_node], ac_res.theta[conv.ac_node],
            conv.coupling_r, conv.coupling_x)
        return p_ac, q_ac, dc_res.conv_vars[("pdjc", conv.id)]

    return _coordinate(grid, readings, params, solve_region, boundary_power)


# -- CWLS ----------------------------------------------------------------------


def run_cwls(grid: GridModel, ms: MeasurementSet,
             params: CoordinationParams = CoordinationParams()) -> SystemEstimate:
    """Centralized nonlinear WLS over all regions jointly, with the converter
    balance enforced by high-weight virtual rows and a global NR test (of
    ``params``, only ``nr_test`` applies)."""
    t_start = time.perf_counter()
    model = build_system_model(grid, list(enumerate(ms.measurements)))
    t0 = time.perf_counter()
    result = solve_wls(model)
    bad_data = {}
    if params.nr_test:
        out = lnr_test(model, result)
        result, bad_data = out.result, {-1: out.report}
    wall = time.perf_counter() - t0
    estimate = SystemEstimate(
        v=result.v, theta=result.theta, regions={-1: result}, lambdas={},
        iterations=result.iterations, timing=[IterationTiming(wall, wall, 0.0)],
        stop_reason="converged" if result.converged else "cap", bad_data=bad_data)
    estimate.wall_time = time.perf_counter() - t_start
    return estimate


def _merge_states(grid: GridModel, results: dict[int, EstimationResult]):
    v: dict[int, float] = {}
    theta: dict[int, float] = {}
    for region in grid.regions:
        res = results[region.id]
        for node in region.nodes:
            v[node] = res.v[node]
            if grid.node(node).kind == AC:
                theta[node] = res.theta[node]
    return v, theta
