"""Sequential AC/DC power flow.

Solves each region with Newton-Raphson and alternates between AC and DC
passes, carrying converter powers and losses across the boundary until the
converter balance (AC-side output + loss = DC-side draw) settles.  The solved
state is the ground truth used for telemetry synthesis, estimator scoring and
training-set generation.

Sign conventions: injections are generation-positive; a converter's
``p_vsc``/``q_vsc`` is its AC-side output into the aux node c, and ``p_djc``
is the power the DC region feeds into the converter (negative when the DC
region is a net load).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import (AC, DC, MODE_DC_SLACK, MODE_PQ, OWNS_DC, GridModel, Region,
                   ROLE_CONVERTER_AUX, ROLE_JUNCTION, build_admittance)

_AC_TOL = 1e-8              # regional Newton mismatch tolerances (p.u.)
_DC_TOL = 1e-10
_NEWTON_MAX_ITER = 30       # Newton iterations per regional solve
_MAX_OUTER = 20             # alternating AC/DC passes per power flow
_COUPLING_TOL = 1e-6        # converter balance |p_vsc + loss - p_djc| at convergence


class PowerFlowError(RuntimeError):
    pass


class PowerFlowDivergence(PowerFlowError):
    def __init__(self, message: str, max_mismatch: float):
        super().__init__(f"{message} (max mismatch {max_mismatch:.3e} p.u.)")
        self.max_mismatch = max_mismatch


@dataclass
class InjectionProfile:
    """Per-node active/reactive injections in p.u., generation positive.

    Nodes without an entry inject zero.  The slack node and DC-slack
    converter terminals must not carry entries; their power balances the
    system.
    """

    p: dict[int, float] = field(default_factory=dict)
    q: dict[int, float] = field(default_factory=dict)

    def p_at(self, node: int) -> float:
        return self.p.get(node, 0.0)

    def q_at(self, node: int) -> float:
        return self.q.get(node, 0.0)

    def scaled(self, factor: float) -> "InjectionProfile":
        return InjectionProfile(p={n: v * factor for n, v in self.p.items()},
                                q={n: v * factor for n, v in self.q.items()})


def load_profile(path: str | Path) -> InjectionProfile:
    """Read `node_id,P,Q` CSV (Q blank for DC nodes)."""
    prof = InjectionProfile()
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            node = int(row["node_id"])
            prof.p[node] = float(row["P"])
            if row.get("Q") not in (None, ""):
                prof.q[node] = float(row["Q"])
    return prof


@dataclass
class SystemState:
    """Voltage magnitude per node (p.u.) and angle per AC node (rad)."""

    v: dict[int, float]
    theta: dict[int, float]

    @classmethod
    def flat(cls, grid: GridModel) -> "SystemState":
        return cls(v={n.id: 1.0 for n in grid.nodes},
                   theta={n.id: 0.0 for n in grid.nodes if n.kind == AC})


@dataclass
class ConverterSolution:
    p_vsc: float
    q_vsc: float
    p_loss: float
    i_c: float
    v_c: float
    p_djc: float

    @property
    def balance_residual(self) -> float:
        return abs(self.p_vsc + self.p_loss - self.p_djc)


@dataclass
class PowerFlowResult:
    state: SystemState
    converters: dict[int, ConverterSolution]
    outer_iterations: int
    max_mismatch: float        # back-substitution audit over all non-reference nodes
    coupling_residual: float


# -- primitives --------------------------------------------------------------


def converter_loss(p_c: float, q_c: float, v_c: float,
                   coeffs: tuple[float, float, float]) -> tuple[float, float]:
    """Converter loss and current from its AC-side power and PCC voltage.

    i_c = sqrt(p^2 + q^2) / (sqrt(3) v_c);  loss = d1 + d2 i_c + d3 i_c^2.
    """
    if v_c <= 0:
        raise ValueError("PCC voltage must be positive")
    d1, d2, d3 = coeffs
    i_c = math.hypot(p_c, q_c) / (math.sqrt(3.0) * v_c)
    return d1 + d2 * i_c + d3 * i_c * i_c, i_c


def ac_branch_flow_partials(v_f: float, th_f: float, v_t: float, th_t: float,
                            r: float, x: float):
    """Sending-end (P, Q) on a series r+jx branch, no shunts, and their
    partials with respect to (v_f, th_f, v_t, th_t)."""
    y = 1.0 / complex(r, x)
    dth = th_f - th_t
    return branch_flow_terms(y.real, y.imag, v_f, v_t, math.cos(dth), math.sin(dth))


def branch_flow_terms(g, b, v_f, v_t, cs, sn):
    """(P, Q, dP, dQ) of :func:`ac_branch_flow_partials` from the series
    admittance g + jb and the cosine and sine of the angle difference.  Plain
    arithmetic, so it also runs elementwise on arrays with the same bits."""
    gc_bs = g * cs + b * sn
    gs_bc = g * sn - b * cs
    p = g * v_f * v_f - v_f * v_t * gc_bs
    q = -b * v_f * v_f - v_f * v_t * gs_bc
    dp = (2 * g * v_f - v_t * gc_bs, v_f * v_t * gs_bc, -v_f * gc_bs, -v_f * v_t * gs_bc)
    dq = (-2 * b * v_f - v_t * gs_bc, -v_f * v_t * gc_bs, -v_f * gs_bc, v_f * v_t * gc_bs)
    return p, q, dp, dq


def ac_branch_flow(v_f: float, th_f: float, v_t: float, th_t: float,
                   r: float, x: float) -> tuple[float, float]:
    """Sending-end (P, Q) on a series r+jx branch, no shunts."""
    return ac_branch_flow_partials(v_f, th_f, v_t, th_t, r, x)[:2]


def dc_branch_flow(v_f: float, v_t: float, g: float) -> float:
    """Sending-end power on a DC line: p = v_f (v_f - v_t) g."""
    return v_f * (v_f - v_t) * g


# -- regional Newton solves ---------------------------------------------------


def solve_ac_region(grid: GridModel, region: Region,
                    injections: dict[int, tuple[float, float]],
                    ref_node: int | None = None, v_ref: float = 1.0
                    ) -> dict[int, tuple[float, float]]:
    """Newton-Raphson solve of one AC region.

    ``injections`` maps node -> (P, Q) for non-reference nodes (missing
    nodes inject zero).  Returns node -> (V, theta).  Raises
    PowerFlowDivergence if mismatches stay above ``_AC_TOL``.
    """
    if region.kind != AC:
        raise ValueError(f"region {region.id} is not AC")
    adm = build_admittance(grid, region)
    nodes = sorted(region.nodes)
    n = len(nodes)
    if ref_node is None:
        ref_node = grid.angle_reference(region.id)
    ref = adm.index[ref_node]
    free = [k for k in range(n) if k != ref]

    p_spec = np.zeros(n)
    q_spec = np.zeros(n)
    for node, (p, q) in injections.items():
        if node not in adm.index:
            raise ValueError(f"injection at node {node} outside region {region.id}")
        p_spec[adm.index[node]] = p
        q_spec[adm.index[node]] = q

    g, b = adm.g, adm.b
    v = np.full(n, 1.0)
    v[ref] = v_ref
    th = np.zeros(n)

    if n == 1:
        return {ref_node: (v_ref, 0.0)}

    mism = np.inf
    for _ in range(_NEWTON_MAX_ITER):
        dth = th[:, None] - th[None, :]
        cs, sn = np.cos(dth), np.sin(dth)
        a1 = g * cs + b * sn
        a2 = g * sn - b * cs
        p_calc = v * (a1 @ v)
        q_calc = v * (a2 @ v)
        dp = (p_spec - p_calc)[free]
        dq = (q_spec - q_calc)[free]
        mism = max(np.abs(dp).max(), np.abs(dq).max())
        if mism < _AC_TOL:
            break

        vv = np.outer(v, v)
        j11 = vv * a2
        np.fill_diagonal(j11, -q_calc - b.diagonal() * v * v)
        j12 = v[:, None] * a1
        np.fill_diagonal(j12, p_calc / v + g.diagonal() * v)
        j21 = -vv * a1
        np.fill_diagonal(j21, p_calc - g.diagonal() * v * v)
        j22 = v[:, None] * a2
        np.fill_diagonal(j22, q_calc / v - b.diagonal() * v)

        jac = np.block([[j11[np.ix_(free, free)], j12[np.ix_(free, free)]],
                        [j21[np.ix_(free, free)], j22[np.ix_(free, free)]]])
        try:
            step = np.linalg.solve(jac, np.concatenate([dp, dq]))
        except np.linalg.LinAlgError as exc:
            raise PowerFlowDivergence(f"singular Jacobian in region {region.id}", mism) from exc
        nf = len(free)
        th[free] += step[:nf]
        v[free] += step[nf:]
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise PowerFlowDivergence(f"AC region {region.id} diverged", float(mism))
    else:
        raise PowerFlowDivergence(
            f"AC region {region.id} did not converge in {_NEWTON_MAX_ITER} iterations",
            float(mism))

    return {node: (float(v[adm.index[node]]), float(th[adm.index[node]])) for node in nodes}


def solve_dc_region(grid: GridModel, region: Region, injections: dict[int, float],
                    ref_node: int, v_ref: float = 1.0) -> dict[int, float]:
    """Newton-Raphson solve of one DC region with a held reference voltage."""
    if region.kind != DC:
        raise ValueError(f"region {region.id} is not DC")
    adm = build_admittance(grid, region)
    nodes = sorted(region.nodes)
    n = len(nodes)
    ref = adm.index[ref_node]
    free = [k for k in range(n) if k != ref]

    p_spec = np.zeros(n)
    for node, p in injections.items():
        if node not in adm.index:
            raise ValueError(f"injection at node {node} outside region {region.id}")
        p_spec[adm.index[node]] = p

    y = adm.y
    v = np.full(n, v_ref)
    if n == 1:
        return {ref_node: v_ref}

    mism = np.inf
    for _ in range(_NEWTON_MAX_ITER):
        flows = y @ v
        p_calc = v * flows
        dp = (p_spec - p_calc)[free]
        mism = np.abs(dp).max()
        if mism < _DC_TOL:
            break
        jac = v[:, None] * y
        np.fill_diagonal(jac, flows + v * y.diagonal())
        try:
            step = np.linalg.solve(jac[np.ix_(free, free)], dp)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowDivergence(f"singular Jacobian in region {region.id}", mism) from exc
        v[free] += step
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise PowerFlowDivergence(f"DC region {region.id} diverged", float(mism))
    else:
        raise PowerFlowDivergence(
            f"DC region {region.id} did not converge in {_NEWTON_MAX_ITER} iterations",
            float(mism))

    return {node: float(v[adm.index[node]]) for node in nodes}


# -- coupled solve ------------------------------------------------------------


def _check_profile(grid: GridModel, profile: InjectionProfile) -> None:
    held = {grid.slack}
    held |= {c.dc_node for c in grid.converters if c.control.mode == MODE_DC_SLACK}
    for node in set(profile.p) | set(profile.q):
        n = grid.node(node)
        if node in held and (profile.p_at(node) or profile.q_at(node)):
            raise ValueError(f"node {node} holds voltage and cannot carry a fixed injection")
        if n.role in (ROLE_JUNCTION, ROLE_CONVERTER_AUX) and (
                profile.p_at(node) or profile.q_at(node)):
            raise ValueError(f"node {node} is a {n.role} node and must inject zero")
        if n.kind == DC and node in profile.q and profile.q[node]:
            raise ValueError(f"DC node {node} cannot carry reactive injection")


def solve_powerflow(grid: GridModel, profile: InjectionProfile) -> PowerFlowResult:
    """Alternating AC/DC solve with converter loss propagation.

    Converges when every converter satisfies the power balance
    |p_vsc + loss - p_djc| <= ``_COUPLING_TOL`` against the latest regional
    solutions.
    """
    _check_profile(grid, profile)

    ac_regions = [r for r in grid.regions if r.kind == AC]
    dc_regions = [r for r in grid.regions if r.kind == DC]
    for region in dc_regions:
        slack_convs = [grid.converter(cid) for cid, orient in region.boundary
                       if orient == OWNS_DC
                       and grid.converter(cid).control.mode == MODE_DC_SLACK]
        if len(slack_convs) != 1:
            raise PowerFlowError(
                f"DC region {region.id} needs exactly one dc_slack converter")

    # mutable converter boundary estimates
    p_vsc = {c.id: (c.control.p_set if c.control.mode == MODE_PQ else 0.0)
             for c in grid.converters}
    q_vsc = {c.id: c.control.q_set for c in grid.converters}
    v_c = {c.id: 1.0 for c in grid.converters}
    loss = {c.id: 0.0 for c in grid.converters}
    p_djc = {c.id: 0.0 for c in grid.converters}

    ac_states: dict[int, dict[int, tuple[float, float]]] = {}
    dc_states: dict[int, dict[int, float]] = {}
    coupling = math.inf

    for outer in range(1, _MAX_OUTER + 1):
        # AC pass
        for region in ac_regions:
            inj: dict[int, tuple[float, float]] = {}
            for node in region.nodes:
                inj[node] = (profile.p_at(node), profile.q_at(node))
            ref = grid.angle_reference(region.id)
            forming = grid.converter_at_aux(ref)
            for conv in grid.couplings_in(region.id):
                if forming is not None and conv.id == forming.id:
                    continue
                inj[conv.aux_node] = (p_vsc[conv.id], q_vsc[conv.id])
            inj.pop(ref, None)
            ac_states[region.id] = solve_ac_region(grid, region, inj, ref_node=ref)

        for conv in grid.converters:
            p_ci, q_ci, vc = _coupling_flow(grid, ac_states, conv)
            v_c[conv.id] = vc
            if grid.angle_reference(grid.node(conv.aux_node).region) == conv.aux_node:
                p_vsc[conv.id], q_vsc[conv.id] = p_ci, q_ci
            loss[conv.id], _ = converter_loss(p_vsc[conv.id], q_vsc[conv.id],
                                              vc, (conv.d1, conv.d2, conv.d3))
            if conv.control.mode == MODE_PQ:
                p_djc[conv.id] = p_vsc[conv.id] + loss[conv.id]

        # DC pass
        for region in dc_regions:
            inj = {node: profile.p_at(node) for node in region.nodes}
            ref_conv = None
            for cid, orient in region.boundary:
                conv = grid.converter(cid)
                if orient == OWNS_DC and conv.control.mode == MODE_DC_SLACK:
                    ref_conv = conv
                else:
                    inj[conv.dc_node] = inj.get(conv.dc_node, 0.0) - p_djc[conv.id]
            inj.pop(ref_conv.dc_node, None)
            sol = solve_dc_region(grid, region, inj, ref_node=ref_conv.dc_node,
                                  v_ref=ref_conv.control.v_dc_set)
            dc_states[region.id] = sol
            # balance at the held terminal fixes the converter draw
            flow_sum = sum(dc_branch_flow(sol[ref_conv.dc_node], sol[other], g)
                           for other, g in grid.incident_dc_branches(ref_conv.dc_node))
            p_djc[ref_conv.id] = profile.p_at(ref_conv.dc_node) - flow_sum
            p = p_djc[ref_conv.id] - loss[ref_conv.id]
            for _ in range(20):
                new_loss, _ = converter_loss(p, q_vsc[ref_conv.id], v_c[ref_conv.id],
                                             (ref_conv.d1, ref_conv.d2, ref_conv.d3))
                p_new = p_djc[ref_conv.id] - new_loss
                if abs(p_new - p) < 1e-14:
                    p = p_new
                    break
                p = p_new
            p_vsc[ref_conv.id] = p
            loss[ref_conv.id], _ = converter_loss(p, q_vsc[ref_conv.id], v_c[ref_conv.id],
                                                  (ref_conv.d1, ref_conv.d2, ref_conv.d3))

        # coupling residual against the latest AC solution
        coupling = 0.0
        for conv in grid.converters:
            p_ci, q_ci, vc = _coupling_flow(grid, ac_states, conv)
            l, _ = converter_loss(p_ci, q_ci, vc, (conv.d1, conv.d2, conv.d3))
            coupling = max(coupling, abs(p_ci + l - p_djc[conv.id]))
        if coupling <= _COUPLING_TOL:
            break
    else:
        raise PowerFlowDivergence(
            f"outer AC/DC loop did not converge in {_MAX_OUTER} iterations", coupling)

    v: dict[int, float] = {}
    theta: dict[int, float] = {}
    for region in ac_regions:
        for node, (vv, th) in ac_states[region.id].items():
            v[node], theta[node] = vv, th
    for region in dc_regions:
        v.update(dc_states[region.id])

    converters: dict[int, ConverterSolution] = {}
    for conv in grid.converters:
        p_ci, q_ci, vc = _coupling_flow(grid, ac_states, conv)
        l, i_c = converter_loss(p_ci, q_ci, vc, (conv.d1, conv.d2, conv.d3))
        converters[conv.id] = ConverterSolution(p_vsc=p_ci, q_vsc=q_ci, p_loss=l,
                                                i_c=i_c, v_c=vc, p_djc=p_djc[conv.id])

    state = SystemState(v=v, theta=theta)
    return PowerFlowResult(state=state, converters=converters, outer_iterations=outer,
                           max_mismatch=mismatch_residual(grid, profile, state, converters),
                           coupling_residual=coupling)


def _coupling_flow(grid: GridModel, ac_states, conv) -> tuple[float, float, float]:
    """A converter's aux -> ac coupling-branch flow (P, Q) and its aux
    voltage, read from the state of the AC region holding its aux node."""
    st = ac_states[grid.node(conv.aux_node).region]
    vc, thc = st[conv.aux_node]
    vi, thi = st[conv.ac_node]
    p_ci, q_ci = ac_branch_flow(vc, thc, vi, thi, conv.coupling_r, conv.coupling_x)
    return p_ci, q_ci, vc


def mismatch_residual(grid: GridModel, profile: InjectionProfile, st: SystemState,
                      converters: dict[int, ConverterSolution]) -> float:
    """Back-substitution audit: recompute every nodal injection from the state
    and compare with the specified profile plus converter terms.  Reference
    nodes (slack, held DC terminals, forming aux nodes) are excluded since
    their injection is an output of the solve.
    """
    skip = {grid.slack}
    for region in grid.regions:
        if region.kind == AC:
            skip.add(grid.angle_reference(region.id))
    skip |= {c.dc_node for c in grid.converters if c.control.mode == MODE_DC_SLACK}

    worst = 0.0
    for node in grid.nodes:
        if node.id in skip:
            continue
        if node.kind == AC:
            p_net = q_net = 0.0
            for other, r, x in grid.incident_ac_branches(node.id):
                p, q = ac_branch_flow(st.v[node.id], st.theta[node.id],
                                      st.v[other], st.theta[other], r, x)
                p_net += p
                q_net += q
            p_exp, q_exp = profile.p_at(node.id), profile.q_at(node.id)
            conv = grid.converter_at_aux(node.id)
            if conv is not None:
                if conv.control.mode == MODE_PQ:
                    p_exp += conv.control.p_set
                    q_exp += conv.control.q_set
                else:
                    p_exp += converters[conv.id].p_vsc
                    q_exp += converters[conv.id].q_vsc
            worst = max(worst, abs(p_net - p_exp), abs(q_net - q_exp))
        else:
            p_net = sum(dc_branch_flow(st.v[node.id], st.v[other], g)
                        for other, g in grid.incident_dc_branches(node.id))
            p_exp = profile.p_at(node.id)
            for conv in grid.converters_at_dc_node(node.id):
                p_exp -= converters[conv.id].p_djc
            worst = max(worst, abs(p_net - p_exp))
    return worst


def conservation_residual(grid: GridModel, profile: InjectionProfile,
                          result: PowerFlowResult) -> float:
    """Generation minus load, line losses and converter losses (p.u.).

    For a converged solve it is, up to the regional Newton tolerances, the
    sum of the converters' balance gaps between p_vsc + loss and p_djc, each
    of which the solve keeps within ``_COUPLING_TOL``.  It can therefore exceed
    ``_COUPLING_TOL`` on a grid with more than one converter.
    """
    st = result.state
    line_losses = 0.0
    for ln in grid.ac_lines:
        pf, _ = ac_branch_flow(st.v[ln.from_node], st.theta[ln.from_node],
                               st.v[ln.to_node], st.theta[ln.to_node], ln.r, ln.x)
        pt, _ = ac_branch_flow(st.v[ln.to_node], st.theta[ln.to_node],
                               st.v[ln.from_node], st.theta[ln.from_node], ln.r, ln.x)
        line_losses += pf + pt
    for conv in grid.converters:
        pf, _ = ac_branch_flow(st.v[conv.aux_node], st.theta[conv.aux_node],
                               st.v[conv.ac_node], st.theta[conv.ac_node],
                               conv.coupling_r, conv.coupling_x)
        pt, _ = ac_branch_flow(st.v[conv.ac_node], st.theta[conv.ac_node],
                               st.v[conv.aux_node], st.theta[conv.aux_node],
                               conv.coupling_r, conv.coupling_x)
        line_losses += pf + pt
    for ln in grid.dc_lines:
        line_losses += (dc_branch_flow(st.v[ln.from_node], st.v[ln.to_node], ln.g)
                        + dc_branch_flow(st.v[ln.to_node], st.v[ln.from_node], ln.g))

    conv_losses = sum(c.p_loss for c in result.converters.values())

    slack_gen = 0.0
    for other, r, x in grid.incident_ac_branches(grid.slack):
        p, _ = ac_branch_flow(st.v[grid.slack], st.theta[grid.slack],
                              st.v[other], st.theta[other], r, x)
        slack_gen += p

    total_profile = sum(profile.p.values())
    return slack_gen + total_profile - line_losses - conv_losses
