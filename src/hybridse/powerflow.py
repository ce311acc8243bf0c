"""Sequential AC/DC power flow.

Solves each region with Newton-Raphson and alternates between AC and DC
passes, carrying converter powers and losses across the boundary until the
converter balance (AC-side output + loss = DC-side draw) settles.  The solved
state is the ground truth used for telemetry synthesis, estimator scoring and
training-set generation.

The per-grid work is compiled once and kept by the grid (``GridModel.memo``):
for each region and reference node a ``_RegionNewton`` holds the admittance
(the one ``validate_grid`` built) and its diagonal, the free (non-reference)
indices and a Jacobian preallocated at the free size; a ``_PowerFlowPlan``
holds the AC and DC passes' structure (which converters feed which node
index, each DC region's held converter and its lines).  A Newton step
evaluates the mismatches over the full region as before, then fills the
free rows and columns of the Jacobian elementwise from the same products and
makes one ``np.linalg.solve`` call.  Every element is the same arithmetic on
the same operands as forming the full Jacobian and selecting its free
block, so the solves and the results keep their bits.

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
                   ROLE_CONVERTER_AUX, ROLE_JUNCTION)

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


class _RegionNewton:
    """One region's Newton structure for one reference node, kept by the grid
    (module docstring): the admittance and its diagonal, the free (non-reference)
    indices and a Jacobian preallocated at the free size."""

    def __init__(self, grid: GridModel, region: Region, ref_node: int):
        adm = grid.admittance(region.id)
        self.region_id = region.id
        self.index = adm.index
        self.nodes = list(adm.index)            # sorted
        self.ref = adm.index[ref_node]
        self.free = np.array([k for k in range(len(self.nodes)) if k != self.ref],
                             dtype=np.intp)
        self.sub = np.ix_(self.free, self.free)
        nf = self.free.size
        self.diag = np.diag_indices(nf)
        if region.kind == AC:
            self.g, self.b = adm.g, adm.b
            self.g_diag, self.b_diag = adm.g.diagonal(), adm.b.diagonal()
            self.jac = np.empty((2 * nf, 2 * nf))
        else:
            self.y, self.y_diag = adm.y, adm.y.diagonal()
            self.y_free = adm.y[self.sub]
            self.jac = np.empty((nf, nf))

    def spec(self, injections: dict, width: int) -> list[np.ndarray]:
        """``width`` spec vectors from node -> value(s); other nodes are zero."""
        out = [np.zeros(len(self.nodes)) for _ in range(width)]
        for node, values in injections.items():
            k = self.index.get(node)
            if k is None:
                raise ValueError(f"injection at node {node} outside region {self.region_id}")
            for vec, value in zip(out, values if width > 1 else (values,)):
                vec[k] = value
        return out

    def _step(self, jac: np.ndarray, rhs: np.ndarray, mism) -> np.ndarray:
        try:
            return np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowDivergence(
                f"singular Jacobian in region {self.region_id}", mism) from exc

    def _check(self, v: np.ndarray, kind: str, mism) -> None:
        if not 0.0 < v.min() <= v.max() < math.inf:     # false for a NaN too
            raise PowerFlowDivergence(f"{kind} region {self.region_id} diverged", float(mism))

    def _cap(self, kind: str, mism) -> PowerFlowDivergence:
        return PowerFlowDivergence(f"{kind} region {self.region_id} did not converge in "
                                   f"{_NEWTON_MAX_ITER} iterations", float(mism))

    def solve_ac(self, p_spec: np.ndarray, q_spec: np.ndarray, v_ref: float):
        """(V, theta) by node index; raises PowerFlowDivergence if mismatches
        stay above ``_AC_TOL``."""
        free, sub, diag, nf = self.free, self.sub, self.diag, self.free.size
        g, b = self.g, self.b
        # views made per call: a pickled copy of the grid keeps no views
        jac = self.jac
        j11, j12, j21, j22 = jac[:nf, :nf], jac[:nf, nf:], jac[nf:, :nf], jac[nf:, nf:]
        v = np.full(len(self.nodes), 1.0)
        v[self.ref] = v_ref
        th = np.zeros(len(self.nodes))
        if nf == 0:
            return v, th

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

            vf = v[free]
            vv = np.outer(vf, vf)
            a1f, a2f = a1[sub], a2[sub]
            np.multiply(vv, a2f, out=j11)
            j11[diag] = (-q_calc - self.b_diag * v * v)[free]
            np.multiply(vf[:, None], a1f, out=j12)
            j12[diag] = (p_calc / v + self.g_diag * v)[free]
            np.multiply(-vv, a1f, out=j21)
            j21[diag] = (p_calc - self.g_diag * v * v)[free]
            np.multiply(vf[:, None], a2f, out=j22)
            j22[diag] = (q_calc / v - self.b_diag * v)[free]
            step = self._step(jac, np.concatenate([dp, dq]), mism)
            th[free] += step[:nf]
            v[free] += step[nf:]
            self._check(v, "AC", mism)
        else:
            raise self._cap("AC", mism)
        return v, th

    def solve_dc(self, p_spec: np.ndarray, v_ref: float) -> np.ndarray:
        """V by node index with the reference held at ``v_ref``."""
        free, y = self.free, self.y
        v = np.full(len(self.nodes), v_ref)
        if free.size == 0:
            return v

        mism = np.inf
        for _ in range(_NEWTON_MAX_ITER):
            flows = y @ v
            p_calc = v * flows
            dp = (p_spec - p_calc)[free]
            mism = np.abs(dp).max()
            if mism < _DC_TOL:
                break
            np.multiply(v[free][:, None], self.y_free, out=self.jac)
            self.jac[self.diag] = (flows + v * self.y_diag)[free]
            v[free] += self._step(self.jac, dp, mism)
            self._check(v, "DC", mism)
        else:
            raise self._cap("DC", mism)
        return v


def _newton(grid: GridModel, region: Region, ref_node: int) -> _RegionNewton:
    return grid.memo(("newton", region.id, ref_node),
                     lambda: _RegionNewton(grid, region, ref_node))


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
    if ref_node is None:
        ref_node = grid.angle_reference(region.id)
    newton = _newton(grid, region, ref_node)
    v, th = newton.solve_ac(*newton.spec(injections, 2), v_ref)
    return dict(zip(newton.nodes, zip(v.tolist(), th.tolist())))


def solve_dc_region(grid: GridModel, region: Region, injections: dict[int, float],
                    ref_node: int, v_ref: float = 1.0) -> dict[int, float]:
    """Newton-Raphson solve of one DC region with a held reference voltage."""
    if region.kind != DC:
        raise ValueError(f"region {region.id} is not DC")
    newton = _newton(grid, region, ref_node)
    return dict(zip(newton.nodes, newton.solve_dc(*newton.spec(injections, 1), v_ref).tolist()))


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


class _PowerFlowPlan:
    """The coupled solve's structure, kept by the grid: each AC region's
    Newton and the converters whose output it injects (the forming converter
    of its angle datum excluded), each DC region's Newton, its held
    (dc_slack) converter, that terminal's lines and the other converters'
    draws, and where each converter's coupling branch reads its state."""

    def __init__(self, grid: GridModel):
        self.ac, self.dc = [], []
        for region in grid.regions:
            if region.kind == AC:
                ref = grid.angle_reference(region.id)
                forming = grid.converter_at_aux(ref)
                newton = _newton(grid, region, ref)
                feeds = [(c.id, newton.index[c.aux_node]) for c in grid.couplings_in(region.id)
                         if forming is None or c.id != forming.id]
                self.ac.append((newton, feeds))
                continue
            held = [grid.converter(cid) for cid, orient in region.boundary
                    if orient == OWNS_DC and grid.converter(cid).control.mode == MODE_DC_SLACK]
            if len(held) != 1:
                raise PowerFlowError(
                    f"DC region {region.id} needs exactly one dc_slack converter")
            ref_conv = held[0]
            newton = _newton(grid, region, ref_conv.dc_node)
            draws = [(cid, newton.index[grid.converter(cid).dc_node])
                     for cid, _ in region.boundary if cid != ref_conv.id]
            lines = [(newton.index[other], g)
                     for other, g in grid.incident_dc_branches(ref_conv.dc_node)]
            self.dc.append((newton, ref_conv, draws, lines))
        # converter -> (AC region id, aux index, ac index, forms its region's datum)
        self.couplings = {}
        for conv in grid.converters:
            rid = grid.node(conv.aux_node).region
            index = grid.admittance(rid).index
            self.couplings[conv.id] = (rid, index[conv.aux_node], index[conv.ac_node],
                                       grid.angle_reference(rid) == conv.aux_node)


def solve_powerflow(grid: GridModel, profile: InjectionProfile) -> PowerFlowResult:
    """Alternating AC/DC solve with converter loss propagation.

    Converges when every converter satisfies the power balance
    |p_vsc + loss - p_djc| <= ``_COUPLING_TOL`` against the latest regional
    solutions.
    """
    _check_profile(grid, profile)
    plan = grid.memo("powerflow", lambda: _PowerFlowPlan(grid))
    p_base = {nw.region_id: np.array([profile.p_at(n) for n in nw.nodes])
              for nw, *_ in plan.ac + plan.dc}
    q_base = {nw.region_id: np.array([profile.q_at(n) for n in nw.nodes])
              for nw, _ in plan.ac}

    # mutable converter boundary estimates
    p_vsc = {c.id: (c.control.p_set if c.control.mode == MODE_PQ else 0.0)
             for c in grid.converters}
    q_vsc = {c.id: c.control.q_set for c in grid.converters}
    v_c = {c.id: 1.0 for c in grid.converters}
    loss = {c.id: 0.0 for c in grid.converters}
    p_djc = {c.id: 0.0 for c in grid.converters}

    ac_states: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    dc_states: dict[int, np.ndarray] = {}
    coupling = math.inf

    def coupling_flow(conv):
        """The aux -> ac coupling-branch flow (P, Q) and the aux voltage."""
        rid, a, i, _ = plan.couplings[conv.id]
        v, th = ac_states[rid]
        vc = float(v[a])
        p_ci, q_ci = ac_branch_flow(vc, float(th[a]), float(v[i]), float(th[i]),
                                    conv.coupling_r, conv.coupling_x)
        return p_ci, q_ci, vc

    for outer in range(1, _MAX_OUTER + 1):
        # AC pass
        for newton, feeds in plan.ac:
            p_spec, q_spec = p_base[newton.region_id].copy(), q_base[newton.region_id].copy()
            for cid, k in feeds:
                p_spec[k], q_spec[k] = p_vsc[cid], q_vsc[cid]
            ac_states[newton.region_id] = newton.solve_ac(p_spec, q_spec, 1.0)

        for conv in grid.converters:
            p_ci, q_ci, vc = coupling_flow(conv)
            v_c[conv.id] = vc
            if plan.couplings[conv.id][3]:
                p_vsc[conv.id], q_vsc[conv.id] = p_ci, q_ci
            loss[conv.id], _ = converter_loss(p_vsc[conv.id], q_vsc[conv.id],
                                              vc, (conv.d1, conv.d2, conv.d3))
            if conv.control.mode == MODE_PQ:
                p_djc[conv.id] = p_vsc[conv.id] + loss[conv.id]

        # DC pass
        for newton, ref_conv, draws, lines in plan.dc:
            p_spec = p_base[newton.region_id].copy()
            for cid, k in draws:
                p_spec[k] = p_spec[k] - p_djc[cid]
            sol = newton.solve_dc(p_spec, ref_conv.control.v_dc_set).tolist()
            dc_states[newton.region_id] = sol
            # balance at the held terminal fixes the converter draw
            v_ref = sol[newton.ref]
            flow_sum = sum(dc_branch_flow(v_ref, sol[other], g) for other, g in lines)
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
            p_ci, q_ci, vc = coupling_flow(conv)
            l, _ = converter_loss(p_ci, q_ci, vc, (conv.d1, conv.d2, conv.d3))
            coupling = max(coupling, abs(p_ci + l - p_djc[conv.id]))
        if coupling <= _COUPLING_TOL:
            break
    else:
        raise PowerFlowDivergence(
            f"outer AC/DC loop did not converge in {_MAX_OUTER} iterations", coupling)

    v: dict[int, float] = {}
    theta: dict[int, float] = {}
    for newton, _ in plan.ac:
        vv, th = ac_states[newton.region_id]
        v.update(zip(newton.nodes, vv.tolist()))
        theta.update(zip(newton.nodes, th.tolist()))
    for newton, *_ in plan.dc:
        v.update(zip(newton.nodes, dc_states[newton.region_id]))

    converters: dict[int, ConverterSolution] = {}
    for conv in grid.converters:
        p_ci, q_ci, vc = coupling_flow(conv)
        l, i_c = converter_loss(p_ci, q_ci, vc, (conv.d1, conv.d2, conv.d3))
        converters[conv.id] = ConverterSolution(p_vsc=p_ci, q_vsc=q_ci, p_loss=l,
                                                i_c=i_c, v_c=vc, p_djc=p_djc[conv.id])

    state = SystemState(v=v, theta=theta)
    return PowerFlowResult(state=state, converters=converters, outer_iterations=outer,
                           max_mismatch=mismatch_residual(grid, profile, state, converters),
                           coupling_residual=coupling)


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
