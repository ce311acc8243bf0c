"""Nonlinear measurement models for weighted least-squares estimation.

Builds, for one region or the whole system, a state vector and the mapping
``h(x)`` / Jacobian of a measurement list.  AC states are (theta, V) with one
angle datum per AC region; DC states are voltages.  A DC region gains one
variable per boundary converter (the power it feeds the converter).  The
whole-system model also carries explicit converter outputs (p_vsc, q_vsc)
and converter draw (p_djc) tied together by three high-weight virtual rows:
aux-node flow equals output (P and Q) and output plus loss equals draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import AC, OWNS_DC, GridModel, Region
from .powerflow import SystemState, ac_branch_flow_partials
from .telemetry import Measurement, TelemetryError, converter_spec, row_spec

SOURCE_VIRTUAL_COUPLING = "virtual_coupling"
VIRTUAL_SIGMA = 1e-6


@dataclass
class NonlinearModel:
    labels: list[tuple[str, int]]
    index: dict[tuple[str, int], int]
    rows: list[tuple]                 # telemetry.row_spec specs and couple_* rows
    z: np.ndarray
    sigma: np.ndarray
    sources: list[str]
    meas_indices: list[int]
    measurements: list[Measurement | None]
    grid: GridModel
    angle_refs: dict[int, int]        # region id -> datum node
    scope: str = "nonlinear"

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def clone(self) -> "NonlinearModel":
        import copy
        out = copy.copy(self)
        out.rows = list(self.rows)
        out.z = np.array(self.z)
        out.sigma = np.array(self.sigma)
        out.sources = list(self.sources)
        out.meas_indices = list(self.meas_indices)
        out.measurements = list(self.measurements)
        return out

    def drop_row(self, i: int) -> None:
        self.rows = self.rows[:i] + self.rows[i + 1:]
        self.z = np.delete(self.z, i)
        self.sigma = np.delete(self.sigma, i)
        self.sources = self.sources[:i] + self.sources[i + 1:]
        self.meas_indices = self.meas_indices[:i] + self.meas_indices[i + 1:]
        self.measurements = self.measurements[:i] + self.measurements[i + 1:]

    def append_row(self, row: tuple, z: float, sigma: float, source: str,
                   meas_index: int = -1) -> None:
        self.rows.append(row)
        self.z = np.append(self.z, z)
        self.sigma = np.append(self.sigma, sigma)
        self.sources.append(source)
        self.meas_indices.append(meas_index)
        self.measurements.append(None)

    def x0(self) -> np.ndarray:
        x = np.zeros(self.n_states)
        for (tag, _), col in self.index.items():
            if tag == "v":
                x[col] = 1.0
        return x

    def h(self, x: np.ndarray) -> np.ndarray:
        return self.h_jac(x, with_jac=False)[0]

    def h_jac(self, x: np.ndarray, with_jac: bool = True):
        m = len(self.rows)
        h = np.zeros(m)
        jac = np.zeros((m, self.n_states)) if with_jac else None
        for i, row in enumerate(self.rows):
            h[i] = self._eval_row(row, x, jac[i] if with_jac else None)
        return h, jac

    # -- state access ---------------------------------------------------------

    def _v(self, x, node):
        return x[self.index[("v", node)]]

    def _th(self, x, node):
        col = self.index.get(("th", node))
        return 0.0 if col is None else x[col]

    def _vcol(self, node):
        return self.index[("v", node)]

    def _thcol(self, node):
        return self.index.get(("th", node))

    def extract_state(self, x: np.ndarray):
        """x -> (v by node, theta by node, converter vars by (tag, id))."""
        v: dict[int, float] = {}
        theta: dict[int, float] = {}
        conv: dict[tuple[str, int], float] = {}
        for (tag, key), col in self.index.items():
            if tag == "v":
                v[key] = float(x[col])
            elif tag == "th":
                theta[key] = float(x[col])
            else:
                conv[(tag, key)] = float(x[col])
        for ref in self.angle_refs.values():
            theta[ref] = 0.0
        return v, theta, conv

    def truth_vector(self, state: SystemState, converters=None) -> np.ndarray:
        x = np.zeros(self.n_states)
        for (tag, key), col in self.index.items():
            if tag == "v":
                x[col] = state.v[key]
            elif tag == "th":
                x[col] = state.theta[key]
            elif converters is not None:
                sol = converters[key]
                x[col] = {"pvsc": sol.p_vsc, "qvsc": sol.q_vsc,
                          "pdjc": sol.p_djc}[tag]
        return x

    # -- row evaluation ---------------------------------------------------------

    def _flow_term(self, x, jrow, f, t, r, x_, which):
        vf, vt = self._v(x, f), self._v(x, t)
        thf, tht = self._th(x, f), self._th(x, t)
        p, q, dp, dq = ac_branch_flow_partials(vf, thf, vt, tht, r, x_)
        val, d = (p, dp) if which == "p" else (q, dq)
        if jrow is not None:
            jrow[self._vcol(f)] += d[0]
            jrow[self._vcol(t)] += d[2]
            cf, ct = self._thcol(f), self._thcol(t)
            if cf is not None:
                jrow[cf] += d[1]
            if ct is not None:
                jrow[ct] += d[3]
        return val

    def _dc_flow_term(self, x, jrow, f, t, g):
        vf, vt = self._v(x, f), self._v(x, t)
        if jrow is not None:
            jrow[self._vcol(f)] += (2 * vf - vt) * g
            jrow[self._vcol(t)] += -vf * g
        return vf * (vf - vt) * g

    def _eval_row(self, row, x, jrow):
        op = row[0]
        if op == "vmag":
            _, node = row
            if jrow is not None:
                jrow[self._vcol(node)] = 1.0
            return self._v(x, node)
        if op == "ac_flow":
            _, f, t, r, x_, which = row
            return self._flow_term(x, jrow, f, t, r, x_, which)
        if op == "dc_flow":
            _, f, t, g = row
            return self._dc_flow_term(x, jrow, f, t, g)
        if op == "ac_inj":
            _, node, branches, which = row
            return sum(self._flow_term(x, jrow, node, other, r, x_, which)
                       for other, r, x_ in branches)
        if op == "dc_inj":
            _, node, branches, convs = row
            total = sum(self._dc_flow_term(x, jrow, node, other, g)
                        for other, g in branches)
            for cid in convs:
                col = self.index[("pdjc", cid)]
                if jrow is not None:
                    jrow[col] += 1.0
                total += x[col]
            return total
        if op == "var":
            _, tag, key = row
            col = self.index[(tag, key)]
            if jrow is not None:
                jrow[col] = 1.0
            return x[col]
        if op in ("couple_p", "couple_q"):  # aux->i flow minus p_vsc / q_vsc
            _, cid = row
            which = op[-1]
            val = self._eval_row(converter_spec(self.grid.converter(cid), "ac", which),
                                 x, jrow)
            col = self.index[(which + "vsc", cid)]
            if jrow is not None:
                jrow[col] -= 1.0
            return val - x[col]
        if op == "couple_loss":  # p_vsc + loss(p_vsc, q_vsc, v_c) - p_djc
            _, cid = row
            conv = self.grid.converter(cid)
            cp, cq = self.index[("pvsc", cid)], self.index[("qvsc", cid)]
            cd = self.index[("pdjc", cid)]
            cv = self._vcol(conv.aux_node)
            p, q, vc = x[cp], x[cq], x[cv]
            s = math.hypot(p, q)
            i_c = s / (math.sqrt(3.0) * vc)
            loss = conv.d1 + conv.d2 * i_c + conv.d3 * i_c * i_c
            if jrow is not None:
                dloss_di = conv.d2 + 2.0 * conv.d3 * i_c
                if s > 1e-12:
                    di_dp = p / (math.sqrt(3.0) * vc * s)
                    di_dq = q / (math.sqrt(3.0) * vc * s)
                else:
                    di_dp = di_dq = 0.0
                jrow[cp] += 1.0 + dloss_di * di_dp
                jrow[cq] += dloss_di * di_dq
                jrow[cv] += dloss_di * (-i_c / vc)
                jrow[cd] -= 1.0
            return p + loss - x[cd]
        raise TelemetryError(f"unknown row op {op}")


def build_system_model(grid: GridModel,
                       measurements: list[tuple[int, Measurement]]) -> NonlinearModel:
    """Whole-system model with converter variables and virtual coupling rows."""
    labels: list[tuple[str, int]] = []
    angle_refs: dict[int, int] = {}
    for region in grid.regions:
        nodes = sorted(region.nodes)
        if region.kind == AC:
            ref = grid.angle_reference(region.id)
            angle_refs[region.id] = ref
            labels += [("th", n) for n in nodes if n != ref]
        labels += [("v", n) for n in nodes]
    for conv in grid.converters:
        labels += [("pvsc", conv.id), ("qvsc", conv.id), ("pdjc", conv.id)]
    model = _assemble(grid, labels, angle_refs, measurements, None, True)
    model.scope = "system"

    for conv in grid.converters:
        for op in ("couple_p", "couple_q", "couple_loss"):
            model.rows.append((op, conv.id))
            model.meas_indices.append(-1)
            model.measurements.append(None)
            model.sources.append(SOURCE_VIRTUAL_COUPLING)
    model.z = np.concatenate([model.z, np.zeros(3 * len(grid.converters))])
    model.sigma = np.concatenate([model.sigma,
                                  np.full(3 * len(grid.converters), VIRTUAL_SIGMA)])
    return model


def build_region_model(grid: GridModel, region: Region,
                       measurements: list[tuple[int, Measurement]]) -> NonlinearModel:
    """Single-region model (theta/V for AC; V plus converter draws for DC)."""
    nodes = sorted(region.nodes)
    labels: list[tuple[str, int]] = []
    angle_refs: dict[int, int] = {}
    if region.kind == AC:
        ref = grid.angle_reference(region.id)
        angle_refs[region.id] = ref
        labels += [("th", n) for n in nodes if n != ref]
        labels += [("v", n) for n in nodes]
    else:
        labels += [("v", n) for n in nodes]
        for cid, orient in region.boundary:
            if orient == OWNS_DC:
                labels.append(("pdjc", cid))
    model = _assemble(grid, labels, angle_refs, measurements, region, False)
    model.scope = f"region:{region.id}"
    return model


def _assemble(grid, labels, angle_refs, measurements, region, conv_vars):
    index = {lab: k for k, lab in enumerate(labels)}
    rows, z, sigma, sources, midx, mlist = [], [], [], [], [], []
    for gidx, m in measurements:
        rows.append(row_spec(grid, m, region, conv_vars))
        z.append(m.value)
        sigma.append(m.sigma)
        sources.append(m.source)
        midx.append(gidx)
        mlist.append(m)
    return NonlinearModel(labels=labels, index=index, rows=rows,
                          z=np.asarray(z, dtype=float),
                          sigma=np.asarray(sigma, dtype=float), sources=sources,
                          meas_indices=midx, measurements=mlist, grid=grid,
                          angle_refs=angle_refs)
