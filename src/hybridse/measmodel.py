"""Nonlinear measurement models for weighted least-squares estimation.

Builds, for one region or the whole system, a state vector and the mapping
``h(x)`` / Jacobian of a measurement list.  AC states are (theta, V) with one
angle datum per AC region; DC states are voltages.  A DC region gains one
variable per boundary converter (the power it feeds the converter).  The
whole-system model also carries explicit converter outputs (p_vsc, q_vsc)
and converter draw (p_djc) tied together by three high-weight virtual rows:
aux-node flow equals output (P and Q) and output plus loss equals draw.

``h`` and its Jacobian are evaluated from a compiled form of the rows (the
``telemetry.row_spec`` specs plus the couple rows), built on first use:

* terms: every AC branch flow (an ``ac_flow`` row, each branch of an
  ``ac_inj`` row, the flow part of a ``couple_p``/``couple_q`` row) as its
  v_f, th_f, v_t, th_t columns, P or Q, and g + jb = 1 / (r + jx); every DC
  branch flow as its columns and g; every converter variable a row adds or
  subtracts (the draws of a ``dc_inj`` row, the -p_vsc/-q_vsc of a couple row)
  as its column and sign.  Each term also carries its row and its slot, its
  position within the row.  The angle of a datum node reads a 0.0 appended
  to x and has no Jacobian column.
* ``vmag`` and ``var`` rows read one column; the three ``couple_loss`` rows
  per converter are evaluated in scalars.

One call evaluates all branch terms at once with
``powerflow.branch_flow_terms``, the arithmetic of the scalar
``ac_branch_flow_partials``, so each term has the bits of the scalar call.
Terms are then added slot by slot (term 0 of every row, then term 1, ...),
so each row sums its terms in row order, as the built-in ``sum()`` does.  A
row that is one value rather than a sum starts from -0.0 instead of 0.0: -0.0
is the exact identity of addition, so that value keeps its bits, a -0.0
included.  The result is bit for bit that of evaluating the rows one at a
time.

The model derives from ``telemetry.MeasurementModel``, the base of the linear
model too: the base owns the state read-out (``x0``, ``truth_vector``,
``extract_state``), ``clone()`` and the row lists, and
``telemetry.region_labels`` lays out each region's columns (theta before V
here).  A model is built with its final rows, a tuple, and compiles them once
on construction into the field ``_compiled``.  ``drop_row`` is the one place
the rows change afterwards: the base drops the row's entries and the model
compiles the shorter rows again.  ``clone()`` shares the compiled form with
its original.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import OWNS_AC, GridModel, Region
from .powerflow import branch_flow_terms, dc_branch_flow
from .telemetry import (Measurement, MeasurementModel, TelemetryError, converter_spec,
                        region_labels, row_spec)

SOURCE_VIRTUAL_COUPLING = "virtual_coupling"
VIRTUAL_SIGMA = 1e-6


@dataclass
class NonlinearModel(MeasurementModel):
    index: dict[tuple[str, int], int]
    rows: tuple[tuple, ...]           # telemetry.row_spec specs and couple_* rows
    z: np.ndarray
    sigma: np.ndarray
    sources: list[str]
    meas_indices: list[int]
    measurements: list[Measurement | None]
    grid: GridModel
    angle_refs: dict[int, int]        # region id -> datum node
    scope: str = "nonlinear"
    _compiled: "_CompiledRows" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rows = tuple(self.rows)
        self._compiled = _CompiledRows(self)

    def drop_row(self, i: int) -> None:
        self.rows = self.rows[:i] + self.rows[i + 1:]
        super().drop_row(i)
        self._compiled = _CompiledRows(self)

    def h(self, x: np.ndarray) -> np.ndarray:
        return self.h_jac(x, with_jac=False)[0]

    def h_jac(self, x: np.ndarray, with_jac: bool = True):
        return self._compiled.evaluate(x, with_jac)


class _CompiledRows:
    """A model's rows as index arrays over all their terms (see the module
    docstring)."""

    def __init__(self, model: NonlinearModel):
        index = model.index
        m, n = len(model.rows), model.n_states
        self.shape = (m, n)
        self.h0 = np.zeros(m)
        flows = []     # (row, slot, v_f, th_f, v_t, th_t columns, is P, g, b)
        dc = []        # (row, slot, v_f, v_t columns, g)
        conv = []      # (row, slot, column, sign)
        reads = []     # (row, column)
        self.losses = []  # (row, p_vsc, q_vsc, v_c, p_djc columns, converter)

        def flow(i, slot, f, t, r, x, which):
            y = 1.0 / complex(r, x)
            flows.append((i, slot, index[("v", f)], index.get(("th", f), n),
                          index[("v", t)], index.get(("th", t), n), which == "p",
                          y.real, y.imag))

        for i, row in enumerate(model.rows):
            op = row[0]
            if op in ("ac_flow", "dc_flow", "couple_p", "couple_q"):
                self.h0[i] = -0.0     # one value, not a sum (module docstring)
            if op == "vmag":
                reads.append((i, index[("v", row[1])]))
            elif op == "var":
                reads.append((i, index[row[1:]]))
            elif op == "ac_flow":
                flow(i, 0, *row[1:])
            elif op == "dc_flow":
                _, f, t, g = row
                dc.append((i, 0, index[("v", f)], index[("v", t)], g))
            elif op == "ac_inj":
                _, node, branches, which = row
                for slot, (other, r, x) in enumerate(branches):
                    flow(i, slot, node, other, r, x, which)
            elif op == "dc_inj":
                _, node, branches, convs = row
                for slot, (other, g) in enumerate(branches):
                    dc.append((i, slot, index[("v", node)], index[("v", other)], g))
                for slot, cid in enumerate(convs, len(branches)):
                    conv.append((i, slot, index[("pdjc", cid)], 1.0))
            elif op in ("couple_p", "couple_q"):  # aux->i flow minus p_vsc / q_vsc
                which, cid = op[-1], row[1]
                flow(i, 0, *converter_spec(model.grid.converter(cid), "ac", which)[1:])
                conv.append((i, 1, index[(which + "vsc", cid)], -1.0))
            elif op == "couple_loss":
                cid = row[1]
                c = model.grid.converter(cid)
                self.losses.append((i, index[("pvsc", cid)], index[("qvsc", cid)],
                                    index[("v", c.aux_node)], index[("pdjc", cid)], c))
            else:
                raise TelemetryError(f"unknown row op {op}")

        f_row, f_slot, *f_cols, is_p, self.g, self.b = _fields(flows, 7, 2)
        d_row, d_slot, *d_cols, self.dc_g = _fields(dc, 4, 1)
        c_row, c_slot, self.conv_col, self.sign = _fields(conv, 3, 1)
        self.read_row, self.read_col = _fields(reads, 2, 0)
        self.flow_cols, self.dc_cols = np.array(f_cols), np.array(d_cols)
        self.is_p = is_p.astype(bool)

        # h: the values of the flow, DC and converter terms in that order
        self.h_sum = _SlotSum(np.concatenate((f_row, d_row, c_row)),
                              np.concatenate((f_slot, d_slot, c_slot)))
        # J: the flow partials by (v_f, th_f, v_t, th_t), then the DC partials
        # by (v_f, v_t); a datum angle (column n) has no Jacobian column
        f_cells = np.where(self.flow_cols < n, f_row * n + self.flow_cols, -1)
        d_cells = d_row * n + self.dc_cols
        self.j_sum = _SlotSum(np.concatenate((f_cells.ravel(), d_cells.ravel())),
                              np.concatenate((np.tile(f_slot, 4), np.tile(d_slot, 2))))
        # cells with one term each, set directly: readings and converter variables
        self.const_cells = np.concatenate((self.read_row * n + self.read_col,
                                           c_row * n + self.conv_col))
        self.const_vals = np.concatenate((np.ones(len(reads)), self.sign))

    def evaluate(self, x: np.ndarray, with_jac: bool):
        xe = np.append(x, 0.0)        # column n reads 0.0: the angle of a datum node
        vf, thf, vt, tht = xe[self.flow_cols]
        dth = thf - tht
        p, q, dp, dq = branch_flow_terms(self.g, self.b, vf, vt, np.cos(dth), np.sin(dth))
        uf, ut = xe[self.dc_cols]

        h = self.h0.copy()
        h[self.read_row] = xe[self.read_col]
        self.h_sum.add(h, np.concatenate((np.where(self.is_p, p, q),
                                          dc_branch_flow(uf, ut, self.dc_g),
                                          self.sign * xe[self.conv_col])))
        jac = None
        if with_jac:
            jac = np.zeros(self.shape)
            flat = jac.reshape(-1)
            flat[self.const_cells] = self.const_vals
            partials = (np.where(self.is_p, dp, dq).ravel(),
                        (2 * uf - ut) * self.dc_g, -uf * self.dc_g)
            self.j_sum.add(flat, np.concatenate(partials))
        for i, *cols, conv in self.losses:
            h[i] = _couple_loss(xe, None if jac is None else jac[i], *cols, conv)
        return h, jac


def _fields(terms: list[tuple], n_int: int, n_float: int) -> list[np.ndarray]:
    """Equal-length tuples as one array per field: the first ``n_int`` fields
    as indices, the rest as floats."""
    table = np.array(terms, dtype=float).reshape(-1, n_int + n_float).T
    return [*table[:n_int].astype(np.intp), *table[n_int:].copy()]


class _SlotSum:
    """Adds term values into targets slot by slot: term k of every row at
    once, k = 0, 1, ...  Each target so receives its terms in row order, and
    no target repeats within one slot.  Negative targets are skipped."""

    def __init__(self, targets: np.ndarray, slots: np.ndarray):
        keep = np.flatnonzero(targets >= 0)
        self.order = keep[np.argsort(slots[keep], kind="stable")]
        ordered = slots[self.order]
        bounds = np.searchsorted(ordered, np.arange(ordered.max(initial=-1) + 2))
        targets = targets[self.order]
        self.parts = [(targets[lo:hi], lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def add(self, out: np.ndarray, values: np.ndarray) -> None:
        values = values[self.order]
        for targets, lo, hi in self.parts:
            out[targets] += values[lo:hi]


def _couple_loss(x, jrow, cp, cq, cv, cd, conv):
    """p_vsc + loss(p_vsc, q_vsc, v_c) - p_djc, with its partials added into
    ``jrow`` unless it is None."""
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


def build_system_model(grid: GridModel,
                       measurements: list[tuple[int, Measurement]]) -> NonlinearModel:
    """Whole-system model with converter variables and virtual coupling rows."""
    labels: list[tuple[str, int]] = []
    angle_refs: dict[int, int] = {}
    for region in grid.regions:
        cols, refs = region_labels(grid, region)
        labels += [lab for lab in cols if lab[0] != "pdjc"]   # draws go below
        angle_refs.update(refs)
    for conv in grid.converters:
        labels += [("pvsc", conv.id), ("qvsc", conv.id), ("pdjc", conv.id)]
    couple = [((op, conv.id), 0.0, VIRTUAL_SIGMA, SOURCE_VIRTUAL_COUPLING)
              for conv in grid.converters
              for op in ("couple_p", "couple_q", "couple_loss")]
    return _assemble(grid, labels, angle_refs, measurements, None, couple, "system")


def build_region_model(grid: GridModel, region: Region,
                       measurements: list[tuple[int, Measurement]]) -> NonlinearModel:
    """Single-region model (theta/V for AC; V plus converter draws for DC),
    its measurement rows followed by one ``"boundary"`` row per converter of
    ``region.boundary`` (z 0, sigma 1): the converter power on the region's
    side, which DWLS ties to the neighbour's claim."""
    labels, angle_refs = region_labels(grid, region)
    boundary = [(converter_spec(grid.converter(cid), "ac" if orient == OWNS_AC else "dc"),
                 0.0, 1.0, "boundary") for cid, orient in region.boundary]
    return _assemble(grid, labels, angle_refs, measurements, region, boundary,
                     f"region:{region.id}")


def _assemble(grid, labels, angle_refs, measurements, region, extra, scope):
    """The model of ``measurements`` followed by the ``extra`` rows, given as
    (row, z, sigma, source); a region model reads converter powers through
    the region's boundary variables, the system model through its own."""
    index = {lab: k for k, lab in enumerate(labels)}
    rows = [row_spec(grid, m, region, region is None) for _, m in measurements]
    rows += [row for row, *_ in extra]
    return NonlinearModel(
        index=index, rows=rows,
        z=np.array([m.value for _, m in measurements] + [e[1] for e in extra], dtype=float),
        sigma=np.array([m.sigma for _, m in measurements] + [e[2] for e in extra], dtype=float),
        sources=[m.source for _, m in measurements] + [e[3] for e in extra],
        meas_indices=[gidx for gidx, _ in measurements] + [-1] * len(extra),
        measurements=[m for _, m in measurements] + [None] * len(extra),
        grid=grid, angle_refs=angle_refs, scope=scope)
