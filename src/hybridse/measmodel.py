"""Nonlinear measurement models for weighted least-squares estimation.

Builds, for one region or the whole system, a state vector and the mapping
``h(x)`` / Jacobian of a measurement list.  AC states are (theta, V) with one
angle datum per AC region; DC states are voltages.  A DC region gains one
variable per boundary converter (the power it feeds the converter).  The
whole-system model also carries explicit converter outputs (p_vsc, q_vsc)
and converter draw (p_djc) tied together by three high-weight virtual rows:
aux-node flow equals output (P and Q) and output plus loss equals draw.

``h`` and its Jacobian are evaluated from a compiled form of the rows,
``powerflow.CompiledRows`` (the powerflow module docstring says how its
in-order sums keep the bits of evaluating the rows one at a time), extended
here by the couple rows: the flow part of a ``couple_p``/``couple_q`` row is
a branch term and its -p_vsc/-q_vsc a variable term of coefficient -1, and
each converter's ``couple_loss`` row is evaluated in scalars.

The model derives from ``telemetry.MeasurementModel``, the base of the
linear model too: the base owns the state read-out (``x0``,
``extract_state``), ``clone()`` and the row lists, and
``telemetry.region_labels`` lays out each region's columns (theta before V
here).  A model's rows are fixed by its scope (a region or the system) and
its row set (``telemetry.row_keys``), so the grid keeps one compiled form
per (scope, row set) (``GridModel.memo``): the column index, the rows, a
tuple, and their ``_CompiledRows``.  Every model of that key shares them,
and ``row_spec`` runs only when the grid has no entry for it.  A model is
built only from that entry (``_assemble``); it never compiles its own rows.
``drop_row`` is the one place the rows change afterwards: the base drops the
row's entries and the model masks the compiled tables, keeping the positions
of its rows in ``_keep``, so nothing is compiled again.  Each row and each cell
of h and J sums only its own row's terms, so ``h[keep]`` and ``J[keep]`` are
bit for bit those of compiling the shorter rows.  ``clone()`` shares the
compiled form and the mask with its original.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import OWNS_AC, GridModel, Region
from .powerflow import CompiledRows
from .telemetry import (Measurement, MeasurementModel, converter_spec, region_labels,
                        row_keys, row_spec)

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
    angle_refs: dict[int, int]        # region id -> datum node
    scope: str
    _compiled: _CompiledRows = field(repr=False, compare=False)     # of ``rows``
    # rows of the compiled tables the model keeps, None while it keeps all
    _keep: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def drop_row(self, i: int) -> None:
        keep = np.arange(len(self.rows)) if self._keep is None else self._keep
        self._keep = np.delete(keep, i)
        self.rows = self.rows[:i] + self.rows[i + 1:]
        super().drop_row(i)

    def h(self, x: np.ndarray) -> np.ndarray:
        return self.h_jac(x, with_jac=False)[0]

    def h_jac(self, x: np.ndarray, with_jac: bool = True):
        h, jac = self._compiled.evaluate(x, with_jac)
        if self._keep is None:
            return h, jac
        return h[self._keep], None if jac is None else jac[self._keep]


class _CompiledRows(CompiledRows):
    """A model's rows compiled (module docstring): ``powerflow.CompiledRows``
    plus the whole-system model's converter coupling rows."""

    def __init__(self, grid: GridModel, index: dict[tuple[str, int], int], rows):
        self.grid = grid
        self.losses = []  # (row, p_vsc, q_vsc, v_c, p_djc columns, converter)
        super().__init__(index, rows)

    def _add_row(self, terms, i: int, row: tuple) -> None:
        op, index = row[0], terms.index
        if op in ("couple_p", "couple_q"):    # aux->i flow minus p_vsc / q_vsc
            which, cid = op[-1], row[1]
            terms.flow(i, *converter_spec(self.grid.converter(cid), "ac", which)[1:])
            terms.var(i, index[(which + "vsc", cid)], -1.0)
        elif op == "couple_loss":
            cid = row[1]
            c = self.grid.converter(cid)
            self.losses.append((i, index[("pvsc", cid)], index[("qvsc", cid)],
                                index[("v", c.aux_node)], index[("pdjc", cid)], c))
        else:
            super()._add_row(terms, i, row)

    def evaluate(self, x: np.ndarray, with_jac: bool):
        h, jac = super().evaluate(x, with_jac)
        for i, *cols, conv in self.losses:
            h[i] = _couple_loss(x, None if jac is None else jac[i], *cols, conv)
        return h, jac


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
    return _assemble(grid, None, measurements, "system")


def build_region_model(grid: GridModel, region: Region,
                       measurements: list[tuple[int, Measurement]]) -> NonlinearModel:
    """Single-region model (theta/V for AC; V plus converter draws for DC),
    its measurement rows followed by one ``"boundary"`` row per converter of
    ``region.boundary`` (z 0, sigma 1): the converter power on the region's
    side, which DWLS ties to the neighbour's claim."""
    return _assemble(grid, region, measurements, f"region:{region.id}")


def _assemble(grid, region, measurements, scope):
    """The model of ``measurements`` followed by the scope's extra rows, from
    the compiled form the grid keeps for (scope, row set)."""
    measurements = list(measurements)
    index, angle_refs, rows, compiled, extra = grid.memo(
        ("nonlinear", scope, row_keys(measurements)),
        lambda: _compile(grid, region, measurements))
    return NonlinearModel(
        index=index, rows=rows,
        z=np.array([m.value for _, m in measurements] + [e[0] for e in extra], dtype=float),
        sigma=np.array([m.sigma for _, m in measurements] + [e[1] for e in extra], dtype=float),
        sources=[m.source for _, m in measurements] + [e[2] for e in extra],
        meas_indices=[gidx for gidx, _ in measurements] + [-1] * len(extra),
        measurements=[m for _, m in measurements] + [None] * len(extra),
        angle_refs=angle_refs, scope=scope, _compiled=compiled)


def _compile(grid, region, measurements):
    """(index, angle datums, rows, their ``_CompiledRows``, (z, sigma, source)
    of each extra row) of a scope and row set; a region model reads
    converter powers through the region's boundary variables and is followed
    by its boundary rows, the system model reads them through its own
    variables and is followed by the coupling rows."""
    if region is None:
        labels: list[tuple[str, int]] = []
        angle_refs: dict[int, int] = {}
        for reg in grid.regions:
            cols, refs = region_labels(grid, reg)
            labels += [lab for lab in cols if lab[0] != "pdjc"]   # draws go below
            angle_refs.update(refs)
        for conv in grid.converters:
            labels += [("pvsc", conv.id), ("qvsc", conv.id), ("pdjc", conv.id)]
        extra = [((op, conv.id), 0.0, VIRTUAL_SIGMA, SOURCE_VIRTUAL_COUPLING)
                 for conv in grid.converters
                 for op in ("couple_p", "couple_q", "couple_loss")]
    else:
        labels, angle_refs = region_labels(grid, region)
        extra = [(converter_spec(grid.converter(cid), "ac" if orient == OWNS_AC else "dc"),
                  0.0, 1.0, "boundary") for cid, orient in region.boundary]
    index = {lab: k for k, lab in enumerate(labels)}
    rows = tuple([row_spec(grid, m, region, region is None) for _, m in measurements]
                 + [row for row, *_ in extra])
    return (index, angle_refs, rows, _CompiledRows(grid, index, rows),
            [tuple(e[1:]) for e in extra])
