"""Sequential AC/DC power flow.

Solves each region with Newton-Raphson and alternates between AC and DC
passes, carrying converter powers and losses across the boundary until the
converter balance (AC-side output + loss = DC-side draw) settles.  The solved
state is the ground truth used for telemetry synthesis, estimator scoring and
training-set generation.

The per-grid work is compiled once and kept by the grid (``GridModel.memo``):
for each region and reference node a ``_RegionNewton`` holds the free
(non-reference) indices, an AC region's admittance pattern and a DC
region's admittance; a ``_PowerFlowPlan`` holds the AC and DC passes'
structure (which converters feed which node index, each DC region's held
converter and its lines).

``solve_powerflows`` solves a block of profiles as one stacked solve, and
``solve_powerflow`` is its block of one.  Each regional pass stacks the
specs of the trials still in the block as (K, 2, n) P and Q or (K, 1, n) P
arrays, and every Newton step is elementwise arithmetic on the stacked
arrays, a stacked ``@`` (one BLAS gemv per trial, as for one vector) and
one stacked ``np.linalg.solve`` (one LAPACK gesv per trial, as for one
matrix).  So each trial gets the bits of solving it alone: its own
mismatch, convergence test, voltage check, iteration cap and error, with the
message and mismatch of a solve one profile at a time.  A trial leaves the
stack when it converges or fails, and only the trials still iterating are
carried; a ``LinAlgError`` re-solves that step one matrix at a time to find
the singular ones.  The outer passes go the same way: each trial keeps its
own outer count and leaves the block when its converters balance.

An AC step computes cos and sin only where the admittance is nonzero and
scatters g cos + b sin and g sin - b cos into zeroed (n, n) matrices.  Off
that pattern the dense form computed 0 cos + 0 sin, which is +0 or -0.  A
signed zero changes no sum that has a nonzero term (each row has its
diagonal), and no pivot of the LU (a pivot is chosen by magnitude), so the
states keep their bits.  The Jacobian's free rows and columns are filled
elementwise from the same products as forming the full Jacobian and
selecting its free block.

A DC region's spec is its profile less the draws of the converters that
hold p_set; on a grid whose DC converters all hold the DC voltage it is the
same in every outer pass.  A trial whose DC spec has the bits of its last
pass keeps that pass's solution, which a Newton solve of the same spec would
give again bit for bit: a trial's solve reads nothing but its spec.

``CompiledRows`` compiles row specs (``telemetry.row_spec``) once into
tables of their terms over the columns of a state vector: each AC branch
flow (an ``ac_flow`` row, a branch of an ``ac_inj`` row) as its v_f, th_f,
v_t, th_t columns, P or Q, r and x; each DC branch flow as its columns and
g; each variable a row reads as its column and coefficient.  Each term
carries its row.  A datum node's angle (no column) reads a 0.0 appended to
the state, and its matrix cell is a dropped sink.  The tables give the
nonlinear h and J (``evaluate``, every branch term at once through
``branch_flow_terms``, the arithmetic of the scalar ``ac_branch_flow``; h
alone computes no partials) and the constant linear rows (``linear``).  Terms are summed by ``np.add.at``,
which adds in index order, and a row's terms sit in row order, so every row
and cell sums its terms in row order: a matrix cell and an injection row
from +0.0, as ``sum()`` does, every other row from -0.0, the exact identity
of addition.  So h and J are bit for bit those of evaluating the rows one at
a time through the scalar primitives, and H that of adding each row's
coefficients term by term.

The audits read two compiled row sets, kept by the ``_PowerFlowPlan``:
``mismatch_residual`` evaluates the injection rows of the audited nodes and
adds the converter terms to the expected side; ``conservation_residual``
evaluates both directions of every branch and the slack's P injection, and
adds each branch's two directions, then the branches in grid order, as one
at a time.  Each row sums only its own terms, so how the rows are grouped
into sets does not change their bits.

Sign conventions: injections are generation-positive; a converter's
``p_vsc``/``q_vsc`` is its AC-side output into the aux node c, and ``p_djc``
is the power the DC region feeds into the converter (negative when the DC
region is a net load).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
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


def load_profile(path: str | Path) -> InjectionProfile:
    """Read `node_id,P,Q` CSV (Q blank for DC nodes)."""
    prof = InjectionProfile()
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if missing := {"node_id", "P"} - set(reader.fieldnames or ()):
            raise ValueError(f"injection profile {path} lacks column(s) {sorted(missing)}")
        for row in reader:
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


def branch_flow_terms(g, b, v_f, v_t, cs, sn, partials: bool = True):
    """Sending-end (P, Q) on a series branch g + jb, no shunts, and (unless
    ``partials`` is false: None) their partials with respect to (v_f, th_f,
    v_t, th_t), from the cosine and sine of th_f - th_t.  Plain arithmetic:
    elementwise on arrays, same bits."""
    gc_bs = g * cs + b * sn
    gs_bc = g * sn - b * cs
    p = g * v_f * v_f - v_f * v_t * gc_bs
    q = -b * v_f * v_f - v_f * v_t * gs_bc
    if not partials:
        return p, q, None, None
    dp = (2 * g * v_f - v_t * gc_bs, v_f * v_t * gs_bc, -v_f * gc_bs, -v_f * v_t * gs_bc)
    dq = (-2 * b * v_f - v_t * gs_bc, -v_f * v_t * gc_bs, -v_f * gs_bc, v_f * v_t * gc_bs)
    return p, q, dp, dq


def ac_branch_flow(v_f: float, th_f: float, v_t: float, th_t: float,
                   r: float, x: float) -> tuple[float, float]:
    """Sending-end (P, Q) on a series r+jx branch, no shunts."""
    y = 1.0 / complex(r, x)
    dth = th_f - th_t
    return branch_flow_terms(y.real, y.imag, v_f, v_t, math.cos(dth), math.sin(dth), False)[:2]


def dc_branch_flow(v_f: float, v_t: float, g: float) -> float:
    """Sending-end power on a DC line: p = v_f (v_f - v_t) g."""
    return v_f * (v_f - v_t) * g


# -- compiled rows: row specs evaluated all at once ------------------------------


class CompiledRows:
    """Row specs as tables of their terms (module docstring): ``evaluate``
    gives h and J at a state vector, ``linear`` the constant coefficients.
    ``index`` maps column labels to columns.  ``measmodel`` adds its
    converter coupling rows through ``_add_row``."""

    def __init__(self, index: dict[tuple[str, int], int], rows):
        m, n = len(rows), len(index)
        self.shape = (m, n)
        self.h0 = np.full(m, -0.0)     # +0.0 for an injection row (module docstring)
        terms = _Terms(index)
        for i, row in enumerate(rows):
            self._add_row(terms, i, row)

        f_row, self.flow_cols, (is_p, self.r, self.x) = _fields(terms.flows, 5, 3)
        d_row, self.dc_cols, (self.dc_g,) = _fields(terms.dcs, 3, 1)
        v_row, (self.var_col,), (self.coef,) = _fields(terms.vars, 2, 1)
        self.is_p = is_p > 0.0
        self.term_rows = np.concatenate((f_row, d_row, v_row))
        # matrix cells: the flow terms by (v_f, th_f, v_t, th_t), the DC terms
        # by (v_f, v_t), then the variable terms, so a cell of one row takes
        # its terms in row order (the branches of a row all leave one node);
        # a datum angle (column n) goes to the sink cell m * n
        f_cells = np.where(self.flow_cols < n, f_row * n + self.flow_cols, m * n)
        self.cells = np.concatenate((f_cells.ravel(), (d_row * n + self.dc_cols).ravel(),
                                     v_row * n + self.var_col))

    def _add_row(self, terms: "_Terms", i: int, row: tuple) -> None:
        op, index = row[0], terms.index
        if op in ("ac_inj", "dc_inj"):
            self.h0[i] = 0.0           # a sum, as sum() starts it
        if op == "vmag":
            terms.var(i, index[("v", row[1])], 1.0)
        elif op == "var":
            terms.var(i, index[row[1:]], 1.0)
        elif op == "ac_flow":
            terms.flow(i, *row[1:])
        elif op == "dc_flow":
            terms.dc(i, *row[1:])
        elif op == "ac_inj":
            _, node, branches, which = row
            for other, r, x in branches:
                terms.flow(i, node, other, r, x, which)
        elif op == "dc_inj":
            _, node, branches, convs = row
            for other, g in branches:
                terms.dc(i, node, other, g)
            for cid in convs:
                terms.var(i, index[("pdjc", cid)], 1.0)
        else:
            raise ValueError(f"unknown row op {op}")

    @cached_property
    def _admittance(self) -> tuple[np.ndarray, np.ndarray]:
        """g + jb = 1 / (r + jx) of every flow term, by the scalar division;
        only ``evaluate`` reads it."""
        y = [1.0 / complex(r, x) for r, x in zip(self.r.tolist(), self.x.tolist())]
        return np.array([c.real for c in y]), np.array([c.imag for c in y])

    def _matrix(self, values: np.ndarray) -> np.ndarray:
        """The (m, n) matrix of ``values`` added into ``cells`` in order,
        each cell from +0.0."""
        m, n = self.shape
        flat = np.zeros(m * n + 1)
        np.add.at(flat, self.cells, values)
        return flat[:-1].reshape(m, n)

    def evaluate(self, x: np.ndarray, with_jac: bool):
        xe = np.concatenate((x, [0.0]))   # column n reads 0.0: the angle of a datum node
        vf, thf, vt, tht = xe[self.flow_cols]
        dth = thf - tht
        p, q, dp, dq = branch_flow_terms(*self._admittance, vf, vt, np.cos(dth), np.sin(dth),
                                         with_jac)
        uf, ut = xe[self.dc_cols]
        h = self.h0.copy()
        np.add.at(h, self.term_rows, np.concatenate((np.where(self.is_p, p, q),
                                                     dc_branch_flow(uf, ut, self.dc_g),
                                                     self.coef * xe[self.var_col])))
        if not with_jac:
            return h, None
        return h, self._matrix(np.concatenate((np.where(self.is_p, dp, dq).ravel(),
                                               (2 * uf - ut) * self.dc_g, -uf * self.dc_g,
                                               self.coef)))

    def linear(self) -> np.ndarray:
        """The rows' constant coefficients: ``linear_row_ac_flow`` on (U_f,
        theta_f, U_t, theta_t) with signs (+, +, -, -) for a flow term, (g,
        -g) on (V_f, V_t) for a DC term, its coefficient for a variable term
        (an AC region's U columns are labelled V)."""
        # the Q coefficients of (r, x) are the P coefficients of (x, -r), bit
        # for bit: r * r + x * x adds the same two products
        cu, cth = linear_row_ac_flow(np.where(self.is_p, self.r, self.x),
                                     np.where(self.is_p, self.x, -self.r))
        return self._matrix(np.concatenate((cu, cth, -cu, -cth, self.dc_g, -self.dc_g,
                                            self.coef)))


class _Terms:
    """The terms of rows being compiled, by kind, as flat lists of their
    fields; each term starts with its row.  A row's terms follow its order,
    so a sum over them in table order adds in row order."""

    def __init__(self, index: dict[tuple[str, int], int]):
        self.index = index
        self.flows = []   # row, v_f, th_f, v_t, th_t columns, is P, r, x
        self.dcs = []     # row, v_f, v_t columns, g
        self.vars = []    # row, column, coefficient

    def flow(self, i, f, t, r, x, which) -> None:
        """An AC branch flow f -> t; a node without an angle column (a datum)
        reads column n, the 0.0 that ``evaluate`` appends."""
        index, n = self.index, len(self.index)
        self.flows += (i, index[("v", f)], index.get(("th", f), n),
                       index[("v", t)], index.get(("th", t), n), which == "p", r, x)

    def dc(self, i, f, t, g) -> None:
        self.dcs += (i, self.index[("v", f)], self.index[("v", t)], g)

    def var(self, i, col, coef) -> None:
        self.vars += (i, col, coef)


def _fields(terms: list, n_int: int, n_float: int):
    """A flat list of terms, each ``n_int`` index fields then ``n_float``
    float fields, as (the rows, the other index fields, the float fields)
    with one array row per field."""
    table = np.array(terms, dtype=float).reshape(-1, n_int + n_float).T
    ints = table[:n_int].astype(np.intp)
    return ints[0], ints[1:], table[n_int:]


def linear_row_ac_flow(r, x):
    """Coefficients of a linear P flow row: ``a`` on (U_f - U_t) and ``c`` on
    (theta_f - theta_t), P = a dU + c dth.  ``r`` and ``x`` may be arrays,
    taken elementwise.
    """
    d = r * r + x * x
    return r / (2.0 * d), x / d


# -- regional Newton solves ---------------------------------------------------


class _RegionNewton:
    """One region's Newton structure for one reference node, kept by the grid
    (module docstring): the free (non-reference) indices; for an AC region
    the admittance's nonzero pattern and its values, for a DC region the
    admittance and its free block."""

    def __init__(self, grid: GridModel, region: Region, ref_node: int):
        adm = grid.admittance(region.id)
        self.region_id = region.id
        self.index = adm.index
        self.nodes = list(adm.index)            # sorted
        n = len(self.nodes)
        self.ref = adm.index[ref_node]
        self.free = free = np.array([k for k in range(n) if k != self.ref], dtype=np.intp)
        nf = free.size
        # the free entries as a slice where they are one run (the reference
        # first or last), which numpy indexes without a copy
        self.at_free = (slice(1, n) if self.ref == 0 else
                        slice(0, n - 1) if self.ref == n - 1 else free)
        # the free block of an (n, n) matrix, flat
        self.free_block = (free[:, None] * n + free[None, :]).ravel()
        if region.kind == AC:
            rows, cols = np.nonzero((adm.g != 0.0) | (adm.b != 0.0))
            # the pattern's row nodes then its column nodes, and its cells of
            # the flat (2, n, n) pair a1, a2
            self.ends = np.concatenate([rows, cols])
            self.cells = np.concatenate([rows * n + cols, n * n + rows * n + cols])
            # a1 = g cos + b sin and a2 = g sin - b cos on the pattern as one
            # (2, nnz) product: [g, g] [cos, sin] + [b, -b] [sin, cos], the
            # same bits (x - y is x + (-y), and (-b) c is -(b c))
            g_nz, b_nz = adm.g[rows, cols], adm.b[rows, cols]
            self.gg, self.bb = np.array([g_nz, g_nz]), np.array([b_nz, -b_nz])
            self.gb_free = np.array([adm.g.diagonal()[free], adm.b.diagonal()[free]])
            # the diagonals of the four (nf, nf) blocks of a flat (2nf, 2nf)
            # Jacobian, as strided slices
            self.jac_diag = [slice(r * 2 * nf + c, r * 2 * nf + c + nf * (2 * nf + 1),
                                   2 * nf + 1) for r in (0, nf) for c in (0, nf)]
        else:
            self.y = adm.y
            self.y_free = adm.y[np.ix_(free, free)]
            self.y_diag_free = adm.y.diagonal()[free]

    def solve_ac(self, spec: np.ndarray, v_ref: float):
        """Stacked (K, 2, n) P and Q specs -> (K, 2, n) theta and V by node
        index, and the PowerFlowDivergence of each trial whose mismatches
        stay above ``_AC_TOL``, by its row."""
        n, at_free, nf = len(self.nodes), self.at_free, self.free.size
        x = np.zeros(spec.shape)
        x[:, 1] = 1.0
        x[:, 1, self.ref] = v_ref
        nnz = self.ends.size // 2
        # off the pattern the dense terms were 0 cos + 0 sin = +-0; the
        # pattern's cells are rewritten every step, the others stay +0
        a_all = np.zeros((len(spec), 2, n * n))
        trig = np.empty((len(spec), 2, nnz))

        def evaluate(xl, spec):
            k, v = len(xl), xl[:, 1]
            ends = xl[:, 0, self.ends]
            dth, cs_sn = ends[:, :nnz] - ends[:, nnz:], trig[:k]
            np.cos(dth, out=cs_sn[:, 0])
            np.sin(dth, out=cs_sn[:, 1])
            a = a_all[:k]
            a.reshape(k, -1)[:, self.cells] = (self.gg * cs_sn
                                               + self.bb * cs_sn[:, ::-1]).reshape(k, -1)
            pq = v[:, None, :] * (a.reshape(k, 2, n, n) @ v[:, None, :, None])[..., 0]
            d = (spec - pq)[:, :, at_free]
            dmax = np.abs(d).max(axis=2)
            # max(dp, dq) as the builtin takes it, a NaN included
            mism = np.where(dmax[:, 1] > dmax[:, 0], dmax[:, 1], dmax[:, 0])

            def system(keep):
                vl, pl, al, dl = ((v, pq, a, d) if keep is None else
                                  (v[keep], pq[keep], a[keep], d[keep]))
                k = len(vl)
                vf = vl[:, at_free]
                vv = vf[:, :, None] * vf[:, None, :]
                af = np.take(al, self.free_block, axis=2).reshape(k, 2, nf, nf)
                jac = np.empty((k, 2, nf, 2, nf))     # C-ordered, as in solve_dc
                np.multiply(vv, af[:, 1], out=jac[:, 0, :, 0])
                np.multiply(-vv, af[:, 0], out=jac[:, 1, :, 0])
                np.multiply(vf[:, None, :, None], af, out=jac[:, :, :, 1])
                # the diagonals: as (-q - b v v, p / v + g v, p - g v v, q / v - b v)[free]
                pf = pl[:, :, at_free]
                pc, qc = pf.swapaxes(0, 1)
                pv, qv = (pf / vf[:, None, :]).swapaxes(0, 1)
                gv, bv = (self.gb_free * vf[:, None, :]).swapaxes(0, 1)
                flat_jac = jac.reshape(k, -1)
                for cut, value in zip(self.jac_diag, (-qc - bv * vf, pv + gv,
                                                      pc - gv * vf, qv - bv)):
                    flat_jac[:, cut] = value
                return jac.reshape(k, 2 * nf, 2 * nf), dl.reshape(k, 2 * nf)

            return mism, system

        return x, self._iterate("AC", _AC_TOL, x, spec, evaluate)

    def solve_dc(self, spec: np.ndarray, v_ref: float):
        """Stacked (K, 1, n) specs -> (K, 1, n) V by node index with the
        reference held at ``v_ref``, and each failed trial's
        PowerFlowDivergence."""
        at_free, y, nf = self.at_free, self.y, self.free.size
        x = np.full(spec.shape, v_ref)

        def evaluate(xl, spec):
            v = xl[:, 0]
            flows = np.matmul(y, v[:, :, None])[..., 0]
            d = (spec[:, 0] - v * flows)[:, at_free]

            def system(keep):
                vl, fl, dl = (v, flows, d) if keep is None else (v[keep], flows[keep], d[keep])
                vf = vl[:, at_free]
                # a new C-ordered array, so that its flat reshape is a view the
                # diagonal writes reach (a broadcast product may be laid out
                # otherwise)
                jac = np.empty((len(vl), nf, nf))
                np.multiply(vf[:, :, None], self.y_free, out=jac)
                jac.reshape(len(vl), -1)[:, ::nf + 1] = fl[:, at_free] + vf * self.y_diag_free
                return jac, dl

            return np.abs(d).max(axis=1), system

        return x, self._iterate("DC", _DC_TOL, x, spec, evaluate)

    def _iterate(self, kind: str, tol: float, x: np.ndarray, spec: np.ndarray,
                 evaluate) -> dict[int, PowerFlowDivergence]:
        """Newton's loop over stacked trials (module docstring), stepping the
        free entries of ``x`` (K, w, n), whose last row is V.  ``evaluate(xl,
        spec)`` gives the mismatches of the trials still iterating and a
        function that gives the Jacobians and right-hand sides of a selection
        of them (None: all).  A trial's row of ``x`` holds its state once it
        converges."""
        errors: dict[int, PowerFlowDivergence] = {}
        if not self.free.size:
            return errors
        rows, xl, at_free = np.arange(len(x)), x, self.at_free

        def fail(sel, message):
            """Record the selected trials' failures; the others' selection."""
            for row, mm in zip(rows[sel].tolist(), mism[sel].tolist()):
                errors[row] = PowerFlowDivergence(message, mm)
            return ~sel

        for _ in range(_NEWTON_MAX_ITER):
            if not rows.size:
                return errors
            mism, system = evaluate(xl, spec)
            keep = None
            done = mism < tol                   # a NaN mismatch steps on
            converged = np.count_nonzero(done)
            if converged:
                if xl is not x:
                    x[rows[done]] = xl[done]
                if converged == len(done):
                    return errors
                keep = np.flatnonzero(~done)
                rows, xl, spec, mism = rows[keep], xl[keep], spec[keep], mism[keep]
            jac, rhs = system(keep)
            try:
                step = np.linalg.solve(jac, rhs[..., None])
            except np.linalg.LinAlgError:
                step, singular = _one_at_a_time(jac, rhs[..., None])
                ok = fail(singular, f"singular Jacobian in region {self.region_id}")
                rows, xl, spec, mism, step = rows[ok], xl[ok], spec[ok], mism[ok], step[ok]
            xl[:, :, at_free] += step.reshape(len(xl), x.shape[1], self.free.size)
            vl = xl[:, -1]
            if vl.size and not 0.0 < vl.min() <= vl.max() < math.inf:    # false for a NaN
                lo, hi = vl.min(axis=1), vl.max(axis=1)
                ok = fail(~((0.0 < lo) & (lo <= hi) & (hi < math.inf)),
                          f"{kind} region {self.region_id} diverged")
                rows, xl, spec, mism = rows[ok], xl[ok], spec[ok], mism[ok]
        fail(np.ones(len(rows), dtype=bool), f"{kind} region {self.region_id} did not "
                                             f"converge in {_NEWTON_MAX_ITER} iterations")
        return errors


def _one_at_a_time(jac: np.ndarray, rhs: np.ndarray):
    """Each system's ``np.linalg.solve`` alone: the steps and which systems
    are singular."""
    step, singular = np.zeros_like(rhs), np.zeros(len(jac), dtype=bool)
    for k in range(len(jac)):
        try:
            step[k] = np.linalg.solve(jac[k], rhs[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return step, singular


def _newton(grid: GridModel, region: Region, ref_node: int) -> _RegionNewton:
    return grid.memo(("newton", region.id, ref_node),
                     lambda: _RegionNewton(grid, region, ref_node))


# -- coupled solve ------------------------------------------------------------


def _check_profile(grid: GridModel, profile: InjectionProfile, plan: "_PowerFlowPlan") -> None:
    if (profile.p.keys() | profile.q.keys()) <= plan.injectable and not (
            profile.q.keys() & plan.dc_nodes):
        return      # every named node may carry any injection
    held = plan.held
    for node in set(profile.p) | set(profile.q):
        try:
            n = grid.node(node)
        except KeyError:
            raise ValueError(f"profile names node {node}, which is not in the grid") from None
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
    draws, where each converter's coupling branch reads its state, and the
    audits' compiled rows (module docstring)."""

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

        # the audits' rows (module docstring) and, for the expected side, the
        # rows of the converter terms (a Q row follows its P row)
        held = {nw.nodes[nw.ref] for nw, *_ in self.ac + self.dc}    # the references
        self.audited = [(n.id, which) for n in grid.nodes if n.id not in held
                        for which in ("pq" if n.kind == AC else "p")]
        row = {key: i for i, key in enumerate(self.audited)}
        self.output_rows = [(row[c.aux_node, "p"], c) for c in grid.converters
                            if (c.aux_node, "p") in row]
        self.draw_rows = [(row[c.dc_node, "p"], c.id) for c in grid.converters
                          if (c.dc_node, "p") in row]
        ac = [(ln.from_node, ln.to_node, ln.r, ln.x) for ln in grid.ac_lines] + [
            (c.aux_node, c.ac_node, c.coupling_r, c.coupling_x) for c in grid.converters]
        balance = ([("ac_flow", *ends, r, x, "p") for f, t, r, x in ac
                    for ends in ((f, t), (t, f))]
                   + [("dc_flow", *ends, ln.g) for ln in grid.dc_lines
                      for ends in ((ln.from_node, ln.to_node), (ln.to_node, ln.from_node))]
                   + [_injection(grid, grid.slack, "p")])
        self.v_nodes = [n.id for n in grid.nodes]
        self.th_nodes = [n.id for n in grid.nodes if n.kind == AC]
        # the nodes that may carry a fixed injection, and the DC nodes, which
        # carry no reactive one (``_check_profile``)
        self.held = {grid.slack} | {c.dc_node for c in grid.converters
                                    if c.control.mode == MODE_DC_SLACK}
        self.injectable = {n.id for n in grid.nodes if n.id not in self.held
                           and n.role not in (ROLE_JUNCTION, ROLE_CONVERTER_AUX)}
        self.dc_nodes = {n.id for n in grid.nodes if n.kind == DC}
        labels = [("v", n) for n in self.v_nodes] + [("th", n) for n in self.th_nodes]
        index = {lab: k for k, lab in enumerate(labels)}
        self.injections = CompiledRows(index, [_injection(grid, *key) for key in self.audited])
        self.balance = CompiledRows(index, balance)

    def evaluate(self, rows: CompiledRows, st: SystemState) -> np.ndarray:
        """One of the audit row sets evaluated at a state."""
        x = np.array([st.v[n] for n in self.v_nodes] + [st.theta[n] for n in self.th_nodes])
        return rows.evaluate(x, with_jac=False)[0]


def _injection(grid: GridModel, node: int, which: str) -> tuple:
    """The row spec of a node's injection, a DC node's without its draws."""
    if grid.node(node).kind == AC:
        return ("ac_inj", node, tuple(grid.incident_ac_branches(node)), which)
    return ("dc_inj", node, tuple(grid.incident_dc_branches(node)), ())


def _plan(grid: GridModel) -> _PowerFlowPlan:
    return grid.memo("powerflow", lambda: _PowerFlowPlan(grid))


def solve_powerflow(grid: GridModel, profile: InjectionProfile) -> PowerFlowResult:
    """Alternating AC/DC solve with converter loss propagation: the block of
    one of ``solve_powerflows``.

    Converges when every converter satisfies the power balance
    |p_vsc + loss - p_djc| <= ``_COUPLING_TOL`` against the latest regional
    solutions; raises the PowerFlowError of its solve otherwise.
    """
    result = solve_powerflows(grid, [profile])[0]
    if isinstance(result, PowerFlowError):
        raise result
    return result


class _Trial:
    """One profile's converter boundary estimates and regional states through
    the alternating passes."""

    def __init__(self, grid: GridModel, row: int, profile: InjectionProfile):
        self.row, self.profile = row, profile
        self.p_vsc = {c.id: (c.control.p_set if c.control.mode == MODE_PQ else 0.0)
                      for c in grid.converters}
        self.q_vsc = {c.id: c.control.q_set for c in grid.converters}
        self.v_c = {c.id: 1.0 for c in grid.converters}
        self.loss = {c.id: 0.0 for c in grid.converters}
        self.p_djc = {c.id: 0.0 for c in grid.converters}
        self.ac: dict[int, tuple[np.ndarray, np.ndarray]] = {}    # region -> (V, theta)
        self.dc: dict[int, list[float]] = {}        # region -> V
        self.dc_spec: dict[int, bytes] = {}         # region -> the spec V solves
        self.flows: list[tuple[float, float, float]] = []     # coupling_flow by converter
        self.coupling = math.inf

    def coupling_flow(self, plan: "_PowerFlowPlan", conv) -> tuple[float, float, float]:
        """The aux -> ac coupling-branch flow (P, Q) and the aux voltage."""
        rid, a, i, _ = plan.couplings[conv.id]
        v, th = self.ac[rid]
        vc = float(v[a])
        p_ci, q_ci = ac_branch_flow(vc, float(th[a]), float(v[i]), float(th[i]),
                                    conv.coupling_r, conv.coupling_x)
        return p_ci, q_ci, vc


def solve_powerflows(grid: GridModel, profiles: list[InjectionProfile]
                     ) -> list[PowerFlowResult | PowerFlowError]:
    """``solve_powerflow`` of each profile as one stacked solve (module
    docstring): each entry is the profile's result, or the PowerFlowError
    its solve raises.  Each trial keeps its own outer and Newton iteration
    counts; only trials still iterating are carried."""
    if not profiles:
        return []
    plan = _plan(grid)
    for profile in profiles:
        _check_profile(grid, profile, plan)
    # each region's specs by profile: (K, 2, n) P and Q for AC, (K, 1, n) P for DC
    base = {nw.region_id: np.array([[[prof.p_at(n) for n in nw.nodes]] for prof in profiles])
            for nw, *_ in plan.dc}
    base.update({nw.region_id: np.array([[[prof.p_at(n) for n in nw.nodes],
                                          [prof.q_at(n) for n in nw.nodes]]
                                         for prof in profiles]) for nw, _ in plan.ac})
    out: list = [None] * len(profiles)
    live = [_Trial(grid, row, prof) for row, prof in enumerate(profiles)]

    def solved(trials, errors):
        """The trials whose regional solve succeeded; each failure is its
        trial's outcome."""
        for j, exc in errors.items():
            out[trials[j].row] = exc
        return [t for j, t in enumerate(trials) if j not in errors] if errors else trials

    for outer in range(1, _MAX_OUTER + 1):
        # AC pass
        for newton, feeds in plan.ac:
            rid = newton.region_id
            spec = base[rid][[t.row for t in live]]
            for j, t in enumerate(live):
                for cid, k in feeds:
                    spec[j, :, k] = t.p_vsc[cid], t.q_vsc[cid]
            x, errors = newton.solve_ac(spec, 1.0)
            for t, (th, v) in zip(live, x):
                t.ac[rid] = (v, th)
            live = solved(live, errors)

        for t in live:
            # the coupling flows at this pass's AC states, which the DC pass
            # leaves as they are: the residual below reads them too
            t.flows = [t.coupling_flow(plan, conv) for conv in grid.converters]
            for conv, (p_ci, q_ci, vc) in zip(grid.converters, t.flows):
                t.v_c[conv.id] = vc
                if plan.couplings[conv.id][3]:
                    t.p_vsc[conv.id], t.q_vsc[conv.id] = p_ci, q_ci
                t.loss[conv.id], _ = converter_loss(t.p_vsc[conv.id], t.q_vsc[conv.id],
                                                    vc, (conv.d1, conv.d2, conv.d3))
                if conv.control.mode == MODE_PQ:
                    t.p_djc[conv.id] = t.p_vsc[conv.id] + t.loss[conv.id]

        # DC pass
        for newton, ref_conv, draws, lines in plan.dc:
            rid = newton.region_id
            spec = base[rid][[t.row for t in live]]
            for j, t in enumerate(live):
                for cid, k in draws:
                    spec[j, 0, k] = spec[j, 0, k] - t.p_djc[cid]
            # a trial whose spec has the bits of its last pass keeps that
            # pass's solution (module docstring)
            keys = [row.tobytes() for row in spec]
            stale = [j for j, t in enumerate(live) if t.dc_spec.get(rid) != keys[j]]
            if stale:
                x, errors = newton.solve_dc(spec[stale], ref_conv.control.v_dc_set)
                for j, sol in zip(stale, x[:, 0].tolist()):
                    live[j].dc[rid], live[j].dc_spec[rid] = sol, keys[j]
                live = solved(live, {stale[j]: exc for j, exc in errors.items()})
            coeffs = (ref_conv.d1, ref_conv.d2, ref_conv.d3)
            for t in live:
                sol = t.dc[rid]
                # balance at the held terminal fixes the converter draw
                v_ref = sol[newton.ref]
                flow_sum = sum(dc_branch_flow(v_ref, sol[other], g) for other, g in lines)
                p_djc = t.p_djc[ref_conv.id] = t.profile.p_at(ref_conv.dc_node) - flow_sum
                p = p_djc - t.loss[ref_conv.id]
                q, vc = t.q_vsc[ref_conv.id], t.v_c[ref_conv.id]
                for _ in range(20):
                    new_loss, _ = converter_loss(p, q, vc, coeffs)
                    p, p_old = p_djc - new_loss, p
                    if abs(p - p_old) < 1e-14:
                        break
                t.p_vsc[ref_conv.id] = p
                t.loss[ref_conv.id], _ = converter_loss(p, q, vc, coeffs)

        # coupling residual and converter solutions at the latest AC solution
        going = []
        for t in live:
            coupling = 0.0
            converters: dict[int, ConverterSolution] = {}
            for conv, (p_ci, q_ci, vc) in zip(grid.converters, t.flows):
                l, i_c = converter_loss(p_ci, q_ci, vc, (conv.d1, conv.d2, conv.d3))
                coupling = max(coupling, abs(p_ci + l - t.p_djc[conv.id]))
                converters[conv.id] = ConverterSolution(p_vsc=p_ci, q_vsc=q_ci, p_loss=l,
                                                        i_c=i_c, v_c=vc,
                                                        p_djc=t.p_djc[conv.id])
            if coupling <= _COUPLING_TOL:
                out[t.row] = _result(grid, plan, t, converters, outer, coupling)
            else:
                t.coupling = coupling
                going.append(t)
        live = going
        if not live:
            break
    for t in live:
        out[t.row] = PowerFlowDivergence(
            f"outer AC/DC loop did not converge in {_MAX_OUTER} iterations", t.coupling)
    return out


def _result(grid: GridModel, plan: _PowerFlowPlan, t: _Trial,
            converters: dict[int, ConverterSolution], outer: int,
            coupling: float) -> PowerFlowResult:
    v: dict[int, float] = {}
    theta: dict[int, float] = {}
    for newton, _ in plan.ac:
        vv, th = t.ac[newton.region_id]
        v.update(zip(newton.nodes, vv.tolist()))
        theta.update(zip(newton.nodes, th.tolist()))
    for newton, *_ in plan.dc:
        v.update(zip(newton.nodes, t.dc[newton.region_id]))
    state = SystemState(v=v, theta=theta)
    return PowerFlowResult(state=state, converters=converters, outer_iterations=outer,
                           max_mismatch=mismatch_residual(grid, t.profile, state, converters),
                           coupling_residual=coupling)


def mismatch_residual(grid: GridModel, profile: InjectionProfile, st: SystemState,
                      converters: dict[int, ConverterSolution]) -> float:
    """Back-substitution audit: recompute every nodal injection from the state
    and compare with the specified profile plus converter terms.  Reference
    nodes (slack, held DC terminals, forming aux nodes) are excluded since
    their injection is an output of the solve.
    """
    plan = _plan(grid)
    values = plan.evaluate(plan.injections, st)
    expected = [profile.p_at(node) if which == "p" else profile.q_at(node)
                for node, which in plan.audited]
    for i, conv in plan.output_rows:
        p, q = ((conv.control.p_set, conv.control.q_set) if conv.control.mode == MODE_PQ
                else (converters[conv.id].p_vsc, converters[conv.id].q_vsc))
        expected[i] += p
        expected[i + 1] += q
    for i, cid in plan.draw_rows:
        expected[i] -= converters[cid].p_djc
    return float(np.abs(values - expected).max(initial=0.0))


def conservation_residual(grid: GridModel, profile: InjectionProfile,
                          result: PowerFlowResult) -> float:
    """Generation minus load, line losses and converter losses (p.u.).

    For a converged solve it is, up to the regional Newton tolerances, the
    sum of the converters' balance gaps between p_vsc + loss and p_djc, each
    of which the solve keeps within ``_COUPLING_TOL``.  It can therefore exceed
    ``_COUPLING_TOL`` on a grid with more than one converter.
    """
    plan = _plan(grid)
    values = plan.evaluate(plan.balance, result.state)
    flows, slack_gen = values[:-1], values[-1]
    # each branch's two directions, then the branches one at a time from 0.0
    line_losses = np.add.accumulate(np.append(0.0, flows[0::2] + flows[1::2]))[-1]
    conv_losses = sum(c.p_loss for c in result.converters.values())
    total_profile = sum(profile.p.values())
    return float(slack_gen + total_profile - line_losses - conv_losses)
