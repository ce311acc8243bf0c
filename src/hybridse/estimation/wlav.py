"""Regional robust estimation: weighted least absolute value as an LP.

The LP is written in standard form: the residual of every measurement row
is a pair of non-negative slacks (u - l = z - H x), zero-injection rows are
exact equalities with no slack, and each boundary converter contributes a
pair (a, b) priced at the current Lagrange multiplier: a - b = P_conv(x) -
P_neighbor.  WLAV weights are 1/sigma.  The states are free.  That form is
what perfbench's LP oracle and the tests hand to HiGHS; the kernel
(:mod:`.lp`) reads it back as the weighted L1 fit it is, one residual per
row with the costs of its pair, and solves that fit directly.  Its one cold
start fits the states first, to the zero injections and then to the
readings that elimination picks, so a cold solve takes a few pivots.

Within one estimate only the boundary rows of b and the (a, b) costs change
between coordination iterations, and between estimates of one row set only z
and sigma do.  So the structure (A, the free mask and their
:class:`~.lp.LpTemplate`, with the cold start's elimination and tableau) is
built once per row set and kept with the model's ``telemetry.RegionRows``,
under the model's zero rows, the region fixing the converters (a model
without ``RegionRows`` builds its own).  A region's model, template and warm
start have one owner, ``RegionalLp(model)``, built once per region per
estimate: it adds the slack costs 1/sigma, z and the kernel's
:class:`~.lp.LpState`, whose last basis starts the next solve warm, so the
model carries no LP state.  Each call's problem shares the template's read-only A and carries
fresh b and c, patched on the boundary rows and the (a, b) columns.  A solve
re-optimizes from the final tableau in the state, or hands back that same x
object when the basis stays optimal for the same b.  The ``RegionalLp``
keeps its read-out of the last x it saw (states, converter variables and
residuals) and reuses it when the kernel hands back that object.

While coordination stalls, only the multipliers move, and they only rise.
``RegionalLp.stays_optimal(boundary, top)`` asks the kernel's cost ranging
(:func:`~.lp.lp_stays_optimal`) whether every solve under ``boundary``
with each converter's multiplier anywhere up to ``top`` would hand back the
last x with 0 pivots, so that the loop may skip those solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..telemetry import SOURCE_VIRTUAL_ZERO
from .lp import LpProblem, LpState, LpTemplate, lp_solve, lp_stays_optimal
from .result import EstimationResult


@dataclass
class BoundaryTerm:
    """One converter's coupling term as seen by a region.

    ``neighbor_p`` is the AC-side converter power claimed by the neighbor
    region's last packet; ``loss_const`` is the converter loss to subtract
    from a DC region's converter-draw variable (zero on the AC side).
    """

    lam: float
    neighbor_p: float
    loss_const: float = 0.0


def build_regional_wlav_lp(lp: RegionalLp, boundary: dict[int, BoundaryTerm]) -> LpProblem:
    """The regional LP of ``lp`` under the boundary terms of its converters.

    Columns are the states, a (u, l) pair per measurement row that is not an
    exact zero injection, then an (a, b) pair per boundary converter.
    """
    return lp.problem(boundary)


class RegionalLp:
    """A region's WLAV LP and its one owner (module docstring): the
    ``model``, the row set's template over the model's rows and the boundary
    rows of its converters ``convs``, and this model's b, c and solve state.
    The costs sit at the residual pairs: 1/sigma at a reading's (u, l), the
    multiplier at a boundary row's (a, b)."""

    def __init__(self, model):
        if len(model.z) == 0:
            raise ValueError(f"region {model.region_id} has no measurements")
        self.model = model
        self.convs = tuple(sorted(model.boundary))
        zero = tuple([i for i, src in enumerate(model.sources) if src == SOURCE_VIRTUAL_ZERO])
        kept = {} if model.region_rows is None else model.region_rows.lps
        if zero not in kept:
            kept[zero] = _lp_template(model, self.convs, zero)
        self.template = template = kept[zero]
        self.m = m = len(model.z)
        self.b = np.zeros(template.a_eq.shape[0])
        self.b[:m] = model.z
        self.c = np.zeros(template.a_eq.shape[1])
        slack = template.pair[:m]
        weight = 1.0 / model.sigma[slack]
        self.c[template.plus[:m][slack]] = self.c[template.minus[:m][slack]] = weight
        self.state = LpState()
        self.read_out: tuple | None = None      # (LP x, states x, v, theta, conv, residuals)

    def problem(self, boundary: dict[int, BoundaryTerm]) -> LpProblem:
        b, c = self.b.copy(), self.c.copy()
        plus, minus = self.template.plus, self.template.minus
        for row, cid in enumerate(self.convs, self.m):
            term = boundary[cid]
            b[row] = term.neighbor_p + term.loss_const
            c[plus[row]] = c[minus[row]] = term.lam
        return LpProblem(self.template, c, b, self.state)

    def stays_optimal(self, boundary: dict[int, BoundaryTerm], top: dict[int, float]) -> bool:
        """Whether the last solve's basis stays optimal under ``boundary``
        while each converter's multiplier rises from its term's to at most
        ``top``: each rise rounded up, so that it bounds the exact one."""
        rise = np.zeros(self.template.a_eq.shape[0])
        for row, cid in enumerate(self.convs, self.m):
            rise[row] = math.nextafter(top[cid] - boundary[cid].lam, math.inf)
        return lp_stays_optimal(self.problem(boundary), rise)


def _lp_template(model, convs, zero) -> LpTemplate:
    """The template of a region's WLAV LP, fixed by its rows: A and the free
    mask of the states, a (u, l) pair per row but the ``zero`` rows, then an
    (a, b) pair per boundary converter."""
    m, n = len(model.z), model.n_states
    slack = np.ones(m, dtype=bool)
    slack[list(zero)] = False
    rows = np.flatnonzero(slack)
    u = n + 2 * np.arange(rows.size)
    ab0 = n + 2 * rows.size
    a = np.zeros((m + len(convs), ab0 + 2 * len(convs)))
    a[:m, :n] = model.H
    a[rows, u] = 1.0
    a[rows, u + 1] = -1.0
    for k, cid in enumerate(convs):
        row, acol = m + k, ab0 + 2 * k
        a[row, :n] = model.boundary[cid]
        a[row, acol] = -1.0
        a[row, acol + 1] = 1.0
    free = np.zeros(a.shape[1], dtype=bool)
    free[:n] = True
    return LpTemplate(a, free)


def solve_wlav_region(lp: RegionalLp, boundary: dict[int, BoundaryTerm]) -> EstimationResult:
    """Solve one region's WLAV problem through its ``lp``, warm from the
    basis of the lp's last solve (cold at the first)."""
    sol = lp_solve(build_regional_wlav_lp(lp, boundary), basis=lp.state.basis)

    model = lp.model
    if lp.read_out is None or lp.read_out[0] is not sol.x:
        x = sol.x[:model.n_states]
        lp.read_out = (sol.x, x, *model.extract_state(x), model.z - model.h(x))
    _, x, v, theta, conv, residuals = lp.read_out
    result = EstimationResult(v=v, theta=theta, conv_vars=conv, residuals=residuals,
                              objective=sol.objective, iterations=sol.iterations,
                              converged=True, meas_indices=model.meas_indices)
    result.x = x
    return result
