"""Regional robust estimation: weighted least absolute value as an LP.

The residual of every measurement row is split into non-negative slacks
(u - l = z - H x), zero-injection rows are exact equalities with no slack,
and each boundary converter contributes a pair (a, b) priced at the current
Lagrange multiplier: a - b = P_conv(x) - P_neighbor.  WLAV weights are
1/sigma.  The states are free; the LP kernel starts cold with them in the
basis, fitted to the zero injections first and then to the readings that
elimination picks, with every other row on its u or b slack (l or a where
the residual is negative), so a cold solve takes a few pivots.

Within one estimate only the boundary rows of b and the (a, b) costs change
between coordination iterations.  So the constant part (A, the free mask,
the slack costs 1/sigma and z) is built once as a :class:`RegionalLp`, which
holds it as an :class:`~.lp.LpTemplate`.  DRSE builds one per region per
estimate and passes it to every solve; a call without one builds a
throwaway one, so the model carries no LP state.  Each call's problem shares
the template's read-only A and carries fresh b and c, patched on the
boundary rows and the (a, b) columns.  The kernel keeps the last solve's
final tableau and x on the template.  The next solve given that solve's
basis re-optimizes from it, or hands back that same x object when the
basis stays optimal for the same b; a basis from another template starts
cold.  The ``RegionalLp`` keeps its read-out of the last x it saw (states,
converter variables and residuals) and reuses it when the kernel hands back
that object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..telemetry import SOURCE_VIRTUAL_ZERO
from .lp import LpProblem, LpSolution, LpTemplate, lp_solve
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


def build_regional_wlav_lp(model, boundary: dict[int, BoundaryTerm],
                           lp: RegionalLp | None = None) -> LpProblem:
    """Assemble the regional LP from a constant linear measurement model.

    Columns are the states, a (u, l) pair per measurement row that is not an
    exact zero injection, then an (a, b) pair per boundary converter.  ``lp``
    is the model's :class:`RegionalLp` for the converters of ``boundary``;
    without it a throwaway one is built.  The problem is the same either way.
    """
    if lp is None:
        lp = RegionalLp(model, sorted(boundary))
    return lp.problem(boundary)


class RegionalLp:
    """The part of a region's WLAV LP that is constant within an estimate:
    the model's rows and the boundary rows of the converters ``convs``."""

    def __init__(self, model, convs):
        if len(model.z) == 0:
            raise ValueError(f"region {model.region_id} has no measurements")
        self.convs = tuple(convs)
        m, n = len(model.z), model.n_states
        slack_rows = [i for i, src in enumerate(model.sources) if src != SOURCE_VIRTUAL_ZERO]
        self.m, self.ab0 = m, n + 2 * len(slack_rows)

        n_rows, n_cols = m + len(convs), self.ab0 + 2 * len(convs)
        a = np.zeros((n_rows, n_cols))
        self.b = np.zeros(n_rows)
        self.c = np.zeros(n_cols)

        a[:m, :n] = model.H
        self.b[:m] = model.z
        for k, row in enumerate(slack_rows):
            u = n + 2 * k
            a[row, u] = 1.0
            a[row, u + 1] = -1.0
            self.c[u] = self.c[u + 1] = 1.0 / model.sigma[row]
        for k, cid in enumerate(convs):
            row, acol = m + k, self.ab0 + 2 * k
            a[row, :n] = model.boundary[cid]
            a[row, acol] = -1.0
            a[row, acol + 1] = 1.0

        free = np.zeros(n_cols, dtype=bool)
        free[:n] = True
        self.lp = LpTemplate(a, free)
        self.meas_indices = list(model.meas_indices)
        self.read_out: tuple | None = None      # (LP x, states x, v, theta, conv, residuals)

    def problem(self, boundary: dict[int, BoundaryTerm]) -> LpProblem:
        b, c = self.b.copy(), self.c.copy()
        for k, cid in enumerate(self.convs):
            term = boundary[cid]
            acol = self.ab0 + 2 * k
            b[self.m + k] = term.neighbor_p + term.loss_const
            c[acol] = c[acol + 1] = term.lam
        return self.lp.problem(c, b)


def solve_wlav_region(model, boundary: dict[int, BoundaryTerm] | None = None,
                      basis: tuple[int, ...] | None = None, lp: RegionalLp | None = None
                      ) -> tuple[EstimationResult, LpSolution]:
    """Solve one region's WLAV problem; returns the estimate and the LP
    solution (whose basis warm-starts the next solve through the same
    ``lp``).  ``lp`` is passed on to :func:`build_regional_wlav_lp`; without
    it a throwaway one is built."""
    t0 = time.perf_counter()
    boundary = boundary or {}
    if lp is None:
        lp = RegionalLp(model, sorted(boundary))
    problem = build_regional_wlav_lp(model, boundary, lp=lp)
    sol = lp_solve(problem, basis=basis)

    if lp.read_out is None or lp.read_out[0] is not sol.x:
        x = sol.x[:model.n_states]
        lp.read_out = (sol.x, x, *model.extract_state(x), model.z - model.h(x))
    _, x, v, theta, conv, residuals = lp.read_out
    boundary_p = {cid: float(model.boundary[cid] @ x - term.loss_const)
                  for cid, term in boundary.items()}

    result = EstimationResult(scope=model.scope, v=v, theta=theta,
                              conv_vars=conv,
                              residuals=residuals, objective=sol.objective,
                              iterations=sol.iterations, converged=True,
                              wall_time=time.perf_counter() - t0,
                              meas_indices=lp.meas_indices,
                              boundary_p=boundary_p)
    result.x = x
    return result, sol
