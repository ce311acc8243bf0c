"""Regional robust estimation: weighted least absolute value as an LP.

The residual of every measurement row is split into non-negative slacks
(u - l = z - H x), zero-injection rows are exact equalities with no slack,
and each boundary converter contributes a pair (a, b) priced at the current
Lagrange multiplier: a - b = P_conv(x) - P_neighbor.  State variables are
free and split inside the LP kernel.  WLAV weights are 1/sigma.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..telemetry import SOURCE_VIRTUAL_ZERO
from .lp import LpProblem, LpSolution, lp_solve
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


def build_regional_wlav_lp(model, boundary: dict[int, BoundaryTerm]) -> LpProblem:
    """Assemble the regional LP from a constant linear measurement model.

    Columns are the states, a (u, l) pair per measurement row that is not an
    exact zero injection, then an (a, b) pair per boundary converter.
    """
    m = len(model.z)
    if m == 0:
        raise ValueError(f"region {model.region_id} has no measurements")
    n = model.n_states
    slack_rows = [i for i, src in enumerate(model.sources) if src != SOURCE_VIRTUAL_ZERO]
    convs = sorted(boundary)
    ab0 = n + 2 * len(slack_rows)

    n_rows, n_cols = m + len(convs), ab0 + 2 * len(convs)
    a = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)
    c = np.zeros(n_cols)

    a[:m, :n] = model.H
    b[:m] = model.z
    for k, row in enumerate(slack_rows):
        u = n + 2 * k
        a[row, u] = 1.0
        a[row, u + 1] = -1.0
        c[u] = c[u + 1] = 1.0 / model.sigma[row]

    for k, cid in enumerate(convs):
        term = boundary[cid]
        row, acol = m + k, ab0 + 2 * k
        a[row, :n] = model.boundary[cid]
        a[row, acol] = -1.0
        a[row, acol + 1] = 1.0
        b[row] = term.neighbor_p + term.loss_const
        c[acol] = c[acol + 1] = term.lam

    free = np.zeros(n_cols, dtype=bool)
    free[:n] = True
    return LpProblem(c=c, a_eq=a, b_eq=b, free_mask=free)


def solve_wlav_region(model, boundary: dict[int, BoundaryTerm] | None = None,
                      basis: tuple[int, ...] | None = None
                      ) -> tuple[EstimationResult, LpSolution]:
    """Solve one region's WLAV problem; returns the estimate and the LP
    solution (whose basis warm-starts the next coordination iteration)."""
    t0 = time.perf_counter()
    boundary = boundary or {}
    problem = build_regional_wlav_lp(model, boundary)
    sol = lp_solve(problem, basis=basis)

    x = sol.x[:model.n_states]
    v, theta, pconv = model.extract_state(x)
    residuals = model.z - model.h(x)
    boundary_p = {}
    for cid, term in boundary.items():
        boundary_p[cid] = float(model.boundary[cid] @ x - term.loss_const)

    result = EstimationResult(scope=f"region:{model.region_id}", v=v, theta=theta,
                              conv_vars={("pdjc", cid): val for cid, val in pconv.items()},
                              residuals=residuals, objective=sol.objective,
                              iterations=sol.iterations, converged=True,
                              wall_time=time.perf_counter() - t0,
                              meas_indices=list(model.meas_indices),
                              boundary_p=boundary_p)
    result.x = x
    return result, sol
