"""Dense two-phase simplex for desk-scale linear programs.

Standard form: minimize c.v subject to A v = b with v >= 0; variables marked
free are split internally into positive and negative parts.  Pricing is
Dantzig's rule with a switch to Bland's rule after a run of degenerate pivots,
which guarantees termination.  Tie-breaking is by lowest index everywhere, so
solves are deterministic.

A cold start begins from a crash basis.  Rows are sign-flipped so that
b >= 0; each row then takes the first bounded column that is a unit column
in that row (for the regional WLAV LP, the residual slack u or l and the
boundary slack a or b), and only the rows left uncovered (exact zero
injections) get an artificial column for phase 1.  The starting tableau is
[A | I_art | b] itself, so a cold start factors nothing.

A family of problems that share A and the free columns and differ only in c
and b comes from one :class:`LpTemplate`, and each problem it makes names it
in ``LpProblem.template``.  The template's A and free mask are read-only; the
kernel keeps on the template the free-column split, made once, and the final
tableau of the last solve, keyed by its basis and the bytes of b.

The one warm start is from that basis: the returned basis of the template's
last solve, cold or warm, passed back to the next solve of a problem from
the same template.  The solve copies the stored tableau.  B^-1 A does not
depend on the row sign flips of a cold start, and neither does B^-1 b, so
when the b bytes differ only B^-1 b is solved again, from the unflipped
split matrix and b.  A negative B^-1 b is re-optimized by dual simplex
pivots when no reduced cost under the new c is negative (Bertsimas &
Tsitsiklis, *Introduction to Linear Optimization*, 4.5).  Any other basis,
a singular one, one neither primal nor dual feasible, or more dual pivots
than rows raise ``LpError`` inside the solve, and :func:`lp_solve` then does
one cold start.

With the same basis and b bytes the stored tableau is used as it is, and c
only decides whether the first pricing pass finds an entering column.  So
:func:`lp_unchanged` answers exactly, without solving, whether
``lp_solve(problem, basis)`` would return the last solve's x again with 0
pivots: the stored key must be (basis, b bytes), and the first pricing pass,
run on the stored tableau with the problem's costs by the solve's own
function, must find no entering column (the optimality test of a basis under
a change of c alone).

A hand-built ``LpProblem`` has no template; it is solved cold with a
throwaway one, and :func:`lp_unchanged` always answers False for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class LpError(RuntimeError):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


@dataclass
class LpProblem:
    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    free_mask: np.ndarray                  # True where the variable is unbounded below
    template: LpTemplate | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        self.free_mask = np.asarray(self.free_mask, dtype=bool)
        m, n = self.a_eq.shape
        if self.c.size != n or self.free_mask.size != n or self.b_eq.size != m:
            raise ValueError("inconsistent LP dimensions")


@dataclass
class LpSolution:
    x: np.ndarray
    objective: float
    iterations: int
    basis: tuple[int, ...]      # internal (split-variable) basis for warm starts


_DEGENERATE_STREAK = 30
_TOL = 1e-9                 # pricing and ratio-test tolerance
_MAX_ITER = 20000           # simplex pivots per solve


def lp_solve(problem: LpProblem, basis: tuple[int, ...] | None = None) -> LpSolution:
    """Solve an equality-form LP; optimal basic solution, deterministic.

    Without ``basis`` the solve starts cold from the crash basis.  With it,
    the solve starts warm from the template's last solve; if ``basis`` is not
    that solve's basis, or the solve from it fails in any way, the problem is
    solved once more from a cold start before a failure is reported.
    """
    if basis is not None:
        try:
            return _lp_solve(problem, basis)
        except LpError:
            pass
    return _lp_solve(problem, None)


class LpTemplate:
    """Constraint data shared by a family of LPs that differ only in c and b,
    with what the kernel derives from it; see the module docstring.  Free
    variables are split into positive and negative parts: internal column k
    of ``a_split`` is ``sign[k]`` times original column ``orig[k]``."""

    def __init__(self, a_eq, free_mask):
        self.a_eq = np.atleast_2d(np.array(a_eq, dtype=float))
        self.free_mask = np.array(free_mask, dtype=bool)
        self.a_eq.flags.writeable = False
        self.free_mask.flags.writeable = False
        n = self.a_eq.shape[1]
        self.free = np.flatnonzero(self.free_mask)
        self.orig = np.concatenate([np.arange(n), self.free])
        self.sign = np.concatenate([np.ones(n), -np.ones(self.free.size)])
        self.bounded = np.concatenate([~self.free_mask,
                                       np.zeros(self.free.size, dtype=bool)])
        self.a_split = np.concatenate([self.a_eq, -self.a_eq[:, self.free]], axis=1)
        self.a_split.flags.writeable = False
        self.last: tuple | None = None      # ((basis, b bytes), final tableau)

    def problem(self, c, b_eq) -> LpProblem:
        return LpProblem(c=c, a_eq=self.a_eq, b_eq=b_eq, free_mask=self.free_mask,
                         template=self)


def _internal_costs(problem: LpProblem, template: LpTemplate) -> np.ndarray:
    return np.concatenate([problem.c, -problem.c[template.free]])


def lp_unchanged(problem: LpProblem, basis: tuple[int, ...] | None) -> bool:
    """True when ``lp_solve(problem, basis)`` would return, with 0
    pivots, the same x as the last solve of the problem's template; see the
    module docstring.  False whenever that cannot be told without solving."""
    template = problem.template
    if (basis is None or template is None or template.last is None
            or template.last[0] != (tuple(basis), problem.b_eq.tobytes())):
        return False
    t = template.last[1]
    n = t.shape[1] - 1
    cols = np.array(basis, dtype=np.intp)
    basic = np.zeros(n, dtype=bool)
    basic[cols] = True
    c = _internal_costs(problem, template)
    return _entering(_reduced_costs(c[:n], t[:, :n], c[cols], basic), 0, _TOL) is None


def _lp_solve(problem: LpProblem, basis) -> LpSolution:
    template = problem.template or LpTemplate(problem.a_eq, problem.free_mask)
    last = template.last
    n_int = template.orig.size
    c_int = _internal_costs(problem, template)

    iterations = 0
    if basis is not None:
        if last is None or last[0][0] != tuple(basis):
            raise LpError("warm basis is not the one of the template's last solve")
        t, cols_basis = last[1].copy(), np.array(basis, dtype=np.intp)
        if last[0][1] != problem.b_eq.tobytes():
            try:
                t[:, -1] = np.linalg.solve(template.a_split[:, cols_basis], problem.b_eq)
            except np.linalg.LinAlgError as exc:
                raise LpError("singular warm basis") from exc
            iterations += _dual_optimize(t, cols_basis, c_int)
    else:
        t, cols_basis = _crash_tableau(template.a_split, problem.b_eq, template.bounded)
        n_art = t.shape[1] - 1 - n_int
        if n_art:
            c1 = np.zeros(n_int + n_art)
            c1[n_int:] = 1.0
            # price only real columns; artificials may leave but never re-enter
            iterations += _optimize(t, cols_basis, c1, n_int, _TOL, _MAX_ITER)
            obj1 = c1[cols_basis] @ t[:, -1]
            if obj1 > 1e-7:
                raise LpInfeasible(f"phase-1 objective {obj1:.3e}")
            _drive_out_artificials(t, cols_basis, n_int)
            keep = np.flatnonzero(cols_basis < n_int)
            if keep.size != cols_basis.size:
                t = t[keep]
                cols_basis = cols_basis[keep]
            t = t[:, list(range(n_int)) + [t.shape[1] - 1]]

    iterations += _optimize(t, cols_basis, c_int, n_int, _TOL, _MAX_ITER - iterations)
    result_basis = tuple(cols_basis.tolist())
    template.last = ((result_basis, problem.b_eq.tobytes()), t)

    x = np.zeros(problem.a_eq.shape[1])
    np.add.at(x, template.orig[cols_basis], template.sign[cols_basis] * t[:, -1])
    return LpSolution(x=x, objective=float(problem.c @ x),
                      iterations=iterations, basis=result_basis)


def _crash_tableau(a, b, bounded) -> tuple[np.ndarray, np.ndarray]:
    """Tableau [A | I_art | b] of the crash basis, with the rows where b < 0
    negated: per row the first bounded unit column, an artificial column for
    each row without one."""
    sign = np.where(b < 0, -1.0, 1.0)
    a, b = a * sign[:, None], b * sign
    m, n_int = a.shape
    unit = bounded & (np.count_nonzero(a, axis=0) == 1) & (a.max(axis=0, initial=0.0) == 1.0)
    cols_basis: list[int | None] = [None] * m
    for j in np.flatnonzero(unit)[::-1]:
        cols_basis[int(np.argmax(a[:, j]))] = int(j)
    uncovered = [i for i, col in enumerate(cols_basis) if col is None]
    t = np.zeros((m, n_int + len(uncovered) + 1))
    t[:, :n_int] = a
    t[:, -1] = b
    for k, i in enumerate(uncovered):
        t[i, n_int + k] = 1.0
        cols_basis[i] = n_int + k
    return t, np.array(cols_basis, dtype=np.intp)


def _reduced_costs(c_n, t_n, cb, basic_n) -> np.ndarray:
    """Reduced costs of the first len(c_n) columns, zero on basic columns."""
    reduced = c_n - cb @ t_n
    reduced[basic_n] = 0.0
    return reduced


def _entering(reduced, degenerate, tol) -> int | None:
    """Entering column by Dantzig's rule, or Bland's after a long run of
    degenerate pivots; None when no reduced cost is below -tol."""
    if degenerate < _DEGENERATE_STREAK:
        q = int(reduced.argmin())
        return None if reduced[q] >= -tol else q
    candidates = (reduced < -tol).nonzero()[0]
    return int(candidates[0]) if candidates.size else None


def _optimize(t, cols_basis, c, n_cols, tol, max_iter) -> int:
    """Primal simplex sweep on a reduced tableau.  Mutates t and the index
    array cols_basis."""
    c_n, t_n, rhs = c[:n_cols], t[:, :n_cols], t[:, -1]
    basic = np.zeros(t.shape[1] - 1, dtype=bool)
    basic[cols_basis] = True
    basic_n = basic[:n_cols]
    ratios = np.empty(t.shape[0])
    it = 0
    degenerate = 0
    while it < max_iter:
        q = _entering(_reduced_costs(c_n, t_n, c[cols_basis], basic_n), degenerate, tol)
        if q is None:
            return it

        col = t[:, q]
        pos = col > tol
        if not pos.any():
            raise LpUnbounded("no blocking ratio for entering column")
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=pos)
        best = ratios.min()
        tie_rows = (ratios <= best + tol * max(1.0, best)).nonzero()[0]
        p = tie_rows[0] if tie_rows.size == 1 else tie_rows[cols_basis[tie_rows].argmin()]
        degenerate = degenerate + 1 if best <= tol else 0

        _pivot(t, p, q)
        basic[cols_basis[p]] = False
        basic[q] = True
        cols_basis[p] = q
        it += 1
    raise LpError("simplex iteration limit reached")


def _dual_optimize(t, cols_basis, c) -> int:
    """Dual simplex sweep until no right-hand side is below -_TOL: the most
    negative one leaves, the dual ratio test enters (lowest index on ties).
    Mutates t and cols_basis.  LpError if the basis is not dual feasible
    under c, the leaving row has no negative entry, or it takes more pivots
    than rows (a cold start is then about as cheap)."""
    rhs = t[:, -1]
    p = int(rhs.argmin())
    if rhs[p] >= -_TOL:
        return 0
    n = t.shape[1] - 1
    basic = np.zeros(n, dtype=bool)
    basic[cols_basis] = True
    reduced = _reduced_costs(c[:n], t[:, :n], c[cols_basis], basic)
    if reduced.min() < -_TOL:
        raise LpError("warm basis is neither primal nor dual feasible")
    for it in range(1, t.shape[0] + 1):
        cand = (t[p, :n] < -_TOL).nonzero()[0]
        if not cand.size:
            raise LpInfeasible("no entering column for a negative right-hand side")
        q = int(cand[np.argmin(reduced[cand] / -t[p, cand])])

        _pivot(t, p, q)
        reduced -= reduced[q] * t[p, :n]
        cols_basis[p] = q
        p = int(rhs.argmin())
        if rhs[p] >= -_TOL:
            return it
    raise LpError("dual simplex pivot limit reached")


def _drive_out_artificials(t, cols_basis, n_int):
    for row, col in enumerate(cols_basis):
        if col < n_int:
            continue
        nz = np.nonzero(np.abs(t[row, :n_int]) > _TOL)[0]
        if nz.size == 0:
            continue  # redundant row, caller drops it
        q = int(nz[0])
        _pivot(t, row, q)
        cols_basis[row] = q


def _pivot(t, p, q):
    """Pivot on t[p, q]: scale row p to a unit entry in column q, then
    subtract its multiples from the rows where column q is nonzero (the
    other rows would only lose 0 * t[p]).  The outer product is broadcast,
    the same products as ``np.outer`` without its Python wrapper."""
    t[p] /= t[p, q]
    other = t[:, q].copy()
    other[p] = 0.0
    rows = other.nonzero()[0]
    t[rows] -= other[rows, None] * t[p]
