"""Dense primal and dual simplex for the WLAV linear programs of regional
estimation.

Standard form: minimize c.v subject to A v = b with v >= 0; variables marked
free are split internally into positive and negative parts.  Internal
columns are A, -A[:, free], then one artificial unit column per row, which
never enters.  Pricing is Dantzig's rule with a switch to Bland's rule after
a run of degenerate pivots, which guarantees termination.  Tie-breaking is
by lowest index everywhere, so solves are deterministic.

The one cold start is a crash basis with the free states first (Abur &
Celik, IEEE Trans. Power Systems 6(1), 1991).  Each free column takes a row
by Gaussian elimination with partial pivoting over A[:, free], rows without
a bounded unit column (a WLAV LP's exact zero injections) first; a free
column without a pivot (a state the rows do not determine) stays out.
Every other row takes its first bounded unit column with a +1 entry (the
slack u or b), else its artificial.  A negative basic value of B^-1 b is
swapped to its negated partner (the other half of a free variable's split,
the row's -1 unit column l or a, else the row's artificial) and its row is
negated, so the start is primal feasible.  B^-1 A does not depend on b, so
the template solves it once and a cold start solves only for b.

There is no phase 1.  Every row of a WLAV LP has a slack, a boundary pair or
a state, so an artificial stays basic only on a row the states already fix
(a redundant zero injection): no real entry of its tableau row exceeds the
pricing tolerance, and it stays basic at zero.  A crash that leaves one on
any other row, or artificial values that sum above 1e-7, would need phase
1, and the solve raises ``LpError``.

Every problem comes from an :class:`LpTemplate` (``LpTemplate.problem``):
A and the free columns of a family of problems that differ only in c and b,
immutable and shareable, with the internal columns and the crash data made
once, when it is built.  What a solve leaves behind lives in the
:class:`LpState` of the one owner of a run of solves: the last solve's
final tableau and read-only x, keyed by its basis and the bytes of b.

The one warm start is from that basis, passed back to the next solve with
the same state.  With the same b bytes the solve first prices the stored
tableau under the new costs; when no column enters, it returns the stored x
itself, read-only, with 0 pivots and no copy.  Otherwise it copies the
stored tableau, solves B^-1 b again when the b bytes differ, and
re-optimizes a negative B^-1 b by dual simplex pivots when no reduced cost
under the new c is negative (Bertsimas & Tsitsiklis, *Introduction to
Linear Optimization*, 4.5).  Any other basis, a singular one, one neither
primal nor dual feasible, or more dual pivots than rows raise ``LpError``
inside the solve, and :func:`lp_solve` then does one cold start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LpError(RuntimeError):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


@dataclass
class LpProblem:
    """One LP of a template's family, with the state of its owner."""

    template: LpTemplate
    c: np.ndarray
    b_eq: np.ndarray
    state: LpState

    @property
    def a_eq(self) -> np.ndarray:
        return self.template.a_eq

    @property
    def free_mask(self) -> np.ndarray:      # True where the variable is unbounded below
        return self.template.free_mask


@dataclass
class LpSolution:
    """``iterations`` counts simplex pivots, primal and dual; the elimination
    and the solve that build a cold start are not pivots."""

    x: np.ndarray
    objective: float
    iterations: int
    basis: tuple[int, ...]      # internal basis, one column per row, for warm starts


_DEGENERATE_STREAK = 30
_TOL = 1e-9                 # pricing and ratio-test tolerance
_RANK_TOL = 1e-9            # elimination pivot, relative to its column's largest entry
_MAX_ITER = 20000           # simplex pivots per solve


def lp_solve(problem: LpProblem, basis: tuple[int, ...] | None = None) -> LpSolution:
    """Solve an equality-form LP; optimal basic solution, deterministic.

    Without ``basis`` the solve starts cold from the crash basis.  With it,
    the solve starts warm from the state's last solve; if ``basis`` is not
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
    with what the kernel derives from it; immutable, see the module
    docstring.  Internal column k < n_int of ``a_split`` is ``sign[k]`` times
    original column ``orig[k]``; column n_int + i is the artificial of row i.
    Row i starts on column ``start[i]`` unless a free column takes it (the
    free columns ``crash_cols`` take the rows ``taken``, so the crash basis
    is ``crash_basis``), and a starting column k with a negative value is
    swapped to ``partner[k]``.  ``crash_a`` is the read-only B^-1 A_int of
    the crash basis, None when that basis is singular: the cold start then
    fails, not the template."""

    def __init__(self, a_eq, free_mask):
        self.a_eq = np.atleast_2d(np.array(a_eq, dtype=float))
        self.free_mask = np.array(free_mask, dtype=bool)
        self.a_eq.flags.writeable = False
        self.free_mask.flags.writeable = False
        m, n = self.a_eq.shape
        self.free = np.flatnonzero(self.free_mask)
        self.n_int = n + self.free.size
        # artificials read as 0 times column 0
        self.orig = np.concatenate([np.arange(n), self.free, np.zeros(m, dtype=np.intp)])
        self.sign = np.concatenate([np.ones(n), -np.ones(self.free.size), np.zeros(m)])
        self.a_split = np.concatenate([self.a_eq, -self.a_eq[:, self.free], np.eye(m)],
                                      axis=1)
        self.a_split.flags.writeable = False

        # per row its first bounded unit column with a +1 entry and with a -1
        # entry, else its artificial; the -1 column is the +1 column's partner
        unit = ~self.free_mask & (np.count_nonzero(self.a_eq, axis=0) == 1)
        row = np.abs(self.a_eq).argmax(axis=0)
        entry = self.a_eq[row, np.arange(n)]
        self.start, minus = (np.arange(self.n_int, self.n_int + m) for _ in range(2))
        for first, sign in ((self.start, 1.0), (minus, -1.0)):
            cols = np.flatnonzero(unit & (entry == sign))
            rows, at = np.unique(row[cols], return_index=True)
            first[rows] = cols[at]
        self.partner = np.arange(self.n_int + m)
        self.partner[self.free] = np.arange(n, self.n_int)
        self.partner[self.start] = minus

        rows = _free_rows(self.a_eq[:, self.free], self.start >= self.n_int)
        self.taken, self.crash_cols = rows[rows >= 0], self.free[rows >= 0]
        self.crash_basis = self.start.copy()
        self.crash_basis[self.taken] = self.crash_cols
        # B is the identity but for the free columns on the rows they took, so
        # B^-1 M is A[taken, cols]^-1 M[taken] there and M - A[:, cols] x
        # elsewhere.  M is [A | 0], the shape of the tableau [A | b]: the last
        # bits a column gets from the solve may depend on that shape
        self.crash_a = None             # B^-1 A_int; None when B is singular
        t = np.zeros((m, n + 1))
        t[:, :n] = self.a_eq
        a_cols = self.a_eq[:, self.crash_cols]
        try:
            x = np.linalg.solve(a_cols[self.taken], t[self.taken])
        except np.linalg.LinAlgError:
            pass
        else:
            t -= a_cols @ x
            t[self.taken] = x
            self.crash_a = np.concatenate([t[:, :n], -t[:, self.free]], axis=1)
            self.crash_a.flags.writeable = False
        for a in (self.orig, self.sign, self.start, self.partner, self.taken,
                  self.crash_cols, self.crash_basis):
            a.flags.writeable = False

    def problem(self, c, b_eq, state: LpState) -> LpProblem:
        return LpProblem(self, c, b_eq, state)


class LpState:
    """What the solves of one owner's problems leave behind (module
    docstring): ``last`` is ((basis, b bytes), final tableau, the basis as an
    index array, read-only x) of the last solve, None before the first."""

    def __init__(self):
        self.last: tuple | None = None


def _basic_mask(cols_basis, size) -> np.ndarray:
    basic = np.zeros(size, dtype=bool)
    basic[cols_basis] = True
    return basic


def _lp_solve(problem: LpProblem, basis) -> LpSolution:
    template, state = problem.template, problem.state
    last, n_int = state.last, template.n_int
    # costs of every internal column; artificials cost nothing
    c_int = np.concatenate([problem.c, -problem.c[template.free], np.zeros(problem.b_eq.size)])

    iterations = 0
    if basis is not None:
        if last is None or last[0][0] != tuple(basis):
            raise LpError("warm basis is not the one of the state's last solve")
        (last_basis, last_b), stored, cols, x = last
        same_b = last_b == problem.b_eq.tobytes()
        # the solve's first pricing pass, on the stored tableau
        if same_b and _entering(_reduced_costs(
                c_int[:n_int], stored[:, :n_int], c_int[cols],
                _basic_mask(cols, c_int.size)[:n_int]), 0, _TOL) is None:
            return LpSolution(x=x, objective=float(problem.c @ x), iterations=0,
                              basis=last_basis)
        t, cols_basis = stored.copy(), cols.copy()
        if not same_b:
            try:
                t[:, -1] = np.linalg.solve(template.a_split[:, cols_basis], problem.b_eq)
            except np.linalg.LinAlgError as exc:
                raise LpError("singular warm basis") from exc
            iterations += _dual_optimize(t, cols_basis, c_int)
    else:
        t, cols_basis = _crash_tableau(template, problem.b_eq)
        art = cols_basis >= n_int
        if art.any() and (np.abs(t[art, :n_int]).max() > _TOL or t[art, -1].sum() > 1e-7):
            raise LpError("the crash basis leaves an artificial that only phase 1 "
                          "could remove")

    iterations += _optimize(t, cols_basis, c_int, n_int, _TOL, _MAX_ITER - iterations)
    result_basis = tuple(cols_basis.tolist())
    x = np.zeros(template.a_eq.shape[1])
    np.add.at(x, template.orig[cols_basis], template.sign[cols_basis] * t[:, -1])
    x.flags.writeable = False
    state.last = ((result_basis, problem.b_eq.tobytes()), t, cols_basis, x)
    return LpSolution(x=x, objective=float(problem.c @ x),
                      iterations=iterations, basis=result_basis)


def _crash_tableau(template: LpTemplate, b) -> tuple[np.ndarray, np.ndarray]:
    """Tableau B^-1 [A_int | b] of the cold-start basis, with every basic
    value non-negative; see the module docstring.  Row i of the tableau
    belongs to the column that takes row i of A.  B^-1 A_int is the
    template's; only B^-1 b is solved here."""
    if template.crash_a is None:
        raise LpError("singular crash basis")
    n_int, m = template.n_int, template.a_eq.shape[0]
    taken, cols = template.taken, template.crash_cols
    cols_basis = template.crash_basis.copy()
    # b is solved as two equal columns: for one column LAPACK's solve and
    # BLAS's product take other kernels, whose last bits differ from those b
    # gets as a column of [A | b]; for two columns they take the same ones
    rhs = np.empty((m, 2))
    rhs[:] = np.asarray(b)[:, None]
    a_cols = template.a_eq[:, cols]
    x = np.linalg.solve(a_cols[taken], rhs[taken])
    rhs -= a_cols @ x
    rhs[taken] = x
    t = np.empty((m, n_int + 1))
    t[:, :n_int] = template.crash_a
    t[:, -1] = rhs[:, 0]

    neg = t[:, -1] < 0.0
    t[neg] *= -1.0
    cols_basis[neg] = template.partner[cols_basis[neg]]
    real = np.flatnonzero(cols_basis < n_int)
    t[:, cols_basis[real]] = 0.0
    t[real, cols_basis[real]] = 1.0
    return t, cols_basis


def _free_rows(a_free, prefer) -> np.ndarray:
    """Row of each column of ``a_free`` by Gaussian elimination with partial
    pivoting, on a row where ``prefer`` holds while one of them has a pivot;
    -1 for a column that depends on the earlier ones."""
    w = a_free.T.copy()                     # w[j] is column j, eliminated
    scale = _RANK_TOL * np.abs(w).max(axis=1, initial=0.0)
    rows = np.full(w.shape[0], -1, dtype=np.intp)
    n_prefer = int(np.count_nonzero(prefer))
    for j in range(w.shape[0]):
        size = np.abs(w[j])
        p = int(size.argmax())
        if n_prefer:
            q = int((size * prefer).argmax())
            p = q if prefer[q] and size[q] > scale[j] else p
        if size[p] > scale[j]:
            rows[j] = p
            n_prefer -= int(prefer[p])
            rest = w[j + 1:]
            rest -= (rest[:, p] / w[j, p])[:, None] * w[j]
            rest[:, p] = 0.0
    return rows


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
    """Primal simplex sweep on a reduced tableau, pricing its first n_cols
    columns; c covers every column a basis may hold.  Mutates t and the
    index array cols_basis."""
    c_n, t_n, rhs = c[:n_cols], t[:, :n_cols], t[:, -1]
    basic = _basic_mask(cols_basis, c.size)
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
    basic = _basic_mask(cols_basis, c.size)[:n]
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
