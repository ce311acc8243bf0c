"""Simplex for the weighted L1 fits of regional estimation, in their own form.

The LPs come in standard form: minimize c.v subject to A v = b, with v >= 0
except on the columns marked free.  The kernel solves them as the L1 fit
they are (Barrodale & Roberts, SIAM J. Numer. Anal. 10(5), 1973, with the
equality rows of 15(3), 1978; Abur & Celik, IEEE Trans. Power Systems 6(1),
1991, for WLAV state estimation).  The free columns are the states x.  Every
other column must be one of a row's pair of unit columns, +1 and -1 (a
reading's slacks u and l, a converter's boundary pair), so that row i's
residual r_i = b_i - A_i x costs c+ r_i when positive and -c- r_i when
negative, c+ and c- being the costs of its +1 and -1 columns.  A row
without a pair is an equality (an exact zero injection): its residual is
held at zero.  Any other LP would need a phase 1, which the kernel does not
have; its solve raises ``LpError``.

The tableau is condensed (Tucker's form): one row per basic variable and one
column per nonbasic one, with the basic values as its last column, so that
basic = values - T nonbasic.  Variables are named by LP columns (n of them):
a state by its own; a basic residual of row i by the row's +1 or -1 column,
the side its value is on; an equality row's residual and a nonbasic one by
n + i.  The one cold start is the crash basis, with the free states first:
each state takes a row by Gaussian elimination with partial pivoting over
A[:, free], equality rows first; a state without a pivot (one the rows do
not determine) stays out at zero and never enters.  The template solves the
crash tableau once, when it is built.  States never leave, so the nonbasic
variables are residuals: the tableau is m rows by one column per state the
crash takes, plus the values.

B^-1 b is a product with the stored tableau: a nonbasic residual's column is
B^-1 e_i, and a basic residual's is its unit vector.  Every basis is primal
feasible for an L1 fit, so a cold start and a warm start whose b moved take
one path: stored tableau, values for b (each residual named by the side of
its value), primal pivots.  A solve reads c once, into tables by variable
name: the cost while basic (c+ or -c- for a residual, by its name) and the
row's costs of a step up and down (c+ and c-; 0 for a state, inf on an
equality row), whose sum is a breakpoint's weight.  With g the basic costs,
a pricing pass is one product g T, and a nonbasic residual's reduced costs up
and down are c+ - g T and c- + g T.  The ratio test takes the long step of
Barrodale and Roberts: it passes breakpoints while the slope stays negative,
each one moving its residual to the other side, and the row where the slope
turns non-negative leaves.  A basic equality residual with a nonzero entry
blocks at step 0.  Entering is by Dantzig's rule, Bland's after a run of
degenerate pivots; ties go to the up side, then the lowest column, so solves
are deterministic.  A solve keeps g and the nonbasic costs, and from its
first pivot each row's side (its residual's sign, 0 for a state), weight and
kind, updated at each flip and exchange: states never leave and an equality
residual never enters, so a row changes kind only when a basic equality
residual leaves.  The arrays hold what the basis names, and a pivot leaves
the rows with a zero in its column as they were, so a solve has the bits of
one that re-derives them from the basis at every step.

Every :class:`LpProblem` is c and b over an :class:`LpTemplate`: A and the
free columns of a family of problems that differ only in c and b,
immutable and shareable, with the crash tableau made once.  What a solve
leaves behind lives in the :class:`LpState` of the one owner of a run of
solves (a region's ``estimation.wlav.RegionalLp``): the last solve's final
tableau and read-only x, keyed by its basis (``LpState.basis``) and the
bytes of b.  The one warm start is from that basis, passed back to the next
solve with the same state.  With the same b bytes the solve first
prices the stored tableau under the new costs; when no residual enters, it
returns the stored x itself, read-only, with 0 pivots and no copy.  Any
other basis, or a warm solve that fails in any way, is solved once more
from a cold start by :func:`lp_solve`.

A run of repeat solves whose costs only rise can be answered at once by
:func:`lp_stays_optimal`, cost ranging on the stored tableau (Bertsimas &
Tsitsiklis, *Introduction to Linear Optimization*, section 5.1).  Given a
problem with the stored b bytes and an upper bound rise[i] on how far the
costs of row i's residual pair may rise, it prices the stored tableau once
under the problem's costs.  A rise moves the cost of a basic residual of
row i by at most rise[i], so the reduced costs of nonbasic column j fall by
at most S_j, the sum of rise[i] |T[p, j]| over the rows p whose basic
variable is one of row i's pair; a nonbasic residual's own costs only rise,
which adds nothing.  Rounding is allowed for as Higham bounds a dot product
(*Accuracy and Stability of Numerical Algorithms*, section 3.1): a reduced
cost is m + 1 products, g T_j and its cost, so a pricing over m rows errs by
at most gamma_{m+1} (|c| + |g| |T|)_j, and the check's own sum S_j and
subtraction by at most gamma_{m+2} times the same scale.  The allowance is
gamma_{m+6} times the largest such scale at the top of the range (the slack
of m + 6 covers the rounding of the scale itself and of the last line), and
it counts three times: the check's pricing, the solve's and the check's own
arithmetic.  The basis stays optimal when every reduced cost, less its S_j,
and less the allowances, is still >= -_TOL: every solve in the range then
returns the stored x with 0 pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LpError(RuntimeError):
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
    """``iterations`` counts simplex pivots; the values of a start are not
    pivots.  ``basis`` names each row's basic variable (module docstring)."""

    x: np.ndarray
    objective: float
    iterations: int
    basis: tuple[int, ...]


_DEGENERATE_STREAK = 30
_TOL = 1e-9                 # pricing and ratio-test tolerance
_RANK_TOL = 1e-9            # elimination pivot, relative to its column's largest entry
_EQ_TOL = 1e-7              # largest value a basic equality residual may hold
_MAX_ITER = 20000           # simplex pivots per solve
_UNIT = 2.0 ** -53          # unit roundoff of a double
_ZERO_INF = np.array([0.0, np.inf])


def lp_solve(problem: LpProblem, basis: tuple[int, ...] | None = None) -> LpSolution:
    """Solve an L1-fit LP; optimal basic solution, deterministic.

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


def lp_stays_optimal(problem: LpProblem, rise: np.ndarray) -> bool:
    """Whether a warm solve of ``problem`` returns the stored x with 0 pivots
    at every cost that rises from ``problem``'s by 0 to ``rise[i]`` on each
    cost of row i's residual pair (module docstring).  False without a
    stored solve, or when b is not the bytes it solved.
    """
    state, template = problem.state, problem.template
    if state.last is None or state.last[0][1] != problem.b_eq.tobytes():
        return False
    _, t, head, cols, _ = state.last
    cost, up, down = _cost_tables(template, problem.c)
    g = cost[head]
    d_up, d_down = _prices(t, g, up[cols], down[cols])
    rise = np.append(rise, 0.0)                 # a state's row is -1
    moves = rise[template.row_of[head]]         # how far each basic cost may move
    size = np.abs(t[:, :-1])
    shift = moves @ size                        # how far each reduced cost may fall
    scale = (np.abs(problem.c).max(initial=0.0) + rise.max()
             + (np.abs(g) @ size + shift).max(initial=0.0))
    k = t.shape[0] + 6
    allowance = k * _UNIT / (1.0 - k * _UNIT) * scale
    return (np.minimum(d_up, d_down) - shift).min(initial=np.inf) - 3.0 * allowance >= -_TOL


class LpTemplate:
    """Constraint data shared by a family of LPs that differ only in c and b,
    with what the kernel derives from it; immutable, see the module
    docstring.  Row i's residual pair is columns ``plus[i]`` and
    ``minus[i]`` (-1 on an equality row).  Over the n + m variable names,
    ``row_of`` is a residual's row, ``flip`` swaps a residual's two columns
    and ``sign_of`` is -1 on a -1 column.  ``crash`` is the crash basis's
    (tableau, basic variable of each row, nonbasic variable of each column),
    or why a cold start cannot be made: the solve fails then, not the
    template."""

    def __init__(self, a_eq, free_mask):
        self.a_eq = np.atleast_2d(np.array(a_eq, dtype=float))
        self.free_mask = np.array(free_mask, dtype=bool)
        self.a_eq.flags.writeable = False
        self.free_mask.flags.writeable = False
        m, n = self.a_eq.shape
        self.free = np.flatnonzero(self.free_mask)

        bounded = ~self.free_mask
        unit = bounded & (np.count_nonzero(self.a_eq, axis=0) == 1)
        row = np.abs(self.a_eq).argmax(axis=0)
        entry = self.a_eq[row, np.arange(n)]
        self.plus, self.minus = np.full(m, -1), np.full(m, -1)
        for first, sign in ((self.plus, 1.0), (self.minus, -1.0)):
            cols = np.flatnonzero(unit & (entry == sign))
            first[row[cols]] = cols
        self.pair = self.plus >= 0
        if not (np.array_equal(self.pair, self.minus >= 0)
                and 2 * np.count_nonzero(self.pair) == np.count_nonzero(bounded)):
            self.crash = ("not an L1 fit: a bounded column is not one of a row's +1/-1 "
                          "residual pair, and such an LP would need phase 1")
            return
        pair = np.flatnonzero(self.pair)
        plus, minus = self.plus[pair], self.minus[pair]
        self.row_of = np.concatenate([np.full(n, -1), np.arange(m)])
        self.row_of[plus] = self.row_of[minus] = pair
        self.flip = np.arange(n + m)
        self.flip[plus], self.flip[minus] = minus, plus
        self.sign_of = np.ones(n + m)
        self.sign_of[minus] = -1.0
        # where in c_ext = [c, 0, inf, -c] a variable's cost while basic sits
        # (c on a +1 column, -c on a -1 column), and its row's costs of a unit
        # step up and down (0 for a state, inf on an equality row)
        self.cost_of = np.concatenate([np.arange(n), np.full(m, n)])
        self.cost_of[minus] = n + 2 + minus
        up, down = np.where(self.pair, self.plus, n + 1), np.where(self.pair, self.minus, n + 1)
        self.up_of = np.where(self.row_of < 0, n, up[self.row_of])
        self.down_of = np.where(self.row_of < 0, n, down[self.row_of])

        rows = _free_rows(self.a_eq[:, self.free], ~self.pair)
        taken = rows >= 0
        states, r = self.free[taken], rows[taken]
        head = np.where(self.pair, self.plus, n + np.arange(m))
        head[r] = states
        # the nonbasic residuals' columns B^-1 e_r, and a zero value column
        t = np.zeros((m, states.size + 1))
        t[r, np.arange(states.size)] = 1.0
        a_cols = self.a_eq[:, states]
        try:
            x = np.linalg.solve(a_cols[r], t[r])
        except np.linalg.LinAlgError:
            self.crash = "singular crash basis"
        else:
            t -= a_cols @ x
            t[r] = x
            self.crash = (t, head, n + r)
        for a in (self.free, self.plus, self.minus, self.pair, self.row_of, self.flip,
                  self.sign_of, self.cost_of, self.up_of, self.down_of,
                  *(self.crash if isinstance(self.crash, tuple) else ())):
            a.flags.writeable = False


class LpState:
    """What the solves of one owner's problems leave behind (module
    docstring): ``last`` is ((basis, b bytes), final tableau, its basic and
    nonbasic variables, read-only x) of the last solve, None before the
    first."""

    def __init__(self):
        self.last: tuple | None = None

    @property
    def basis(self) -> tuple[int, ...] | None:
        """The basis of the last solve, the one warm start; None before it."""
        return None if self.last is None else self.last[0][0]


def _lp_solve(problem: LpProblem, basis) -> LpSolution:
    template, state, b = problem.template, problem.state, problem.b_eq
    if basis is None:
        t, head, cols = _crash_tableau(template, b)
        costs = _cost_tables(template, problem.c)
    else:
        if state.basis != tuple(basis):
            raise LpError("warm basis is not the one of the state's last solve")
        (last_basis, last_b), stored, head, cols, x = state.last
        costs = cost, up, down = _cost_tables(template, problem.c)
        if last_b != b.tobytes():
            t, head, cols = _start(template, stored, head, cols, b)
        elif _entering(stored, cost[head], up[cols], down[cols], cols, 0) is None:
            return LpSolution(x=x, objective=float(problem.c @ x), iterations=0,
                              basis=last_basis)
        else:
            t, head, cols = stored.copy(), head.copy(), cols.copy()

    iterations = _optimize(template, t, head, cols, *costs)
    n = template.a_eq.shape[1]
    x = np.zeros(n)
    real = head < n                         # not an equality residual
    x[head[real]] = template.sign_of[head[real]] * t[real, -1]
    x.flags.writeable = False
    result_basis = tuple(head.tolist())
    state.last = ((result_basis, b.tobytes()), t, head, cols, x)
    return LpSolution(x=x, objective=float(problem.c @ x), iterations=iterations,
                      basis=result_basis)


def _crash_tableau(template: LpTemplate, b):
    """The cold start: the template's crash tableau with the values for b."""
    if isinstance(template.crash, str):
        raise LpError(template.crash)
    return _start(template, *template.crash, b)


def _start(template, t, head, cols, b):
    """Copies of a stored tableau and its variables, with the values B^-1 b
    of its basis in the last column and each residual on the column of its
    value's sign (module docstring)."""
    n = template.a_eq.shape[1]
    t, head, cols = t.copy(), head.copy(), cols.copy()
    t[:, -1] = t[:, :-1] @ b[cols - n]
    res = template.row_of[head] >= 0
    t[res, -1] += b[template.row_of[head[res]]]
    wrong = (template.flip[head] != head) & (template.sign_of[head] * t[:, -1] < 0.0)
    head[wrong] = template.flip[head[wrong]]
    if np.abs(t[head >= n, -1]).max(initial=0.0) > _EQ_TOL:
        raise LpError("an equality row the states cannot meet: the LP would need phase 1")
    return t, head, cols


def _cost_tables(template, c):
    """A solve's costs by variable name: while basic, a unit step up, down."""
    c_ext = np.concatenate([c, _ZERO_INF, -c])
    return c_ext[template.cost_of], c_ext[template.up_of], c_ext[template.down_of]


def _prices(t, g, up, down):
    """A pricing pass: the nonbasic residuals' reduced costs up and down."""
    gt = g @ t[:, :-1]
    return up - gt, down + gt


def _entering(t, g, up, down, cols, degenerate):
    """(column, direction +-1, reduced cost) of the entering residual, by
    Dantzig's rule or Bland's after a long run of degenerate pivots; None
    when no reduced cost is below -_TOL."""
    if not cols.size:
        return None
    d_up, d_down = _prices(t, g, up, down)
    q_up, q_down = int(d_up.argmin()), int(d_down.argmin())
    if d_up[q_up] <= d_down[q_down]:
        q, sign, slope = q_up, 1.0, d_up[q_up]
    else:
        q, sign, slope = q_down, -1.0, d_down[q_down]
    if slope >= -_TOL:
        return None
    if degenerate >= _DEGENERATE_STREAK:
        below = (d_up < -_TOL) | (d_down < -_TOL)
        q = int(np.where(below, cols, np.iinfo(cols.dtype).max).argmin())
        sign, slope = (1.0, d_up[q]) if d_up[q] < -_TOL else (-1.0, d_down[q])
    return q, sign, slope


def _optimize(template, t, head, cols, cost, up, down) -> int:
    """Primal simplex with long steps; mutates t, head and cols, and keeps
    the costs and per-row arrays of the module docstring."""
    n = template.a_eq.shape[1]
    weight = up + down                          # slope a breakpoint adds
    if weight.min() < 0.0:
        raise LpUnbounded("a residual whose two costs sum below zero")
    g, c_up, c_down = cost[head], up[cols], down[cols]
    values = t[:, -1]                           # a view: pivots update t in place
    side = None
    degenerate = 0
    for it in range(_MAX_ITER):
        entering = _entering(t, g, c_up, c_down, cols, degenerate)
        if entering is None:
            return it
        q, sign, slope = entering
        if side is None:
            side = np.where(template.flip[head] != head, template.sign_of[head], 0.0)
            w, eq = weight[head], head >= n
        rate = -sign * t[:, q]                  # d(basic value)/d(step)
        size = np.abs(rate)
        rows = np.flatnonzero((side * rate < -_TOL) | (eq & (size > _TOL)))
        steps = -values[rows] / rate[rows]
        steps[eq[rows]] = 0.0
        by_step = np.lexsort((head[rows], steps))
        order = rows[by_step]
        turned = slope + np.cumsum(size[order] * w[order]) >= 0.0
        if not turned.any():
            raise LpUnbounded("no breakpoint turns the slope of the entering residual")
        k = int(turned.argmax())
        degenerate = degenerate + 1 if steps[by_step[k]] <= _TOL else 0

        p = int(order[k])
        if k:                                   # the passed rows: residuals, never equalities
            passed = order[:k]
            head[passed] = template.flip[head[passed]]
            side[passed] = -side[passed]
            g[passed] = cost[head[passed]]
        _pivot(t, p, q)
        entered = (template.up_of if sign > 0 else template.down_of)[cols[q]]
        left = n + template.row_of[head[p]]
        cols[q], c_up[q], c_down[q] = left, up[left], down[left]
        head[p], g[p], side[p], w[p], eq[p] = entered, cost[entered], sign, weight[entered], False
    raise LpError("simplex iteration limit reached")


def _pivot(t, p, q):
    """Exchange row p's basic variable with column q's; rows zero in q stay."""
    piv = t[p, q]
    col = t[:, q].copy()
    col[p] = 0.0
    t[p] /= piv
    np.subtract(t, np.multiply.outer(col, t[p]), out=t, where=(col != 0.0)[:, None])
    t[:, q] = -col / piv
    t[p, q] = 1.0 / piv


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
