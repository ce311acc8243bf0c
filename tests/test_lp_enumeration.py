"""The L1 kernel against vertex enumeration, an oracle that needs no second
solver.

A weighted L1 fit, min sum_i w_i |b_i - H_i x| with some rows held as
equalities (exact zero injections), has an optimal x that interpolates
rank(H) rows whose H rows span H's row space (Barrodale & Roberts, SIAM J.
Numer. Anal. 10(5), 1973); those rows fix H x, so a rank-deficient H is no
exception.  On a small fit the optimum is therefore the least objective over
the row subsets of size and rank rank(H) whose interpolant meets the
equality rows.

hypothesis draws the fits and they are built as a region's solve builds
them, through ``LinearRegionModel`` and ``RegionalLp``: up to 8 rows and 3
states, half with small integer data (ties and degenerate vertices), a
quarter with unit weights, a quarter with one state a copy of another, and
up to n consistent equality rows.  Each property holds under Dantzig's rule
and under Bland's (``lp._DEGENERATE_STREAK`` 0: every pivot by Bland's rule):

- a cold solve's objective is the enumerated optimum;
- a warm solve at a moved b has the objective of a cold solve at that b;
- a repeat at the same b and costs returns the stored x itself, 0 pivots;
- where ``lp_stays_optimal`` accepts a drawn rise per row, a warm solve at
  the same b with the costs of each row's pair raised by any amounts in
  [0, rise] returns the stored x itself, 0 pivots;
- permuting the rows and the columns of a fit keeps its cold objective.
"""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import hybridse.estimation.lp as lp
from hybridse.estimation import RegionalLp, lp_solve
from hybridse.telemetry import SOURCE_SCADA, SOURCE_VIRTUAL_ZERO, LinearRegionModel

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RULES = {"dantzig": lp._DEGENERATE_STREAK, "bland": 0}


@st.composite
def fits(draw):
    """(H, b, sigma, equality rows, a moved b) of a small weighted L1 fit."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    integer = draw(st.booleans())

    def values(*shape):
        return rng.integers(-2, 3, shape).astype(float) if integer else rng.normal(size=shape)

    h = values(m, n)
    if n > 1 and draw(st.integers(0, 3)) == 0:
        h[:, -1] = h[:, 0]
    if draw(st.integers(0, 3)) == 0:
        sigma = np.ones(m)
    else:
        sigma = rng.integers(1, 5, m) / 2.0 if integer else rng.uniform(0.1, 2.0, m)
    eq = tuple(sorted(rng.choice(m, draw(st.integers(0, min(m, n))), replace=False).tolist()))
    b, moved = values(m), values(m)
    for z in (b, moved):                 # the equality rows consistent
        z[list(eq)] = h[list(eq)] @ values(n)
    return h, b, sigma, eq, moved


def enumerated(h, b, sigma, eq) -> float:
    """The optimum of the fit by enumeration (module docstring)."""
    m, n = h.shape
    rank = np.linalg.matrix_rank(h)
    weight = 1.0 / sigma
    weight[list(eq)] = 0.0
    best = np.inf
    for rows in map(list, itertools.combinations(range(m), rank)):
        if rows and np.linalg.matrix_rank(h[rows]) < rank:
            continue
        x = np.linalg.lstsq(h[rows], b[rows], rcond=None)[0] if rows else np.zeros(n)
        r = b - h @ x
        if np.abs(r[list(eq)]).max(initial=0.0) <= 1e-9 * (1.0 + np.abs(b).max()):
            best = min(best, float(weight @ np.abs(r)))
    return best


def assert_same(objective, optimum):
    assert objective == pytest.approx(optimum, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("rule", RULES)
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(fit=fits())
def test_kernel_meets_enumeration(rule, fit):
    h, b, sigma, eq, moved = fit
    sources = [SOURCE_VIRTUAL_ZERO if i in eq else SOURCE_SCADA for i in range(len(b))]
    problem = RegionalLp(LinearRegionModel(h, b, sigma, sources=sources)).problem({})
    at_moved = replace(problem, b_eq=moved)
    with mock.patch.object(lp, "_DEGENERATE_STREAK", RULES[rule]):
        cold = lp_solve(problem)
        assert_same(cold.objective, enumerated(h, b, sigma, eq))
        repeat = lp_solve(problem, basis=problem.state.basis)
        assert repeat.x is cold.x and repeat.iterations == 0

        warm = lp_solve(at_moved, basis=problem.state.basis)
        assert_same(warm.objective, lp_solve(replace(at_moved, state=lp.LpState())).objective)
        assert_same(warm.objective, enumerated(h, moved, sigma, eq))
        repeat = lp_solve(at_moved, basis=at_moved.state.basis)
        assert repeat.x is warm.x and repeat.iterations == 0


def problem_of(h, b, sigma, eq):
    sources = [SOURCE_VIRTUAL_ZERO if i in eq else SOURCE_SCADA for i in range(len(b))]
    return RegionalLp(LinearRegionModel(h, b, sigma, sources=sources)).problem({})


@pytest.mark.parametrize("rule", RULES)
@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(fit=fits(), seed=st.integers(0, 2 ** 32 - 1))
def test_accepted_rises_repeat_the_stored_x(rule, fit, seed):
    h, b, sigma, eq, _ = fit
    rng = np.random.default_rng(seed)
    problem = problem_of(h, b, sigma, eq)
    template = problem.template
    rise = 10.0 ** rng.integers(-3, 2) * rng.random(template.a_eq.shape[0])
    with mock.patch.object(lp, "_DEGENERATE_STREAK", RULES[rule]):
        cold = lp_solve(problem)
        if not lp.lp_stays_optimal(problem, rise):
            return
        pair = np.flatnonzero(template.pair)
        for top in (rise, *(rise * rng.random(rise.size) for _ in range(3))):
            c = problem.c.copy()
            c[template.plus[pair]] += top[pair] * rng.random(pair.size)
            c[template.minus[pair]] += top[pair] * rng.random(pair.size)
            state = lp.LpState()             # a pivot must not move the stored solve
            state.last = problem.state.last
            sol = lp_solve(lp.LpProblem(template, c, problem.b_eq, state), basis=state.basis)
            assert sol.iterations == 0 and sol.x is cold.x


@pytest.mark.parametrize("rule", RULES)
@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(fit=fits(), seed=st.integers(0, 2 ** 32 - 1))
def test_permuted_fit_keeps_its_objective(rule, fit, seed):
    h, b, sigma, eq, _ = fit
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(len(b)), rng.permutation(h.shape[1])
    position = np.argsort(rows)              # row i of the fit is row position[i]
    with mock.patch.object(lp, "_DEGENERATE_STREAK", RULES[rule]):
        cold = lp_solve(problem_of(h, b, sigma, eq))
        again = lp_solve(problem_of(h[rows][:, cols], b[rows], sigma[rows],
                                    tuple(sorted(position[list(eq)].tolist()))))
    assert again.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
