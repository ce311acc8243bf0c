"""The L1 simplex gives the bits of the gathered pivot loop.

``estimation.lp`` keeps its cost tables per solve and its per-row sides,
weights and kinds per pivot; ``oracle.lp_solve_gathered`` re-derives them
from the basic variables at every pricing pass and ratio test, as the
kernel once did.  Every solve below is run by both, the oracle from a copy
of the state the kernel started from, and must give the same x bytes,
basis, pivot count and final tableau bytes: the cold, moved-b and repeat
regional solves of case33 ``drse`` and ``drse_pseudo`` estimates and of
``toy5_formed``, small integer fits full of ties between reduced costs and
between breakpoints, and an L1 fit whose crash leaves an equality residual
basic that a pivot then takes out, under Dantzig's rule and, with the
degenerate streak at 0, under Bland's throughout.
"""

from collections import Counter

import numpy as np
import pytest

from hybridse.coordination import CoordinationParams, run_drse
from hybridse.estimation import LpProblem, RegionalLp, lp_solve
from hybridse.estimation import lp as lp_module
from hybridse.telemetry import LinearRegionModel

from oracle import lp_solve_gathered
from test_coordination import noisy_set
from test_estimation import _case33_sets

STREAKS = [lp_module._DEGENERATE_STREAK, 0]


def _twin(problem, last):
    """``problem`` over a fresh state that holds ``last``."""
    state = lp_module.LpState()
    state.last = last
    return LpProblem(problem.template, problem.c, problem.b_eq, state)


def _assert_same(problem, basis, last, sol):
    """``sol`` and the state it left are the oracle's from ``last``."""
    twin = _twin(problem, last)
    ref = lp_solve_gathered(twin, basis)
    assert sol.x.tobytes() == ref.x.tobytes()
    assert (sol.basis, sol.iterations) == (ref.basis, ref.iterations)
    assert problem.state.last[1].tobytes() == twin.state.last[1].tobytes()


def _checked(monkeypatch):
    """Checks every regional solve against the oracle while installed;
    counts the cold, moved-b and repeat solves and their pivots."""
    from hybridse.estimation import wlav
    real = wlav.lp_solve
    seen = Counter()

    def solve(problem, basis=None):
        last = problem.state.last
        sol = real(problem, basis=basis)
        _assert_same(problem, basis, last, sol)
        if basis is None or last is None:
            seen["cold"] += 1
        elif last[0][1] != problem.b_eq.tobytes():
            seen["moved"] += 1
        else:
            seen["repeat"] += 1
        seen["pivots"] += sol.iterations
        return sol

    monkeypatch.setattr(wlav, "lp_solve", solve)
    return seen


@pytest.mark.parametrize("streak", STREAKS)
def test_case33_drse_and_drse_pseudo(case33, case33_loads, monkeypatch, streak):
    monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", streak)
    seen = _checked(monkeypatch)
    estimates = 0
    for t, injections in ((3600.0, False), (900.0, True)):
        for case in (0, 2):
            for ms in _case33_sets(case33, case33_loads, t, injections, case, range(3)):
                run_drse(case33, ms, CoordinationParams())
                estimates += 1
    assert estimates == 12
    assert seen["cold"] == estimates * len(case33.regions)
    assert seen["moved"] > 0 and seen["repeat"] > 0 and seen["pivots"] > 0


@pytest.mark.parametrize("streak", STREAKS)
def test_toy5_formed(toy5_formed, toy5_formed_loads, monkeypatch, streak):
    monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", streak)
    seen = _checked(monkeypatch)
    for seed in range(3):
        _, ms = noisy_set(toy5_formed, toy5_formed_loads, seed=seed)
        run_drse(toy5_formed, ms, CoordinationParams())
    assert seen["cold"] == 3 * len(toy5_formed.regions)
    assert seen["moved"] > 0 and seen["pivots"] > 0


@pytest.mark.parametrize("streak", STREAKS)
def test_integer_fits_with_ties(monkeypatch, streak):
    monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", streak)
    # unit weights and entries in -1..2: the two halves' least reduced
    # costs are at times equal, so their tie rule shows
    rng = np.random.default_rng(4242)
    pivots = 0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, 3 * n + 3))
        h = rng.integers(-1, 2, size=(m, n)).astype(float)
        h[np.arange(m), rng.integers(0, n, size=m)] += 1.0
        z = rng.integers(-2, 3, size=m).astype(float)
        lp = RegionalLp(LinearRegionModel(h, z, np.ones(m)))
        problem = lp.problem({})
        sol = lp_solve(problem)
        _assert_same(problem, None, None, sol)
        pivots += sol.iterations
        moved = LpProblem(problem.template, problem.c, problem.b_eq + rng.integers(-1, 2, size=m),
                          problem.state)
        last = problem.state.last
        _assert_same(moved, sol.basis, last, lp_solve(moved, basis=sol.basis))
    assert pivots > 0


def _equality_fit(seed):
    """Three consistent exact rows on the last two of three states, the
    second differing from the first by 5e-7 in a column of size 1e3, and
    readings whose last two columns are a multiple of (1, 1e3) plus about
    1e-3.  The crash takes a reading for the first state and the third exact
    row for the second; for the third it finds no exact row above its pivot
    threshold and takes a reading, so the second exact row's residual stays
    basic with an entry of about 5e-4 in that reading's column.  When that
    reading's residual enters, the exact row blocks at step 0 and leaves."""
    rng = np.random.default_rng(seed)
    big, eps = 1e3, 5e-7
    x_true = rng.normal(size=3)
    exact = np.array([[0.0, 1.0, big], [0.0, 1.0, big + eps], [0.0, 2.0, 2.0 * big]])
    m = int(rng.integers(5, 10))
    a = rng.uniform(0.5, 1.5, size=m)
    h = np.column_stack([rng.normal(size=m), a, a * big + rng.uniform(-1e-3, 1e-3, size=m)])
    z = h @ x_true + rng.normal(0.0, 1e-6, size=m)
    return LinearRegionModel(np.vstack([exact, h]), np.concatenate([exact @ x_true, z]),
                             np.concatenate([np.zeros(3), rng.uniform(0.05, 0.5, size=m)]),
                             sources=["virtual_zero"] * 3 + ["scada"] * m)


@pytest.mark.parametrize("streak", STREAKS)
def test_equality_residual_leaves(monkeypatch, streak):
    monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", streak)
    left, pivots = 0, 0
    for seed in range(20):
        lp = RegionalLp(_equality_fit(seed))
        problem = lp.problem({})
        n = problem.a_eq.shape[1]
        try:
            _, head, _ = lp_module._crash_tableau(problem.template, problem.b_eq)
        except lp_module.LpError:
            continue                # the readings' noise breaks an exact row
        sol = lp_solve(problem)
        _assert_same(problem, None, None, sol)
        left += int(np.count_nonzero(head >= n)) - sum(v >= n for v in sol.basis)
        pivots += sol.iterations
    assert left > 0 and pivots > left
