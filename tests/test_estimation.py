import numpy as np
import pytest

from hybridse import measmodel
from hybridse.estimation import (BoundaryTerm, EstimationResult, LpError, LpProblem,
                                 RegionalLp, UnobservableError, build_regional_wlav_lp,
                                 lnr_substitute, lnr_test, lp_solve, solve_wlav_region,
                                 solve_wls)
from hybridse.estimation import lp as lp_module
from hybridse.estimation import wls as wls_module
from hybridse.powerflow import SystemState
from hybridse.telemetry import (LinearRegionModel, Measurement, MeasurementKind,
                                build_region_H)

from oracle import eval_h_nonlinear, solve_ac_region, truth_vector


def weighted_median(values, weights):
    """Independent oracle: smallest value where cumulative weight reaches half."""
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    half = w.sum() / 2.0
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, half))
    return float(v[idx])


def lav_objective(x, values, weights):
    return float(np.sum(np.asarray(weights) * np.abs(np.asarray(values) - x)))


def own_problem(c, a_eq, b_eq, free_mask):
    """An LP of its own template and solve state, which nothing else shares."""
    return LpProblem(lp_module.LpTemplate(a_eq, free_mask), np.array(c, dtype=float),
                     np.array(b_eq, dtype=float), lp_module.LpState())


def regional_problem(model, terms):
    """The WLAV LP of ``model`` under ``terms``, through a RegionalLp of its own."""
    return build_regional_wlav_lp(RegionalLp(model), terms)


def wlav_region(model, terms=None):
    """One cold solve of the WLAV LP of ``model``, through a RegionalLp of its own."""
    return solve_wlav_region(RegionalLp(model), terms or {})


def scalar_wlav(values, weights):
    """Solve min sum w|z - x| through the LP kernel."""
    model = LinearRegionModel(np.ones((len(values), 1)), values, 1.0 / np.asarray(weights))
    result = wlav_region(model)
    return float(result.x[0]), result.objective


class TestLpKernel:
    def test_one_sided_slack(self):
        # minimize u + l subject to u - l = 0.5
        prob = own_problem(c=[1.0, 1.0], a_eq=[[1.0, -1.0]], b_eq=[0.5],
                           free_mask=[False, False])
        sol = lp_solve(prob)
        assert sol.x[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.x[1] == pytest.approx(0.0, abs=1e-12)
        assert sol.objective == pytest.approx(0.5, abs=1e-12)

    def test_weighted_median_toys(self):
        x, obj = scalar_wlav([1.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert x == pytest.approx(1.0, abs=1e-12)
        assert obj == pytest.approx(1.0, abs=1e-12)
        x, obj = scalar_wlav([1.0, 1.0, 2.0], [1.0, 1.0, 5.0])
        assert x == pytest.approx(2.0, abs=1e-12)
        assert obj == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_tie_objective_only(self):
        x, obj = scalar_wlav([1.0, 2.0], [1.0, 1.0])
        assert obj == pytest.approx(1.0, abs=1e-12)
        assert 1.0 - 1e-9 <= x <= 2.0 + 1e-9   # any point between is optimal

    def test_free_variable_split(self):
        # minimize |x - (-2)| via u/l: x free, optimal x = -2
        prob = own_problem(c=[0.0, 1.0, 1.0], a_eq=[[1.0, 1.0, -1.0]], b_eq=[-2.0],
                           free_mask=[True, False, False])
        sol = lp_solve(prob)
        assert sol.x[0] == pytest.approx(-2.0, abs=1e-12)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_warm_start_reuses_basis(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(8, 2))
        z = h @ np.array([0.5, -0.25]) + rng.normal(0, 0.05, size=8)
        model = LinearRegionModel(h, z, np.full(8, 0.1))
        prob = regional_problem(model, {})
        cold = lp_solve(prob)
        warm = lp_solve(prob, basis=cold.basis)
        assert warm.iterations == 0
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


class TestLpOracle:
    """Random multi-variable regional WLAV LPs against an independent solver,
    scipy's HiGHS: exact zero-injection rows, priced boundary terms and
    degenerate ties from duplicate readings, solved cold and warm."""

    REL_TOL = 1e-9

    @staticmethod
    def _highs(problem):
        linprog = pytest.importorskip("scipy.optimize").linprog
        bounds = [(None, None) if free else (0, None) for free in problem.free_mask]
        ref = linprog(problem.c, A_eq=problem.a_eq, b_eq=problem.b_eq, bounds=bounds,
                      method="highs")
        assert ref.status == 0, ref.message
        return ref.fun

    @staticmethod
    def _case(rng, x_true):
        n = x_true.size
        m = int(rng.integers(n + 2, 3 * n + 3))
        h = rng.normal(size=(m, n))
        z = h @ x_true + rng.normal(0.0, 0.05, size=m)
        sigma = rng.uniform(0.05, 0.5, size=m)
        # duplicate readings: one repeated exactly, one with a different value
        dup = rng.choice(m, size=2, replace=False)
        h = np.vstack([h, h[dup]])
        z = np.concatenate([z, [z[dup[0]], z[dup[1]] + 0.3]])
        sigma = np.concatenate([sigma, sigma[dup]])
        sources = ["scada"] * len(z)
        # exact zero injections the true state satisfies, at random rows
        for _ in range(int(rng.integers(1, 3))):
            row = rng.normal(size=n)
            row[0] -= (row @ x_true) / x_true[0]
            pos = int(rng.integers(len(z) + 1))
            h = np.insert(h, pos, row, axis=0)
            z = np.insert(z, pos, 0.0)
            sigma = np.insert(sigma, pos, 0.0)
            sources.insert(pos, "virtual_zero")
        boundary = {cid: rng.normal(size=n) for cid in range(int(rng.integers(1, 3)))}
        return LinearRegionModel(h, z, sigma, sources=sources, boundary=boundary)

    def test_cold_and_warm_match_highs(self, monkeypatch):
        # a basis from another LP state starts cold exactly once, unless it
        # equals the basis of this state's last solve, whose tableau is reused
        cold, warm_starts = [], {"cold": 0, "reused": 0}
        real = lp_module._crash_tableau

        def counted(*args):
            cold.append(args)
            return real(*args)

        def solve(problem, basis=None):
            last = problem.state.last
            reused = basis is not None and last is not None and last[0][0] == basis
            cold.clear()
            sol = lp_solve(problem, basis=basis)
            assert len(cold) == (0 if reused else 1)
            if basis is not None:
                warm_starts["reused" if reused else "cold"] += 1
            return sol

        monkeypatch.setattr(lp_module, "_crash_tableau", counted)
        rng = np.random.default_rng(20240)
        for _ in range(60):
            x_true = rng.normal(size=int(rng.integers(2, 6)))
            x_true[0] = 1.0 + abs(x_true[0])
            model = self._case(rng, x_true)
            terms = {cid: BoundaryTerm(lam=float(rng.uniform(0.01, 5.0)),
                                       neighbor_p=float(row @ x_true + rng.normal(0, 0.1)),
                                       loss_const=float(rng.uniform(0.0, 0.01)))
                     for cid, row in model.boundary.items()}
            prob = regional_problem(model, terms)

            # the same structure with a perturbed right-hand side
            moved = model.clone()
            moved.z = np.where(np.array(model.sources) == "virtual_zero", 0.0,
                               model.z + rng.normal(0.0, 0.002, size=model.z.size))
            moved_terms = {cid: BoundaryTerm(t.lam, t.neighbor_p + 0.002, t.loss_const)
                           for cid, t in terms.items()}
            prob_moved = regional_problem(moved, moved_terms)

            ref = self._highs(prob)
            scale = max(1.0, abs(ref))
            cold_sol = solve(prob)
            assert abs(cold_sol.objective - ref) <= self.REL_TOL * scale
            warm = solve(prob, basis=solve(prob_moved).basis)
            assert abs(warm.objective - ref) <= self.REL_TOL * scale
            ref_moved = self._highs(prob_moved)
            assert abs(solve(prob_moved, basis=cold_sol.basis).objective - ref_moved) \
                <= self.REL_TOL * max(1.0, abs(ref_moved))
        assert warm_starts["cold"] > 0 and warm_starts["reused"] > 0


class TestRegionalLpReuse:
    """A region's LP built once (``RegionalLp``), the crash tableau made
    once per template and the stored final tableau give the same problems
    and the same optima: every step of a coordination-like sequence builds
    the bytes of a hand-built copy and reaches the optimal objective of its
    cold solve within 1e-9 relative (WLAV LPs often have several optimal
    vertices, and the stored tableau may take another pivot path to one of
    them)."""

    REL_TOL = 1e-9

    @staticmethod
    def _fresh(model, terms):
        """The same LP built afresh from a clone, copied into a problem of its
        own template and state and solved cold: nothing built is shared with
        the sequence."""
        twin = regional_problem(model.clone(), terms)
        problem = own_problem(c=twin.c.copy(), a_eq=twin.a_eq.copy(), b_eq=twin.b_eq.copy(),
                              free_mask=twin.free_mask.copy())
        return problem, lp_solve(problem)

    def _sequence(self, model, steps, counts, basis=None):
        """Solve each step's terms warm from the previous basis through one
        ``RegionalLp`` of the model, against the cold solve of a fresh copy."""
        lp = RegionalLp(model)
        for terms in steps:
            problem = build_regional_wlav_lp(lp, terms)
            cold = counts["cold"]
            sol = lp_solve(problem, basis=basis)
            if basis is not None:
                counts["warm"] += 1
                counts["reused"] += counts["cold"] == cold
            ref_problem, ref = self._fresh(model, terms)
            for name in ("c", "a_eq", "b_eq", "free_mask"):
                assert getattr(problem, name).tobytes() == getattr(ref_problem, name).tobytes()
            assert abs(sol.objective - ref.objective) <= self.REL_TOL * max(1.0, abs(ref.objective))
            basis = sol.basis
        return basis

    @staticmethod
    def _steps(rng, model, x_true, n_repeat):
        """Boundary terms of a stalled coordination loop: neighbor powers
        repeat while the multipliers rise, then move, then repeat again."""
        lam = {cid: float(rng.uniform(0.0, 0.5)) for cid in model.boundary}
        steps = []
        for move in range(3):
            claim = {cid: float(row @ x_true + rng.normal(0, 0.05))
                     for cid, row in model.boundary.items()}
            for _ in range(n_repeat):
                steps.append({cid: BoundaryTerm(lam[cid], claim[cid], 0.001 * move)
                              for cid in model.boundary})
                for cid in lam:
                    lam[cid] += float(rng.uniform(0.0, 1e-3))
        return steps

    def test_same_optimum_as_fresh_solves(self, monkeypatch):
        counts = {"cold": 0, "warm": 0, "reused": 0}
        real = lp_module._crash_tableau

        def counted(*args):
            counts["cold"] += 1
            return real(*args)

        monkeypatch.setattr(lp_module, "_crash_tableau", counted)
        rng = np.random.default_rng(611)
        for _ in range(12):
            x_true = rng.normal(size=int(rng.integers(2, 6)))
            x_true[0] = 1.0 + abs(x_true[0])
            model = TestLpOracle._case(rng, x_true)
            basis = self._sequence(model, self._steps(rng, model, x_true, 5), counts)

            # a rebound z, an in-place edit of z and a clone with another z,
            # each with its own RegionalLp, solve like a fresh build
            scada = np.array(model.sources) != "virtual_zero"
            model.z = np.where(scada, model.z + rng.normal(0.0, 0.01, model.z.size), 0.0)
            basis = self._sequence(model, self._steps(rng, model, x_true, 2), counts, basis)
            model.z[int(np.flatnonzero(scada)[0])] += 0.05
            basis = self._sequence(model, self._steps(rng, model, x_true, 2), counts, basis)
            other = model.clone()
            other.z = np.where(scada, other.z - 0.02, 0.0)
            self._sequence(other, self._steps(rng, other, x_true, 2), counts, basis)
            self._sequence(model, self._steps(rng, model, x_true, 2), counts, basis)
        # warm starts from the template's last basis reuse its tableau; the
        # first of each sequence, from another template's basis, starts cold
        assert 0 < counts["reused"] < counts["warm"]


class TestLpMovedClaims:
    """A boundary claim that moves between solves moves b.  The next solve
    takes the stored tableau's values for the new b and re-optimizes by
    primal pivots, never from a cold start, and each optimum matches HiGHS
    and a cold solve: over claims that swing by 0.2-1.0 from step to step,
    and over claims that jump while the multipliers come to outweigh every
    reading."""

    @staticmethod
    def _counted(monkeypatch):
        counts = {"cold": 0}
        real = lp_module._crash_tableau

        def crash(*args):
            counts["cold"] += 1
            return real(*args)

        monkeypatch.setattr(lp_module, "_crash_tableau", crash)
        return counts

    @staticmethod
    def _check(problem, sol):
        """The objective of HiGHS and of a cold solve of a copy with its own
        template and state."""
        ref = TestLpOracle._highs(problem)
        scale = TestLpOracle.REL_TOL * max(1.0, abs(ref))
        assert abs(sol.objective - ref) <= scale
        copy = own_problem(problem.c, problem.a_eq, problem.b_eq, problem.free_mask)
        assert abs(lp_solve(copy).objective - ref) <= scale

    @staticmethod
    def _warm(counts, problem, basis):
        """Solve warm from the state's last basis with a moved b; asserts
        that the solve does not start cold."""
        (last_basis, last_b), *_ = problem.state.last
        assert last_basis == basis and last_b != problem.b_eq.tobytes()
        cold = counts["cold"]
        sol = lp_solve(problem, basis=basis)
        assert counts["cold"] == cold
        return sol

    def test_moved_claims_match_highs(self, monkeypatch):
        # also from a basis that keeps an equality residual on a redundant
        # row (two parallel zero-injection rows of a 2-state case)
        counts = self._counted(monkeypatch)
        redundant = 0
        rng = np.random.default_rng(912)
        for _ in range(20):
            x_true = rng.normal(size=int(rng.integers(2, 6)))
            x_true[0] = 1.0 + abs(x_true[0])
            model = TestLpOracle._case(rng, x_true)
            lp = RegionalLp(model)
            lam = {cid: float(rng.uniform(0.01, 1.0)) for cid in model.boundary}
            basis = lp_solve(lp.problem({cid: BoundaryTerm(lam[cid], float(row @ x_true))
                                         for cid, row in model.boundary.items()})).basis
            for step in range(5):
                terms = {cid: BoundaryTerm(lam[cid], float(row @ x_true)
                                           + (-1.0) ** step * rng.uniform(0.2, 1.0))
                         for cid, row in model.boundary.items()}
                problem = lp.problem(terms)
                redundant += max(basis) >= problem.a_eq.shape[1]
                sol = self._warm(counts, problem, basis)
                self._check(problem, sol)
                basis = sol.basis
                lam = {cid: v + float(rng.uniform(0.0, 1e-3)) for cid, v in lam.items()}
        assert redundant > 0

    def test_jumping_claims_under_heavy_multipliers(self, monkeypatch):
        counts = self._counted(monkeypatch)
        rng = np.random.default_rng(913)
        for _ in range(10):
            x_true = rng.normal(size=int(rng.integers(2, 6)))
            x_true[0] = 1.0 + abs(x_true[0])
            model = TestLpOracle._case(rng, x_true)
            lp = RegionalLp(model)
            claim = {cid: float(row @ x_true) for cid, row in model.boundary.items()}
            first = lp_solve(lp.problem({cid: BoundaryTerm(1e-3, p - 1.0)
                                         for cid, p in claim.items()}))
            # the claims jump and the multipliers outweigh every reading
            problem = lp.problem({cid: BoundaryTerm(1e4, p + 1.0)
                                  for cid, p in claim.items()})
            self._check(problem, self._warm(counts, problem, first.basis))


def _case33_sets(case33, case33_loads, t, injections, case, seeds):
    """Noisy case33 telemetry at tick t with the four SCADA lines, optionally
    with pseudo injections (30%) and bad-data ``case``, one set per seed."""
    from hybridse.injection import pseudo_measurements
    from hybridse.powerflow import solve_powerflow
    from hybridse.telemetry import (MeasurementSet, ScheduleConfig, inject_bad_data,
                                    simulate_measurements)
    truth = solve_powerflow(case33, case33_loads)
    sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
    for seed in seeds:
        ms = simulate_measurements(case33, truth.state, sched, t=t, seed=seed)
        if case:
            ms = inject_bad_data(ms, case)
        if injections:
            extra = pseudo_measurements(case33, case33_loads, t, pct=0.3, rng=seed)
            ms = MeasurementSet(list(ms.measurements) + extra, ms.corrupt_indices)
        yield ms


def _cold_starts(monkeypatch, moved=None):
    """(region id, problem, solution) of every cold start of the DRSE
    estimates run while it is installed; with a list ``moved``, the same of
    every warm solve whose b moved is appended to it."""
    from hybridse import coordination as coord
    from hybridse.estimation import wlav
    starts, crashed, region = [], [], [None]
    real_region, real_solve, real_crash = (coord.solve_wlav_region, wlav.lp_solve,
                                           lp_module._crash_tableau)

    def per_region(lp, terms):
        region[0] = lp.model.region_id
        return real_region(lp, terms)

    def crash(*args):
        crashed.append(1)
        return real_crash(*args)

    def solve(problem, basis=None):
        crashed.clear()
        last = problem.state.last
        b_moved = last is not None and last[0][1] != problem.b_eq.tobytes()
        sol = real_solve(problem, basis=basis)
        if crashed:
            starts.append((region[0], problem, sol))
        elif b_moved and moved is not None:
            moved.append((region[0], problem, sol))
        return sol

    monkeypatch.setattr(coord, "solve_wlav_region", per_region)
    monkeypatch.setattr(wlav, "lp_solve", solve)
    monkeypatch.setattr(lp_module, "_crash_tableau", crash)
    return starts


def _assert_optimal(problem, sol):
    """HiGHS's objective within 1e-9 relative, no bounded value below -1e-9."""
    ref = TestLpOracle._highs(problem)
    assert abs(sol.objective - ref) <= TestLpOracle.REL_TOL * max(1.0, abs(ref))
    assert sol.x[~problem.free_mask].min() >= -1e-9


def _left_out(template):
    """How many states the crash leaves out: free columns basic in no row."""
    return template.free.size - np.count_nonzero(template.free_mask[
        template.crash[1][template.crash[1] < template.a_eq.shape[1]]])


class TestCase33ColdStart:
    """Every regional cold start of case33 DRSE estimates, and every warm
    solve whose b moved, against HiGHS, at the smart-meter tick and at the
    SCADA-only tick with pseudo injections, clean and with bad-data case 2,
    seeds 0-9 of each.  The crash places the states first, so the AC
    region's cold start takes a few simplex pivots; from the slack basis
    alone it takes 77-94, far above the bound."""

    MAX_AC_PIVOTS = 30

    def test_cold_starts_match_highs(self, case33, case33_loads, monkeypatch):
        from hybridse.coordination import CoordinationParams, run_drse
        from hybridse.grid import AC
        moved = []
        starts = _cold_starts(monkeypatch, moved)
        runs = 0
        for t, injections in ((3600.0, False), (900.0, True)):
            for case in (0, 2):
                for ms in _case33_sets(case33, case33_loads, t, injections, case, range(10)):
                    run_drse(case33, ms, CoordinationParams())
                    runs += 1
        assert len(starts) == runs * len(case33.regions)
        assert len(moved) > runs
        ac = {r.id for r in case33.regions if r.kind == AC}
        for rid, problem, sol in starts:
            _assert_optimal(problem, sol)
            if rid in ac:
                assert sol.iterations <= self.MAX_AC_PIVOTS
        for _, problem, sol in moved:
            _assert_optimal(problem, sol)


class TestRankDeficientColdStart:
    """The crash leaves out the states the readings do not determine.  They
    can leave exact zero injections that no state takes; such a row's
    residual stays basic at zero on a row the other states already fix, and
    the optimum still matches HiGHS, through the same crash."""

    def test_case33_unobservable_ac_region(self, case33, case33_loads, monkeypatch):
        # at the SCADA-only tick without injections, the AC region's H has
        # rank 11 of 51 with the default schedule
        from hybridse import coordination as coord
        from hybridse.coordination import CoordinationParams, run_drse
        from hybridse.grid import AC
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, simulate_measurements
        # over _cold_starts' spy, which records each start's region id
        starts = _cold_starts(monkeypatch)
        models = {}
        real = coord.solve_wlav_region

        def spy(lp, terms):
            models[lp.model.region_id] = lp.model
            return real(lp, terms)

        monkeypatch.setattr(coord, "solve_wlav_region", spy)
        truth = solve_powerflow(case33, case33_loads)
        ac = [r.id for r in case33.regions if r.kind == AC]
        for seed in range(3):
            ms = simulate_measurements(case33, truth.state, ScheduleConfig(), t=900.0,
                                       seed=seed)
            starts.clear()
            run_drse(case33, ms, CoordinationParams())
            for rid in ac:
                h = models[rid].H
                assert (np.linalg.matrix_rank(h), h.shape[1]) == (11, 51)
            assert sorted(rid for rid, *_ in starts) == [r.id for r in case33.regions]
            for rid, problem, sol in starts:
                _assert_optimal(problem, sol)
                assert len(sol.basis) == problem.a_eq.shape[0]
                # the AC crash leaves out the 40 states its rows do not fix;
                # the DC crashes take every state
                assert _left_out(problem.template) == (40 if rid in ac else 0)

    def test_dependent_free_columns(self, monkeypatch):
        # rank r < n states, and r zero injections the true state satisfies,
        # so at most r - 1 of them are independent: one residual stays basic,
        # at zero on a redundant row
        starts = []
        real = lp_module._crash_tableau

        def crash(template, b):
            t, head, cols = real(template, b)
            starts.append(int(np.count_nonzero(head >= template.a_eq.shape[1])))
            return t, head, cols

        monkeypatch.setattr(lp_module, "_crash_tableau", crash)
        rng = np.random.default_rng(2718)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            r = int(rng.integers(2, n))
            mix = rng.normal(size=(r, n))
            x_true = rng.normal(size=n)
            m = int(rng.integers(n + 2, 3 * n + 3))
            h = rng.normal(size=(m, r)) @ mix
            z = h @ x_true + rng.normal(0.0, 0.05, size=m)
            w = mix @ x_true
            g = rng.normal(size=(r, r))
            g -= np.outer(g @ w, w) / (w @ w)
            h = np.vstack([g @ mix, h])
            z = np.concatenate([np.zeros(r), z])
            sigma = np.concatenate([np.zeros(r), rng.uniform(0.05, 0.5, size=m)])
            sources = ["virtual_zero"] * r + ["scada"] * m
            boundary = {0: rng.normal(size=r) @ mix}
            model = LinearRegionModel(h, z, sigma, sources=sources, boundary=boundary)
            lp = RegionalLp(model)
            problem = lp.problem({0: BoundaryTerm(0.3, float(boundary[0] @ x_true) + 0.1)})
            starts.clear()
            sol = lp_solve(problem)
            assert len(starts) == 1 and starts[0] > 0
            _assert_optimal(problem, sol)
            assert max(sol.basis) >= problem.a_eq.shape[1]
            assert len(sol.basis) == problem.a_eq.shape[0]
            # a moved claim re-optimizes from that basis without a cold start
            moved = lp.problem({0: BoundaryTerm(0.3, float(boundary[0] @ x_true) - 0.5)})
            warm = lp_solve(moved, basis=sol.basis)
            assert len(starts) == 1
            _assert_optimal(moved, warm)


class TestNoPhaseOne:
    """The crash basis is the only cold start: every equality residual it
    leaves basic holds at most 1e-7 and has no entry above the pricing
    tolerance in a column that may enter, so it never blocks a step.  Over
    every cold start of case33 DRSE estimates (the smart-meter tick clean
    and with bad-data case 2, the SCADA-only tick with and without pseudo
    injections, and without them under the default schedule, whose AC
    region the readings leave unobservable) and the random LPs of
    ``TestLpOracle``.  An LP that would need phase 1 is refused."""

    @staticmethod
    def _equality_residuals(template, t, head, cols):
        """Basic equality residuals of a crash; asserts each one could stay."""
        n = template.a_eq.shape[1]
        eq = head >= n
        enters = template.pair[cols - n]
        assert np.abs(t[np.ix_(eq, enters)]).max(initial=0.0) <= lp_module._TOL
        assert np.abs(t[eq, -1]).max(initial=0.0) <= 1e-7
        return int(np.count_nonzero(eq))

    def test_case33_cold_starts(self, case33, case33_loads, monkeypatch):
        from hybridse.coordination import CoordinationParams, run_drse
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, simulate_measurements
        seen = []
        real = lp_module._crash_tableau

        def crash(template, b):
            start = real(template, b)
            seen.append(self._equality_residuals(template, *start))
            return start

        monkeypatch.setattr(lp_module, "_crash_tableau", crash)
        sets = [ms for t, injections, case in ((3600.0, False, 0), (3600.0, False, 2),
                                               (900.0, True, 0), (900.0, False, 0))
                for ms in _case33_sets(case33, case33_loads, t, injections, case, range(5))]
        truth = solve_powerflow(case33, case33_loads)
        sets += [simulate_measurements(case33, truth.state, ScheduleConfig(), t=900.0,
                                       seed=seed) for seed in range(3)]
        for ms in sets:
            run_drse(case33, ms, CoordinationParams())
        assert len(seen) == len(sets) * len(case33.regions)

    def test_random_lps(self):
        # their zero injections are at times redundant
        rng = np.random.default_rng(20240)
        seen = 0
        for _ in range(60):
            x_true = rng.normal(size=int(rng.integers(2, 6)))
            x_true[0] = 1.0 + abs(x_true[0])
            model = TestLpOracle._case(rng, x_true)
            terms = {cid: BoundaryTerm(lam=float(rng.uniform(0.01, 5.0)),
                                       neighbor_p=float(row @ x_true + rng.normal(0, 0.1)))
                     for cid, row in model.boundary.items()}
            problem = regional_problem(model, terms)
            for b in (problem.b_eq, -problem.b_eq):
                seen += self._equality_residuals(problem.template,
                                                 *lp_module._crash_tableau(problem.template, b))
        assert seen > 0

    def test_lp_that_needs_phase_one_is_refused(self):
        # x1 + x2 = 1 and x1 - x2 = 0 with x >= 0: no unit column and no free
        # column, so both rows start on their artificials
        problem = own_problem(c=[1.0, 2.0], a_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[1.0, 0.0],
                              free_mask=[False, False])
        with pytest.raises(LpError, match="phase 1"):
            lp_solve(problem)

    def test_warm_start_that_breaks_an_equality_falls_back_cold_once(self, monkeypatch):
        # x1 = b0 and x1 = b1: with b1 = 0 the second row's residual stays
        # basic at zero; moved to b1 = 1 it cannot be met, from the last basis
        # or from a cold start
        problem = own_problem(c=[0.0], a_eq=[[1.0], [1.0]], b_eq=[0.0, 0.0],
                              free_mask=[True])
        first = lp_solve(problem)
        calls = []              # (call, warm basis, error) of each failed call, in order
        real_solve, real_crash = lp_module._lp_solve, lp_module._crash_tableau

        def solve(problem, basis):
            try:
                return real_solve(problem, basis)
            except LpError as exc:
                calls.append(("solve", basis, str(exc)))
                raise

        def crash(template, b):
            try:
                return real_crash(template, b)
            except LpError as exc:
                calls.append(("crash", None, str(exc)))
                raise

        monkeypatch.setattr(lp_module, "_lp_solve", solve)
        monkeypatch.setattr(lp_module, "_crash_tableau", crash)
        moved = LpProblem(problem.template, problem.c, np.array([0.0, 1.0]), problem.state)
        message = "an equality row the states cannot meet: the LP would need phase 1"
        with pytest.raises(LpError, match=message):
            lp_solve(moved, basis=first.basis)
        # the warm start raises, one cold start follows and raises, and its
        # error is the one reported
        assert calls == [("solve", first.basis, message), ("crash", None, message),
                         ("solve", None, message)]
        assert problem.state.basis == first.basis


def _basis_tableau(template, head, cols, b):
    """B^-1 [N | b] of a basis, solved afresh: the reference for the kernel's
    tableaus.  In [A_free | I], a state's column is its column of A, and a
    residual's (a bounded column, or n + i for row i) is its row's unit
    vector."""
    m, n = template.a_eq.shape

    def column(var):
        if var < n and template.free_mask[var]:
            return template.a_eq[:, var]
        return np.eye(m)[var - n if var >= n else int(np.flatnonzero(template.a_eq[:, var])[0])]

    basis = np.column_stack([column(v) for v in head])
    return np.linalg.solve(basis, np.column_stack([*(column(v) for v in cols), b]))


class TestTableauMatchesItsBasis:
    """Every tableau the kernel builds is B^-1 [N | b] of its basis, solved
    afresh, within 1e-9 of its largest entry: the cold start's, for several
    right-hand sides, and each solve's final one.  Each row holds one basic
    variable, each row's residual is basic or nonbasic exactly once, a
    residual's value has the sign of its column and an equality residual's
    is at most 1e-7.  On the regional templates of case33 DRSE estimates,
    on the case33 AC region whose states the readings leave out, on the
    random LPs of ``TestLpOracle`` and on integer fits full of ties, whose
    optima also match HiGHS under Dantzig's rule and under Bland's."""

    @staticmethod
    def _assert_matches(template, t, head, cols, b):
        m, n = template.a_eq.shape
        ref = _basis_tableau(template, head, cols, b)
        assert np.abs(t - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())
        rows = [v - n if v >= n else int(np.flatnonzero(template.a_eq[:, v])[0])
                for v in head if v >= n or not template.free_mask[v]]
        assert sorted(rows + [v - n for v in cols]) == list(range(m))
        for v, value in zip(head, t[:, -1]):
            if v >= n:
                assert abs(value) <= 1e-7
            elif not template.free_mask[v]:
                assert value * template.a_eq[:, v].sum() >= -1e-9

    def _assert_starts(self, template, bs):
        for b in bs:
            self._assert_matches(template, *lp_module._crash_tableau(template, b), b)

    @staticmethod
    def _right_hand_sides(rng, template, b):
        """b, -b, b with noise on the rows with a residual pair, b scaled."""
        return [b, -b, b + rng.normal(0.0, 0.01, size=b.size) * template.pair,
                b * rng.uniform(0.5, 2.0, size=b.size)]

    @staticmethod
    def _solves(monkeypatch):
        """(template, b) of every cold start and (problem, final tableau,
        its variables) of every solve while it is installed."""
        from hybridse.estimation import wlav
        starts, finals = [], []
        real_crash, real_solve = lp_module._crash_tableau, wlav.lp_solve

        def crash(template, b):
            starts.append((template, np.array(b)))
            return real_crash(template, b)

        def solve(problem, basis=None):
            sol = real_solve(problem, basis=basis)
            finals.append((problem, *problem.state.last[1:4]))
            return sol

        monkeypatch.setattr(lp_module, "_crash_tableau", crash)
        monkeypatch.setattr(wlav, "lp_solve", solve)
        return starts, finals

    def _assert_estimates(self, monkeypatch, starts, finals, seed):
        monkeypatch.undo()
        rng = np.random.default_rng(seed)
        for template, b in starts:
            self._assert_starts(template, self._right_hand_sides(rng, template, b))
        for problem, t, head, cols in finals:
            self._assert_matches(problem.template, t, head, cols, problem.b_eq)

    def test_case33_estimates(self, case33, case33_loads, monkeypatch):
        from hybridse.coordination import CoordinationParams, run_drse
        starts, finals = self._solves(monkeypatch)
        for t, injections, case in ((3600.0, False, 0), (900.0, True, 2)):
            for ms in _case33_sets(case33, case33_loads, t, injections, case, range(2)):
                run_drse(case33, ms, CoordinationParams())
        assert len(starts) == 4 * len(case33.regions)
        self._assert_estimates(monkeypatch, starts, finals, 33)

    def test_states_left_out(self, case33, case33_loads, monkeypatch):
        from hybridse.coordination import CoordinationParams, run_drse
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, simulate_measurements
        starts, finals = self._solves(monkeypatch)
        truth = solve_powerflow(case33, case33_loads)
        for seed in range(2):
            ms = simulate_measurements(case33, truth.state, ScheduleConfig(), t=900.0,
                                       seed=seed)
            run_drse(case33, ms, CoordinationParams())
        # the AC region's 51 states: the readings determine 11 of them
        assert any(_left_out(tp) for tp, _ in starts)
        self._assert_estimates(monkeypatch, starts, finals, 51)

    def test_random_lps(self):
        rng = np.random.default_rng(20240)
        for _ in range(60):
            x_true = rng.normal(size=int(rng.integers(2, 6)))
            x_true[0] = 1.0 + abs(x_true[0])
            model = TestLpOracle._case(rng, x_true)
            terms = {cid: BoundaryTerm(lam=float(rng.uniform(0.01, 5.0)),
                                       neighbor_p=float(row @ x_true + rng.normal(0, 0.1)))
                     for cid, row in model.boundary.items()}
            problem = regional_problem(model, terms)
            self._assert_starts(problem.template,
                                self._right_hand_sides(rng, problem.template, problem.b_eq))
            lp_solve(problem)
            self._assert_matches(problem.template, *problem.state.last[1:4], problem.b_eq)

    @pytest.mark.parametrize("streak", [lp_module._DEGENERATE_STREAK, 0])
    def test_integer_fits_with_ties(self, monkeypatch, streak):
        # small integer H, z and weights: ties in the ratio test and
        # degenerate pivots; streak 0 prices by Bland's rule throughout
        monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", streak)
        rng = np.random.default_rng(4242)
        pivots = 0
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n + 1, 4 * n + 4))
            h = rng.integers(-2, 3, size=(m, n)).astype(float)
            h[np.arange(m), rng.integers(0, n, size=m)] += 1.0
            z = rng.integers(-2, 3, size=m).astype(float)
            model = LinearRegionModel(h, z, 1.0 / rng.integers(1, 3, size=m))
            problem = regional_problem(model, {})
            sol = lp_solve(problem)
            pivots += sol.iterations
            _assert_optimal(problem, sol)
            self._assert_matches(problem.template, *problem.state.last[1:4], problem.b_eq)
        assert pivots > 0


class TestCrashTableauKept:
    """The crash tableau is solved once, when the template is built; no
    solve factors a matrix after that, neither a cold start nor a warm
    start whose b moved, and a singular crash block fails the cold start,
    not the template."""

    @staticmethod
    def _problem(seed):
        rng = np.random.default_rng(seed)
        x_true = np.array([1.5, -0.3, 0.7])
        model = TestLpOracle._case(rng, x_true)
        terms = {cid: BoundaryTerm(0.5, float(row @ x_true))
                 for cid, row in model.boundary.items()}
        return model, terms

    def test_one_multi_column_solve(self, monkeypatch):
        # the template's one solve has a column per state the crash takes
        # and the value column; no solve after it factors anything, neither
        # a cold start nor a warm start whose b moved
        model, terms = self._problem(7)
        widths = []
        real = np.linalg.solve

        def solve(a, b):
            widths.append(np.shape(b)[1])
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        lp = RegionalLp(model)
        problems = [lp.problem(terms)]
        problems.append(lp.problem({cid: BoundaryTerm(t.lam, t.neighbor_p + 0.3)
                                    for cid, t in terms.items()}))
        assert widths == [problems[0].template.crash[0].shape[1]]
        cold = []
        real_crash = lp_module._crash_tableau

        def crash(*args):
            cold.append(1)
            return real_crash(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called after the template was built")

        monkeypatch.setattr(lp_module, "_crash_tableau", crash)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        sols = [lp_solve(problems[0])]
        sols.append(lp_solve(problems[1], basis=sols[0].basis))
        sols.append(lp_solve(problems[1]))
        monkeypatch.undo()
        assert len(cold) == 2
        for problem, sol in zip(problems + problems[1:], sols):
            _assert_optimal(problem, sol)

    def test_singular_block_fails_the_cold_start(self, monkeypatch):
        model, terms = self._problem(8)
        real = np.linalg.solve

        def singular(a, b):
            if np.shape(a)[0]:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular)
        lp = RegionalLp(model)
        problem = lp.problem(terms)
        with pytest.raises(LpError, match="singular crash basis"):
            lp_solve(problem)


class TestLpRepeat:
    """A warm solve with the stored basis and b bytes returns the stored x
    itself, with 0 pivots, exactly when the stored tableau prices optimal
    under the new costs; on the regional LPs of a stalled case33 DRSE
    estimate with their multiplier costs moved."""

    @staticmethod
    def _final_terms(case33, case33_loads, monkeypatch):
        from hybridse import coordination as coord
        from hybridse.coordination import CoordinationParams, run_drse
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, simulate_measurements
        last = {}
        real = coord.solve_wlav_region

        def spy(lp, terms):
            last[lp.model.region_id] = (lp.model, terms)
            return real(lp, terms)

        monkeypatch.setattr(coord, "solve_wlav_region", spy)
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        truth = solve_powerflow(case33, case33_loads)
        out = []
        for seed in (3, 7):
            ms = simulate_measurements(case33, truth.state, sched, t=900.0, seed=seed)
            run_drse(case33, ms, CoordinationParams())
            out += last.values()
        return out

    @staticmethod
    def _settle(problem, basis=None):
        """A basis that solves ``problem`` warm with 0 pivots, and that solve,
        reached along the template's own bases from ``basis`` (from a cold
        start without it)."""
        basis = lp_solve(problem, basis=basis).basis
        while (sol := lp_solve(problem, basis=basis)).iterations:
            basis = sol.basis
        return basis, sol

    @staticmethod
    def _prices_optimal(problem, basis):
        """No reduced cost of a nonbasic residual, over the LP state's stored
        tableau and under ``problem``'s costs, is below the pricing
        tolerance.  A basic variable costs c on a +1 column, -c on a -1
        column and nothing as an equality residual (named n + i); a
        nonbasic residual of row i costs c+ per unit up and c- down."""
        template, (_, t, head, cols, _) = problem.template, problem.state.last
        n = problem.a_eq.shape[1]
        assert tuple(head.tolist()) == tuple(basis)
        basic = np.array([0.0 if v >= n else problem.c[v] * (
            1.0 if problem.free_mask[v] else problem.a_eq[:, v].sum()) for v in head])
        gt = basic @ t[:, :-1]
        plus, minus = template.plus[cols - n], template.minus[cols - n]
        pair = plus >= 0
        reduced = np.concatenate([(problem.c[plus] - gt)[pair], (problem.c[minus] + gt)[pair]])
        return bool(reduced.min(initial=np.inf) >= -lp_module._TOL)

    def test_repeat_exactly_when_the_stored_basis_prices_optimal(
            self, case33, case33_loads, monkeypatch):
        answers = set()
        for model, terms in self._final_terms(case33, case33_loads, monkeypatch):
            regional = RegionalLp(model)
            problem = build_regional_wlav_lp(regional, terms)
            basis, last = self._settle(problem)
            assert lp_solve(problem, basis=basis).x is last.x
            # the (a, b) pair of each boundary row, after the model's rows
            boundary = np.arange(len(model.z), problem.a_eq.shape[0])
            ab = np.concatenate([regional.template.plus[boundary],
                                 regional.template.minus[boundary]])
            for scale in (1.0 + 1e-12, 1.001, 1.5, 3.0, 10.0, 1e2, 1e4, 1e6, 0.5, 0.0):
                c = problem.c.copy()
                c[ab] = c[ab] * scale + (1e-3 if scale == 0.0 else 0.0)
                moved = LpProblem(regional.template, c, problem.b_eq, regional.state)
                predicted = self._prices_optimal(moved, basis)
                sol = lp_solve(moved, basis=basis)
                assert predicted == (sol.x is last.x)
                if predicted:
                    assert sol.iterations == 0 and sol.basis == basis
                    assert sol.objective == float(moved.c @ last.x)
                else:
                    assert sol.iterations > 0
                answers.add(predicted)
                basis, last = self._settle(problem, sol.basis)

            # a copy of the problem with its own template and state, another
            # right-hand side or another basis is never answered from the record
            copy = own_problem(problem.c, problem.a_eq, problem.b_eq, problem.free_mask)
            assert lp_solve(copy, basis=basis).x is not last.x
            b = problem.b_eq.copy()
            b[-1] += 1e-3
            assert lp_solve(LpProblem(regional.template, problem.c, b, regional.state),
                            basis=basis).x is not last.x
            basis, last = self._settle(problem)
            assert lp_solve(problem, basis=basis[1:] + basis[:1]).x is not last.x

            # a cold start, also the fallback from a warm basis that does not
            # fit, records its final tableau: the next solve repeats its x
            for start in (basis[:-1], None):
                last = lp_solve(problem, basis=start)
                sol = lp_solve(problem, basis=last.basis)
                assert sol.iterations == 0 and sol.x is last.x
                with pytest.raises(ValueError):
                    sol.x[0] = 0.0
        assert answers == {True, False}

    def test_regional_read_out_reused_with_the_x(self, case33, case33_loads, monkeypatch):
        for model, terms in self._final_terms(case33, case33_loads, monkeypatch)[:3]:
            regional = RegionalLp(model)
            first = solve_wlav_region(regional, terms)
            # the second solve starts warm from the first one's basis
            again = solve_wlav_region(regional, terms)
            assert again.x is first.x and again.x.base is regional.state.last[-1]
            assert again.v is first.v and again.residuals is first.residuals
            assert again.iterations == 0
            with pytest.raises(ValueError):
                again.x[0] = 0.0
            fresh = wlav_region(model, terms)
            assert fresh.v is not first.v
            assert fresh.x.tobytes() == first.x.tobytes()


class TestCostRanging:
    """``lp.lp_stays_optimal`` against brute force, on the final regional LPs
    of stalled case33 DRSE estimates: every multiplier cost in a range it
    accepts is answered by a warm solve with the stored x and 0 pivots, and a
    range stretched past the first multiplier at which a scan pivots is
    refused."""

    @staticmethod
    def _final(case33, case33_loads, monkeypatch):
        """(RegionalLp, boundary terms) of each region's last solve."""
        from hybridse import coordination as coord
        from hybridse.coordination import CoordinationParams, run_drse
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, simulate_measurements
        last = {}
        real = coord.solve_wlav_region

        def spy(lp, terms):
            last[lp.model.region_id] = (lp, terms)
            return real(lp, terms)

        monkeypatch.setattr(coord, "solve_wlav_region", spy)
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        truth = solve_powerflow(case33, case33_loads)
        out = []
        for seed in (3, 7):
            ms = simulate_measurements(case33, truth.state, sched, t=3600.0, seed=seed)
            assert run_drse(case33, ms, CoordinationParams()).stop_reason == "stalled"
            out += last.values()
        return out

    @staticmethod
    def _rise(lp, rises):
        """The rise of each LP row: ``rises`` on the boundary rows."""
        rise = np.zeros(lp.template.a_eq.shape[0])
        rise[lp.m:] = rises
        return rise

    @staticmethod
    def _probe(lp, terms, rises):
        """A warm solve with each converter's multiplier raised by ``rises``,
        on a copy of the LP's state so that a pivot leaves the state as it is."""
        state = lp_module.LpState()
        state.last = lp.state.last
        raised = {cid: BoundaryTerm(terms[cid].lam + r, terms[cid].neighbor_p,
                                    terms[cid].loss_const)
                  for cid, r in zip(lp.convs, rises)}
        problem = lp.problem(raised)
        return lp_solve(LpProblem(lp.template, problem.c, problem.b_eq, state),
                        basis=state.basis)

    def test_accepted_ranges_repeat_and_stretched_ones_are_refused(
            self, case33, case33_loads, monkeypatch):
        rng = np.random.default_rng(0)
        final = self._final(case33, case33_loads, monkeypatch)
        vouched = 0
        for lp, terms in final:
            problem, k = lp.problem(terms), len(lp.convs)
            stored = lp.state.last[-1]
            assert lp_module.lp_stays_optimal(problem, self._rise(lp, np.zeros(k)))

            # a geometric scan of a common rise, the first step that pivots
            # bisected down to the first pivot: a range up to it is refused
            steps = 1e-3 * 2.0 ** np.arange(50)
            pivots = [i for i, s in enumerate(steps)
                      if self._probe(lp, terms, np.full(k, s)).iterations]
            assert pivots
            low, high = (steps[pivots[0] - 1] if pivots[0] else 0.0), steps[pivots[0]]
            for _ in range(40):
                mid = (low + high) / 2.0
                low, high = (low, mid) if self._probe(lp, terms, np.full(k, mid)).iterations \
                    else (mid, high)
            assert not lp_module.lp_stays_optimal(problem, self._rise(lp, np.full(k, high)))

            # inside the largest accepted step (each converter's rise bounded
            # by it): both ends and random points repeat the stored x.  A
            # basis with a zero reduced cost may have none.
            accepted = [s for s in steps
                        if lp_module.lp_stays_optimal(problem, self._rise(lp, np.full(k, s)))]
            if accepted:
                vouched += 1
                top = max(accepted)
                assert top < high
                for rises in [np.full(k, top), *(top * rng.random(k) for _ in range(20))]:
                    sol = self._probe(lp, terms, rises)
                    assert sol.iterations == 0 and sol.x is stored

            # other b bytes, or no stored solve, are never vouched for
            b = problem.b_eq.copy()
            b[-1] = np.nextafter(b[-1], np.inf)
            zero = self._rise(lp, np.zeros(k))
            assert not lp_module.lp_stays_optimal(
                LpProblem(lp.template, problem.c, b, lp.state), zero)
            assert not lp_module.lp_stays_optimal(
                LpProblem(lp.template, problem.c, problem.b_eq, lp_module.LpState()), zero)
        assert vouched >= len(final) - 1


class TestScalarLavIsWeightedMedian:
    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(300):
            m = int(rng.integers(3, 9))
            values = rng.normal(1.0, 0.5, size=m)
            weights = rng.uniform(0.2, 5.0, size=m)
            x_lp, obj_lp = scalar_wlav(values, weights)
            x_med = weighted_median(values, weights)
            assert obj_lp == pytest.approx(lav_objective(x_med, values, weights),
                                           abs=1e-12)


class TestWls:
    def test_consistent_scalar(self):
        model = LinearRegionModel([[1.0], [1.0]], [1.0, 1.0], [0.1, 0.1])
        res = solve_wls(model)
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_weighted_mean(self):
        # weights [1, 3] of z=[1, 2] -> 1.75; sigma = 1/sqrt(w)
        model = LinearRegionModel([[1.0], [1.0]], [1.0, 2.0], [1.0, 1.0 / np.sqrt(3.0)])
        res = solve_wls(model)
        assert res.x[0] == pytest.approx(1.75, abs=1e-12)

    def test_unobservable_names_rank(self):
        model = LinearRegionModel([[1.0, 0.0]], [1.0], [0.1])
        with pytest.raises(UnobservableError, match="rank 1 < 2"):
            solve_wls(model)

    def test_exact_recovery_2node(self, toy2):
        reg = solve_ac_region(toy2, toy2.regions[0], {2: (-0.5, -0.2)})
        st = SystemState(v={n: v for n, (v, _) in reg.items()},
                         theta={n: t for n, (_, t) in reg.items()})
        meas = []
        for kind, loc, d in [(MeasurementKind.AC_V_MAG, (1,), ""),
                             (MeasurementKind.AC_V_MAG, (2,), ""),
                             (MeasurementKind.AC_P_FLOW, (1, 2), "fwd"),
                             (MeasurementKind.AC_Q_FLOW, (1, 2), "fwd"),
                             (MeasurementKind.AC_P_INJ, (2,), ""),
                             (MeasurementKind.AC_Q_INJ, (2,), "")]:
            probe = Measurement(kind, loc, d, 0.0, 0.005, "scada")
            meas.append(Measurement(kind, loc, d, eval_h_nonlinear(toy2, st, probe),
                                    0.005, "scada"))
        model = measmodel.build_region_model(toy2, toy2.regions[0],
                                             list(enumerate(meas)))
        res = solve_wls(model, tol=1e-10)
        assert res.converged
        assert res.v[1] == pytest.approx(st.v[1], abs=1e-8)
        assert res.v[2] == pytest.approx(st.v[2], abs=1e-8)
        assert res.theta[2] == pytest.approx(st.theta[2], abs=1e-8)

    def test_gradient_optimality_linear(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(12, 3))
        sigma = rng.uniform(1e-3, 0.05, size=12)
        z = h @ np.array([1.0, -0.5, 0.25]) + rng.normal(0, 1e-3, size=12)
        model = LinearRegionModel(h, z, sigma)
        res = solve_wls(model)
        w = 1.0 / sigma ** 2
        grad = h.T @ (w * res.residuals)
        assert np.abs(grad).max() <= 1e-8

    def test_gradient_optimality_nonlinear(self, toy2):
        reg = solve_ac_region(toy2, toy2.regions[0], {2: (-0.4, -0.15)})
        st = SystemState(v={n: v for n, (v, _) in reg.items()},
                         theta={n: t for n, (_, t) in reg.items()})
        rng = np.random.default_rng(6)
        meas = []
        for kind, loc, d in [(MeasurementKind.AC_V_MAG, (1,), ""),
                             (MeasurementKind.AC_V_MAG, (2,), ""),
                             (MeasurementKind.AC_P_FLOW, (1, 2), "fwd"),
                             (MeasurementKind.AC_Q_FLOW, (1, 2), "fwd")]:
            probe = Measurement(kind, loc, d, 0.0, 0.01, "scada")
            true = eval_h_nonlinear(toy2, st, probe)
            meas.append(Measurement(kind, loc, d, true + rng.normal(0, 0.002),
                                    0.01, "scada"))
        model = measmodel.build_region_model(toy2, toy2.regions[0],
                                             list(enumerate(meas)))
        res = solve_wls(model, tol=1e-10)
        h, jac = model.h_jac(res.x)
        w = 1.0 / model.sigma ** 2
        grad = jac.T @ (w * (model.z - h))
        assert np.abs(grad).max() <= 1e-8


    def test_step_below_tol_that_cannot_lower_the_objective_converges(self, monkeypatch):
        # case33 CWLS on the first Monte-Carlo run of master seed 20240 (four
        # SCADA lines, clean): the last step is below tol, and the objective,
        # which the zero-injection weights round near the 1e-12 slack, falls
        # under no halving of it
        from hybridse import data
        from hybridse.bench import Scenario, prepare_context
        from hybridse.coordination import run_cwls
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import simulate_measurements
        ctx = prepare_context(Scenario(
            grid=str(data.path(data.CASE33_HYBRID)), method="cwls", runs=1, seed=20240,
            base_profile=str(data.path(data.CASE33_HYBRID_LOADS)), test_days=5,
            schedule={"scada_ac_branches": [[1, 2], [2, 19], [3, 23], [6, 26]]}))
        rng = np.random.default_rng(20240)
        _, profile = ctx.test_profiles.sample_tick(rng)
        truth = solve_powerflow(ctx.grid, profile)
        ms = simulate_measurements(ctx.grid, truth.state, ctx.schedule, t=3600.0, seed=rng)
        assert run_cwls(ctx.grid, ms).stop_reason == "converged"

        model = measmodel.build_system_model(ctx.grid, list(enumerate(ms.measurements)))
        xs, steps = [], []
        real_h_jac, real_step = model.h_jac, wls_module._gn_step

        def h_jac(x, with_jac=True):
            if with_jac:
                xs.append(x)
            return real_h_jac(x, with_jac=with_jac)

        def gn_step(*args, **kwargs):
            steps.append(real_step(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(model, "h_jac", h_jac)
        monkeypatch.setattr(wls_module, "_gn_step", gn_step)
        res = solve_wls(model)
        assert res.converged and res.iterations == len(steps) == len(xs)
        assert np.abs(steps[-1]).max() < 1e-6
        # the line search rejected that step: x is the iterate it started from
        assert res.x.tobytes() == xs[-1].tobytes()

class TestLnr:
    def _scalar_model(self, values, sigma=0.02):
        return LinearRegionModel(np.ones((len(values), 1)), values,
                                 np.full(len(values), sigma))

    def test_clean_data_no_flag(self):
        model = self._scalar_model([1.0, 1.0, 1.0])
        out = lnr_test(model, solve_wls(model))
        assert not out.report.flagged

    def test_flags_and_removes_outlier(self):
        model = self._scalar_model([1.0, 1.0, 1.6])
        out = lnr_test(model, solve_wls(model))
        assert [i for i, _ in out.report.flagged] == [2]
        assert out.result.x[0] == pytest.approx(1.0, abs=1e-9)
        assert out.report.flagged[0][1] > 3.0

    def test_critical_measurement_untestable(self):
        # two states, one measured once: that row has zero residual variance
        h = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model = LinearRegionModel(h, [1.0, 1.0, 1.0, 5.0], np.full(4, 0.02))
        out = lnr_test(model, solve_wls(model))
        assert 3 in out.report.untestable
        assert all(i != 3 for i, _ in out.report.flagged)

    def test_singular_r_names_the_scope(self):
        # the second state has no reading: R is singular at any given x, and
        # the test's error reads as the solve's does, region included
        model = LinearRegionModel([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [1.0, 1.1, 2.0],
                                  np.full(3, 0.02), region_id=4)
        given = EstimationResult(v={}, theta={}, conv_vars={}, residuals=np.zeros(3),
                                 objective=0.0, iterations=0, converged=True,
                                 x=np.array([1.0, 0.0]))
        message = r"^unobservable in region:4: weighted Jacobian rank 1 < 2$"
        with pytest.raises(UnobservableError, match=message):
            lnr_test(model, given)
        with pytest.raises(UnobservableError, match=message):
            solve_wls(model)

    def test_selection_matches_the_loop(self):
        # the vectorized selection of the largest normalized residual against
        # a per-row reference loop, bit for bit: ties, critical rows and rows
        # that are not removable
        def loop(res, omega, sigma, removable):
            best, best_nr, critical = -1, 0.0, []
            for i in range(res.size):
                if not removable[i]:
                    continue
                if omega[i] <= 1e-4 * sigma[i] * sigma[i]:
                    critical.append(i)
                    continue
                nr = abs(res[i]) / np.sqrt(omega[i])
                if nr > best_nr:
                    best, best_nr = i, nr
            return best, best_nr, critical

        rng = np.random.default_rng(8)
        for _ in range(500):
            m = int(rng.integers(1, 10))
            res = rng.choice([0.0, 0.3, -0.3, 0.7], size=m) * rng.choice([1.0, 1.0 + 1e-15], size=m)
            sigma = rng.choice([0.01, 0.02], size=m)
            omega = sigma * sigma * rng.choice([1e-5, 0.5, 0.9], size=m)
            at_bound = rng.random(m) < 0.2
            omega[at_bound] = (1e-4 * sigma * sigma)[at_bound]
            removable = rng.random(m) < 0.8
            i, nr, critical = wls_module._largest_normalized(res, omega, sigma, removable)
            best, best_nr, ref_critical = loop(res, omega, sigma, removable)
            assert nr == best_nr
            assert best < 0 or i == best
            assert np.flatnonzero(critical).tolist() == ref_critical


class TestLnrSubstitute:
    """``lnr_substitute`` against an independent oracle: on a linear model a
    substituted reading is its leave-one-out prediction h_i x_(-i), with
    x_(-i) the weighted least-squares fit of the other rows (lstsq)."""

    @staticmethod
    def _leave_one_out(model, i):
        sigma = wls_module.effective_sigma(model)
        keep = np.arange(model.z.size) != i
        x = np.linalg.lstsq((model.H / sigma[:, None])[keep], (model.z / sigma)[keep],
                            rcond=None)[0]
        return float(model.H[i] @ x)

    def test_scalar_leave_one_out(self):
        model = LinearRegionModel(np.ones((4, 1)), [1.0, 1.0, 1.0, 1.8], np.full(4, 0.02))
        replaced = lnr_substitute(model, 3.0)
        assert list(replaced) == [3]
        assert replaced[3] == pytest.approx(self._leave_one_out(model, 3), rel=1e-9)
        assert replaced[3] == pytest.approx(1.0, abs=1e-12)

    def test_case33_screen_leave_one_out(self, case33, case33_loads, monkeypatch):
        # the screen's own regional models (four SCADA lines, SCADA-only tick,
        # base-load priors), one reading corrupted by bad-data cases 1-3
        from types import SimpleNamespace
        from hybridse.injection import injection_components, pipeline
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, inject_bad_data, simulate_measurements
        real, screened = pipeline.lnr_substitute, []

        def record(model, threshold):
            z = model.z.copy()
            replaced = real(model, threshold)
            assert np.array_equal(model.z, z)
            screened.append((model, replaced))
            return replaced

        monkeypatch.setattr(pipeline, "lnr_substitute", record)
        stub = SimpleNamespace(gmm_means={
            key: (case33_loads.p_at if key[0] == "p" else case33_loads.q_at)(
                int(key.split(":")[1]))
            for key in injection_components(case33)})
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        truth = solve_powerflow(case33, case33_loads)
        checked = 0
        for seed in range(3):
            ms = simulate_measurements(case33, truth.state, sched, t=900.0, seed=seed)
            for case in (1, 2, 3):
                screened.clear()
                pipeline.sanitize_scada(case33, inject_bad_data(ms, case), stub)
                assert len(screened) == len(case33.regions)
                for model, replaced in screened:
                    if replaced:
                        gidx, value = next(iter(replaced.items()))
                        oracle = self._leave_one_out(model, model.meas_indices.index(gidx))
                        assert value == pytest.approx(oracle, rel=1e-9)
                        checked += 1
        assert checked == 9


class TestLnrLeavesTheModel:
    """``lnr_test`` works on a clone only once it removes or substitutes a
    reading, and a removal masks the compiled rows, so CWLS estimates of one
    row set compile the system model once in all, and the caller's model
    never changes."""

    @staticmethod
    def _case33_set(case33, case33_loads, seed):
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, simulate_measurements
        truth = solve_powerflow(case33, case33_loads)
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        return simulate_measurements(case33, truth.state, sched, t=3600.0, seed=seed)

    def test_cwls_compiles_once_per_row_set(self, case33_loads, monkeypatch):
        from hybridse import data
        from hybridse.coordination import run_cwls
        from hybridse.grid import load_grid
        from hybridse.telemetry import inject_bad_data
        grid = load_grid(data.path(data.CASE33_HYBRID))
        built = []
        real = measmodel._CompiledRows

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(measmodel, "_CompiledRows", counted)
        flagged = []
        for seed in range(3):
            ms = self._case33_set(grid, case33_loads, seed)
            for bad in (ms, inject_bad_data(ms, 1)):
                flagged.append(len(run_cwls(grid, bad).bad_data[-1].flagged))
        assert flagged[0::2] == [0, 0, 0] and min(flagged[1::2]) > 0
        assert len(built) == 1

    def test_outcome_model_shares_the_compiled_rows(self, case33, case33_loads):
        # nothing flagged: the caller's model; a removal: a clone without the
        # flagged rows on the same compiled rows, the caller's keeping them all
        from hybridse.measmodel import build_system_model
        from hybridse.telemetry import inject_bad_data
        ms = self._case33_set(case33, case33_loads, 0)
        clean = build_system_model(case33, list(enumerate(ms.measurements)))
        assert lnr_test(clean, solve_wls(clean)).model is clean
        model = build_system_model(case33, list(enumerate(inject_bad_data(ms, 1).measurements)))
        rows = list(model.meas_indices)
        out = lnr_test(model, solve_wls(model))
        flagged = {i for i, _ in out.report.flagged}
        assert flagged
        assert out.model.meas_indices == [i for i in rows if i not in flagged]
        assert model.meas_indices == rows and model.z.size == len(rows)
        assert out.model._compiled is model._compiled

    @staticmethod
    def _snapshot(model):
        fields = {name: getattr(model, name) for name in
                  ("rows", "H", "z", "sigma", "sources", "meas_indices", "measurements")
                  if hasattr(model, name)}
        return {name: value.tobytes() if isinstance(value, np.ndarray) else list(value)
                for name, value in fields.items()}

    def test_model_unchanged(self, case33, case33_loads):
        from hybridse.measmodel import build_system_model
        from hybridse.telemetry import inject_bad_data
        ms = inject_bad_data(self._case33_set(case33, case33_loads, 11), 1)
        models = [build_system_model(case33, list(enumerate(ms.measurements)))]
        by_region = ms.by_region(case33)
        models += [build_region_H(case33, region, by_region[region.id])
                   for region in case33.regions]
        flagged = 0
        for model in models:
            before = self._snapshot(model)
            out = lnr_test(model, solve_wls(model))
            flagged += len(out.report.flagged)
            assert self._snapshot(model) == before
        assert flagged > 0


class TestQrFactor:
    """Gauss-Newton steps come from a Householder QR of the augmented matrix
    [A | b], A = W^(1/2) J the weighted Jacobian, and the residual variances
    of the normalized-residual test from one of A."""

    SCHED = ((1, 2), (2, 19), (3, 23), (6, 26))

    @staticmethod
    def _models(grid, loads, sched):
        """The system model and a DWLS model of the AC region with its
        boundary rows, each with its weight overrides, plus the true x."""
        from hybridse.grid import AC
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, simulate_measurements
        truth = solve_powerflow(grid, loads)
        ms = simulate_measurements(grid, truth.state, ScheduleConfig(scada_ac_branches=sched),
                                   t=3600.0, seed=3)
        system = measmodel.build_system_model(grid, list(enumerate(ms.measurements)))
        ac = next(r for r in grid.regions if r.kind == AC)
        pairs = ms.by_region(grid)[ac.id]
        region = measmodel.build_region_model(grid, ac, pairs)
        overrides = {len(pairs) + k: (0.0, 1e-2)[k % 2] for k in range(len(ac.boundary))}
        return [(model, over, truth_vector(model, truth.state, truth.converters))
                for model, over in ((system, {}), (region, overrides))]

    @staticmethod
    def _weighted(model, overrides, x):
        """(J, A, A-weighted residual) as solve_wls forms them at x."""
        sigma = wls_module.effective_sigma(model)
        w = 1.0 / (sigma * sigma)
        for i, wi in overrides.items():
            w[i] = wi
        sw = np.sqrt(w)
        h, jac = model.h_jac(x)
        return jac, jac * sw[:, None], (model.z - h) * sw

    @pytest.mark.parametrize("grid_name", ["case33", "toy5"])
    def test_step_matches_lstsq(self, grid_name, request):
        grid = request.getfixturevalue(grid_name)
        loads = request.getfixturevalue(f"{grid_name}_loads")
        sched = self.SCHED if grid_name == "case33" else None
        for model, overrides, x_true in self._models(grid, loads, sched):
            for x in (model.x0(), x_true):
                _, a, rhs = self._weighted(model, overrides, x)
                dx = wls_module._gn_step(a, rhs)
                ref = np.linalg.lstsq(a, rhs, rcond=None)[0]
                assert np.abs(dx - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_omega_matches_gain_inverse(self):
        # well-conditioned linear models, where the gain-inverse formula
        # sigma^2 - diag(H (A^T A)^-1 H^T) is itself accurate to 1e-9
        rng = np.random.default_rng(21)
        for _ in range(20):
            m, n = int(rng.integers(6, 40)), int(rng.integers(1, 6))
            h = rng.normal(size=(m, n))
            sigma = rng.uniform(1e-3, 0.05, size=m)
            a = h / sigma[:, None]
            omega = wls_module._residual_variance(h, wls_module._factor(a)[1], sigma)
            ref = sigma ** 2 - np.einsum("ij,ji->i", h, np.linalg.solve(a.T @ a, h.T))
            assert np.abs(omega - ref).max() <= 1e-9 * (sigma ** 2).max()

    def test_omega_matches_svd_on_case33(self, case33, case33_loads):
        # with the 1e12 zero-injection weights the gain matrix is too badly
        # conditioned to serve as the reference: take G^-1 = V S^-2 V^T from
        # the SVD of A instead, and check that QR is the closer of the two
        for model, overrides, x_true in self._models(case33, case33_loads, self.SCHED):
            sigma = wls_module.effective_sigma(model)
            for x in (model.x0(), x_true):
                jac, a, _ = self._weighted(model, overrides, x)
                omega = wls_module._residual_variance(jac, np.linalg.qr(a, mode="r"), sigma)
                _, s, vt = np.linalg.svd(a, full_matrices=False)
                y = (vt @ jac.T) / s[:, None]
                ref = sigma ** 2 - np.einsum("ij,ij->j", y, y)
                gain = sigma ** 2 - np.einsum("ij,ji->i", jac,
                                              np.linalg.solve(a.T @ a, jac.T))
                rows = np.isin(model.sources, wls_module.REMOVABLE_SOURCES)
                err_qr = (np.abs(omega - ref) / sigma ** 2)[rows].max()
                err_gain = (np.abs(gain - ref) / sigma ** 2)[rows].max()
                assert err_qr <= 1e-8
                assert err_qr < err_gain

    def test_lnr_normalized_residual_analytic(self):
        # mean of m equal-sigma readings: Omega_ii = sigma^2 (1 - 1/m)
        values, sigma = [1.0, 1.0, 1.0, 1.6], 0.02
        model = LinearRegionModel(np.ones((4, 1)), values, np.full(4, sigma))
        out = lnr_test(model, solve_wls(model))
        r = 1.6 - np.mean(values)
        assert out.report.flagged[0][0] == 3
        assert out.report.flagged[0][1] == pytest.approx(
            r / (sigma * np.sqrt(1.0 - 1.0 / 4)), rel=1e-9)

    def test_unobservable_rank_unchanged(self, case33, case33_loads):
        # SCADA-only tick without injections: the SVD rank keeps being reported
        from hybridse.coordination import run_cwls
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, simulate_measurements
        truth = solve_powerflow(case33, case33_loads)
        ms = simulate_measurements(case33, truth.state, ScheduleConfig(), t=900.0, seed=0)
        with pytest.raises(UnobservableError,
                           match="weighted Jacobian rank 28 < 68") as info:
            run_cwls(case33, ms)
        assert (info.value.rank, info.value.n_states) == (28, 68)

    def test_dependent_column_unobservable(self):
        # a column that combines the others leaves a rounding-sized, not an
        # exactly zero, diagonal entry in R
        rng = np.random.default_rng(5)
        h = rng.normal(size=(10, 3))
        h = np.column_stack([h, h @ np.array([0.3, -1.7, 0.9])])
        model = LinearRegionModel(h, rng.normal(size=10), np.full(10, 0.01))
        assert np.abs(np.diag(np.linalg.qr(h, mode="r"))).min() > 0.0
        with pytest.raises(UnobservableError, match="rank 3 < 4"):
            solve_wls(model)


class TestAugmentedStep:
    """A Gauss-Newton step from the R of the augmented matrix [A | b]
    against an independent least-squares solve (lstsq, an SVD), and the
    returned CWLS state against lstsq's step there."""

    @staticmethod
    def _case33_sets(case33, case33_loads):
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import ScheduleConfig, inject_bad_data, simulate_measurements
        truth = solve_powerflow(case33, case33_loads)
        sched = ScheduleConfig(scada_ac_branches=TestQrFactor.SCHED)
        for seed in range(3):
            ms = simulate_measurements(case33, truth.state, sched, t=3600.0, seed=seed)
            yield ms
            yield inject_bad_data(ms, 2)

    def test_flat_start_step_matches_lstsq(self, case33, case33_loads):
        for ms in self._case33_sets(case33, case33_loads):
            model = measmodel.build_system_model(case33, list(enumerate(ms.measurements)))
            _, a, rhs = TestQrFactor._weighted(model, {}, model.x0())
            dx = wls_module._gn_step(a, rhs)
            ref = np.linalg.lstsq(a, rhs, rcond=None)[0]
            assert np.abs(dx - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_returned_state_is_stationary(self, case33, case33_loads):
        # on the system model of the readings LNR kept, lstsq's step at the
        # returned x is below the solver's tolerance
        from hybridse.coordination import run_cwls
        flagged_runs = 0
        for ms in self._case33_sets(case33, case33_loads):
            est = run_cwls(case33, ms)
            flagged = {idx for rep in est.bad_data.values() for idx, _ in rep.flagged}
            flagged_runs += bool(flagged)
            kept = [(i, m) for i, m in enumerate(ms.measurements) if i not in flagged]
            model = measmodel.build_system_model(case33, kept)
            _, a, rhs = TestQrFactor._weighted(model, {}, est.regions[-1].x)
            assert np.abs(np.linalg.lstsq(a, rhs, rcond=None)[0]).max() < 1e-6
        assert flagged_runs == 3

    def test_square_system_solves(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        x = rng.normal(size=5)
        res = solve_wls(LinearRegionModel(h, h @ x, np.full(5, 0.01)))
        assert res.converged
        assert np.abs(res.x - x).max() <= 1e-12

    def test_square_rank_deficient_raises_svd_rank(self):
        h = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        with pytest.raises(UnobservableError, match="rank 2 < 3"):
            solve_wls(LinearRegionModel(h, [1.0, 2.0, 0.5], np.full(3, 0.01)))


class TestWlavRegion:
    def _region_model(self, toy2, noise=0.0, seed=0):
        reg = solve_ac_region(toy2, toy2.regions[0], {2: (-0.5, -0.2)})
        st = SystemState(v={n: v for n, (v, _) in reg.items()},
                         theta={n: t for n, (_, t) in reg.items()})
        rng = np.random.default_rng(seed)
        meas = []
        for kind, loc, d in [(MeasurementKind.AC_V_MAG, (1,), ""),
                             (MeasurementKind.AC_V_MAG, (2,), ""),
                             (MeasurementKind.AC_P_FLOW, (1, 2), "fwd"),
                             (MeasurementKind.AC_Q_FLOW, (1, 2), "fwd"),
                             (MeasurementKind.AC_P_FLOW, (1, 2), "rev"),
                             (MeasurementKind.AC_Q_FLOW, (1, 2), "rev"),
                             (MeasurementKind.AC_P_INJ, (2,), ""),
                             (MeasurementKind.AC_Q_INJ, (2,), "")]:
            probe = Measurement(kind, loc, d, 0.0, 0.004, "scada")
            meas.append(Measurement(kind, loc, d, eval_h_nonlinear(toy2, st, probe),
                                    0.004, "scada"))
        model = build_region_H(toy2, toy2.regions[0], list(enumerate(meas)))
        # overwrite readings with linear-consistent values of the solved state
        x_true = truth_vector(model, st)
        z = model.h(x_true)
        model.z = z + rng.normal(0.0, noise, size=z.size)
        return model, x_true

    def test_zero_noise_exact_recovery(self, toy2):
        model, x_true = self._region_model(toy2)
        result = wlav_region(model)
        assert result.objective <= 1e-9
        assert np.abs(result.x - x_true).max() <= 1e-9

    def test_interpolation_property_with_noise(self, toy2):
        # m >= n noise-free consistent measurements reproduce the state exactly
        model, x_true = self._region_model(toy2, noise=0.0, seed=9)
        result = wlav_region(model)
        assert np.abs(result.x - x_true).max() <= 1e-9

    def test_case1_doubling_rejected(self, toy2):
        # exact base readings with redundancy >= 2 at the branch
        model, x_true = self._region_model(toy2, noise=0.0, seed=2)
        clean = wlav_region(model)
        doubled = model.clone()
        flow_idx = 2  # AcPFlow fwd row
        doubled.z = doubled.z.copy()
        doubled.z[flow_idx] *= 2.0
        corrupt = wlav_region(doubled)
        assert np.abs(corrupt.x - clean.x).max() <= 1e-6
        gross = doubled.z[flow_idx] - model.z[flow_idx]
        assert corrupt.residuals[flow_idx] == pytest.approx(gross, rel=1e-3)

    def test_lambda_zero_boundary_free(self, toy5, toy5_loads):
        from hybridse.powerflow import solve_powerflow
        res = solve_powerflow(toy5, toy5_loads)
        st = res.state
        meas = []
        for kind, loc, d in [(MeasurementKind.AC_V_MAG, (1,), ""),
                             (MeasurementKind.AC_V_MAG, (3,), ""),
                             (MeasurementKind.AC_P_FLOW, (1, 2), "fwd"),
                             (MeasurementKind.AC_Q_FLOW, (1, 2), "fwd"),
                             (MeasurementKind.CONV_P, (0,), "ac"),
                             (MeasurementKind.CONV_Q, (0,), "ac"),
                             (MeasurementKind.AC_P_INJ, (2,), ""),
                             (MeasurementKind.AC_Q_INJ, (2,), "")]:
            probe = Measurement(kind, loc, d, 0.0, 0.004, "scada")
            meas.append(Measurement(kind, loc, d,
                                    eval_h_nonlinear(toy5, st, probe), 0.004, "scada"))
        model = build_region_H(toy5, toy5.regions[0], list(enumerate(meas)))
        free = wlav_region(model, {0: BoundaryTerm(lam=0.0, neighbor_p=5.0)})
        tied = wlav_region(model, {0: BoundaryTerm(lam=0.0, neighbor_p=-5.0)})
        # with lambda = 0 the (absurd) neighbor value cannot move the estimate
        assert np.allclose(free.x, tied.x, atol=1e-9)
        assert free.objective == pytest.approx(tied.objective, abs=1e-12)


class TestRobustnessVsWls:
    """Bounded influence on redundant toys: a gross error of any size moves the
    WLAV estimate no more than a borderline (3-sigma) error moves WLS.  The toy
    readings are tighter than their rated sigma, the usual conservative-rating
    situation, so no measurement is the sole support of the fit."""

    def test_scalar_paired_readings(self):
        rng = np.random.default_rng(2024)
        sigma = 0.02
        for _ in range(10):
            base = 1.0 + rng.normal(0.0, 0.1 * sigma, size=4)
            z = np.repeat(base, 2) + rng.normal(0.0, 0.1 * sigma, size=8)
            weights = np.full(8, 1.0 / sigma)
            x_clean, _ = scalar_wlav(z, weights)
            wls_change = 3 * sigma / 8.0   # equal weights: 3 sigma / m
            for j in range(8):
                for mag in (3 * sigma, 10 * sigma, 100 * sigma, 1e4 * sigma):
                    zc = z.copy()
                    zc[j] += mag
                    x_corrupt, _ = scalar_wlav(zc, weights)
                    assert abs(x_corrupt - x_clean) <= wls_change + 1e-12

    def test_region_toy(self, toy2):
        sigma = 0.004
        model, x_true = self._noisy_region(toy2, sigma)
        clean = wlav_region(model)
        w = 1.0 / model.sigma ** 2
        for j in range(len(model.z)):
            wls_clean = solve_wls(model)
            bumped = model.clone()
            bumped.z = bumped.z.copy()
            bumped.z[j] += 3 * model.sigma[j]
            wls_bumped = solve_wls(bumped)
            wls_change = np.abs(wls_bumped.x - wls_clean.x).max()
            for mag in (10 * sigma, 100 * sigma, 1e4 * sigma):
                corrupt = model.clone()
                corrupt.z = corrupt.z.copy()
                corrupt.z[j] += mag
                est = wlav_region(corrupt)
                assert np.abs(est.x - clean.x).max() <= wls_change + 1e-12

    def _noisy_region(self, toy2, sigma):
        reg = solve_ac_region(toy2, toy2.regions[0], {2: (-0.5, -0.2)})
        st = SystemState(v={n: v for n, (v, _) in reg.items()},
                         theta={n: t for n, (_, t) in reg.items()})
        rng = np.random.default_rng(7)
        meas = []
        # voltage level carries redundancy 4 so no single reading is a majority
        for kind, loc, d in [(MeasurementKind.AC_V_MAG, (1,), ""),
                             (MeasurementKind.AC_V_MAG, (1,), ""),
                             (MeasurementKind.AC_V_MAG, (2,), ""),
                             (MeasurementKind.AC_V_MAG, (2,), ""),
                             (MeasurementKind.AC_P_FLOW, (1, 2), "fwd"),
                             (MeasurementKind.AC_Q_FLOW, (1, 2), "fwd"),
                             (MeasurementKind.AC_P_FLOW, (1, 2), "rev"),
                             (MeasurementKind.AC_Q_FLOW, (1, 2), "rev"),
                             (MeasurementKind.AC_P_INJ, (2,), ""),
                             (MeasurementKind.AC_Q_INJ, (2,), "")]:
            probe = Measurement(kind, loc, d, 0.0, sigma, "scada")
            meas.append(Measurement(kind, loc, d, eval_h_nonlinear(toy2, st, probe),
                                    sigma, "scada"))
        model = build_region_H(toy2, toy2.regions[0], list(enumerate(meas)))
        x_true = truth_vector(model, st)
        model.z = model.h(x_true) + rng.normal(0.0, 0.1 * sigma, size=len(model.z))
        return model, x_true
