import gc
import hashlib
import pickle
import struct
import time
import weakref
from dataclasses import replace

import pytest

import hybridse.bench.montecarlo as montecarlo
import hybridse.coordination as coord
import hybridse.estimation.lp as lp_module
import hybridse.estimation.wlav as wlav
import hybridse.measmodel as measmodel
from hybridse import data
from hybridse.bench import Scenario, prepare_context, run_single
from hybridse.coordination import (CoordinationParams, run_cwls, run_drse,
                                   run_dwls)
from hybridse.estimation import BoundaryTerm, UnobservableError
from hybridse.grid import AC, load_grid
from hybridse.powerflow import solve_powerflow
from hybridse.telemetry import (MeasurementKind, MeasurementSet,
                                ScheduleConfig, build_region_H, inject_bad_data,
                                simulate_measurements)
from oracle import linearize_measurements

PARAMS = CoordinationParams(lambda0=0.0, xi=1.0, tau=1e-4, max_iterations=20)


def exact_set(grid, loads, t=3600.0):
    """Noise-free telemetry of the solved state."""
    res = solve_powerflow(grid, loads)
    sched = ScheduleConfig(scada_vmag_pct=0.0, scada_power_pct=0.0,
                           smart_meter_pct=0.0)
    ms = simulate_measurements(grid, res.state, sched, t=t, seed=0)
    return res, ms


def noisy_set(grid, loads, seed, t=3600.0, sched=None):
    res = solve_powerflow(grid, loads)
    sched = sched or ScheduleConfig()
    return res, simulate_measurements(grid, res.state, sched, t=t, seed=seed)


def test_params_reject_negative_lambda0():
    # a negative multiplier prices a boundary pair below zero: DRSE's LP is
    # unbounded and DWLS's boundary weight negative
    with pytest.raises(ValueError, match="lambda0"):
        CoordinationParams(lambda0=-1.0)
    assert CoordinationParams(lambda0=0.0).lambda0 == 0.0


class TestDrse:
    def test_single_region_one_iteration(self, toy2):
        from hybridse.powerflow import InjectionProfile
        res, ms = exact_set(toy2, InjectionProfile(p={2: -0.4}, q={2: -0.1}))
        est = run_drse(toy2, ms, PARAMS)
        assert est.converged
        assert est.iterations == 1
        assert est.mismatch_history == {}

    def test_zero_noise_linear_consistent_recovers_truth(self, toy5, toy5_loads):
        res, ms = exact_set(toy5, toy5_loads)
        lin = linearize_measurements(toy5, ms, res.state)
        est = run_drse(toy5, lin, PARAMS)
        assert est.converged
        assert est.max_mismatch() <= PARAMS.tau
        for node, v in res.state.v.items():
            assert est.v[node] == pytest.approx(v, abs=1e-6)
        for node, th in res.state.theta.items():
            assert est.theta[node] == pytest.approx(th, abs=1e-6)

    def test_loss_balance_at_convergence(self, toy5, toy5_loads):
        res, ms = exact_set(toy5, toy5_loads)
        lin = linearize_measurements(toy5, ms, res.state)
        est = run_drse(toy5, lin, PARAMS)
        assert est.converged
        # AC-side output + loss equals the DC-side draw within max(tau, LP tol)
        for conv in toy5.converters:
            dc_res = est.regions[1]
            p_djc = dc_res.conv_vars[("pdjc", conv.id)]
            ac_pkt = next(p for p in est.packet_trace[-1]
                          if p.converter == conv.id and p.side == "ac")
            assert abs(ac_pkt.p_vsc + ac_pkt.p_loss - p_djc) <= max(PARAMS.tau, 1e-8)

    def test_lambda_monotone_and_exit_flag(self, case33, case33_loads):
        _, ms = noisy_set(case33, case33_loads, seed=7,
                          sched=ScheduleConfig(scada_ac_branches=((1, 2), (2, 19),
                                                                  (3, 23), (6, 26))))
        est = run_drse(case33, ms, PARAMS)
        for cid, hist in est.mismatch_history.items():
            lam = PARAMS.lambda0
            for mis in hist:
                assert mis >= 0
                lam += PARAMS.xi * mis
            assert est.lambdas[cid] == pytest.approx(lam)
            assert est.lambdas[cid] >= PARAMS.lambda0
        assert est.converged == (est.max_mismatch() <= PARAMS.tau)
        assert len(est.timing) == est.iterations
        for t in est.timing:
            assert t.t_total >= t.t_region_max - 1e-12
            assert t.t_total >= t.t_algebra

    def test_stop_reason_stalled_on_noisy_case33(self, case33, case33_loads):
        _, ms = noisy_set(case33, case33_loads, seed=7,
                          sched=ScheduleConfig(scada_ac_branches=((1, 2), (2, 19),
                                                                  (3, 23), (6, 26))))
        est = run_drse(case33, ms, PARAMS)
        assert est.stop_reason == "stalled"
        assert not est.converged and est.iterations == PARAMS.max_iterations
        last, previous = est.packet_trace[-1], est.packet_trace[-2]
        assert len(last) == 2 * len(case33.converters)
        for a, b in zip(last, previous):
            assert (a.converter, a.side, a.p_vsc, a.q_vsc, a.p_loss, a.v_pcc) \
                == (b.converter, b.side, b.p_vsc, b.q_vsc, b.p_loss, b.v_pcc)

    def test_stop_reason_cap_while_packets_move(self, case33, case33_loads):
        _, ms = noisy_set(case33, case33_loads, seed=7)
        est = run_drse(case33, ms, CoordinationParams(max_iterations=2))
        assert est.stop_reason == "cap"
        assert not est.converged and est.iterations == 2

    def test_stop_reason_converged_zero_noise(self, toy5, toy5_loads):
        res, ms = exact_set(toy5, toy5_loads)
        est = run_drse(toy5, linearize_measurements(toy5, ms, res.state), PARAMS)
        assert est.converged and est.stop_reason == "converged"

    def test_region_lp_structure_shared_and_state_freed(self, case33_loads, monkeypatch):
        # two estimates on one row set share each region's H and LP matrix,
        # and the second builds no LP template and runs no elimination; each
        # estimate's solve states are its own and die with it
        grid = load_grid(data.path(data.CASE33_HYBRID))
        n = len(grid.regions)
        templates, eliminations, models, problems = [], [], [], []
        real_init, real_rows = lp_module.LpTemplate.__init__, lp_module._free_rows
        real_build, real_solve = coord.build_region_H, wlav.lp_solve

        def init(self, *args):
            templates.append(1)
            real_init(self, *args)

        def free_rows(*args):
            eliminations.append(1)
            return real_rows(*args)

        def build(*args):
            models.append(real_build(*args))
            return models[-1]

        def solve(problem, basis=None):
            sol = real_solve(problem, basis=basis)
            problems.append((id(problem.a_eq), id(problem.state),
                             weakref.ref(problem.state), weakref.ref(problem.state.last[1])))
            return sol

        monkeypatch.setattr(lp_module.LpTemplate, "__init__", init)
        monkeypatch.setattr(lp_module, "_free_rows", free_rows)
        monkeypatch.setattr(coord, "build_region_H", build)
        monkeypatch.setattr(wlav, "lp_solve", solve)
        counts, states = [], []
        for seed in (3, 5):
            _, ms = noisy_set(grid, case33_loads, seed=seed)
            templates.clear(), eliminations.clear(), problems.clear()
            est = run_drse(grid, ms, PARAMS)
            counts.append((len(templates), len(eliminations)))
            # one solve per region in every iteration that solved (a skipped
            # one is a zero-time row), one LP matrix and one solve state per
            # region
            solved = sum(row.t_total > 0.0 for row in est.timing)
            assert len(problems) == n * solved
            assert len({a for a, *_ in problems}) == n
            assert len({state for _, state, *_ in problems}) == n
            states.append(problems[:n])
            refs = [ref for *_, state, tableau in problems for ref in (state, tableau)]
            del est
            gc.collect()
            assert all(ref() is None for ref in refs)
        assert counts == [(n, n), (0, 0)]
        first, second = models[:n], models[n:]
        for a, b in zip(first, second):
            assert a.H is b.H and a.boundary is b.boundary
            assert a.z is not b.z and a.z.tobytes() != b.z.tobytes()
        assert [a for a, *_ in states[0]] == [a for a, *_ in states[1]]

    def test_one_cold_lp_start_per_region(self, case33, case33_loads, monkeypatch):
        # the boundary rows of b move between iterations, yet each region's
        # LP starts cold once per estimate: its last basis re-optimizes by
        # dual simplex pivots, a few in the AC region's second solve
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        cold, solves = [], []
        real_crash, real_solve = lp_module._crash_tableau, coord.solve_wlav_region

        def crash(*args):
            cold.append(args)
            return real_crash(*args)

        def spy(lp, terms):
            result = real_solve(lp, terms)
            solves.append((lp.model.region_id, result.iterations))
            return result

        monkeypatch.setattr(lp_module, "_crash_tableau", crash)
        monkeypatch.setattr(coord, "solve_wlav_region", spy)
        ac = [r.id for r in case33.regions if r.kind == AC]
        for seed in (3, 7):
            _, ms = noisy_set(case33, case33_loads, seed=seed, t=900.0, sched=sched)
            cold.clear()
            solves.clear()
            run_drse(case33, ms, PARAMS)
            assert len(cold) == len(case33.regions)
            for rid in ac:
                pivots = [k for r, k in solves if r == rid]
                assert len(pivots) >= 2 and pivots[1] < 10

    def test_message_discipline(self, toy5, toy5_loads, monkeypatch):
        _, ms = noisy_set(toy5, toy5_loads, seed=4)
        calls = []
        real = coord.solve_wlav_region

        def spy(lp, terms):
            calls.append((lp.model, terms))
            return real(lp, terms)

        monkeypatch.setattr(coord, "solve_wlav_region", spy)
        run_drse(toy5, ms, PARAMS)
        assert calls
        for model, terms in calls:
            # the regional solver sees its own constant model and plain
            # BoundaryTerm scalars derived from packets - nothing else
            for term in terms.values():
                assert isinstance(term, BoundaryTerm)
                assert set(vars(term)) == {"lam", "neighbor_p", "loss_const"}
            region_nodes = coord_region_nodes(toy5, model.region_id)
            for m in model.measurements:
                for loc in m.location:
                    if m.kind.value.startswith(("ac", "dc", "zero")):
                        assert loc in region_nodes

    def test_case2_corruption_contained(self, toy5, toy5_loads):
        res, ms = exact_set(toy5, toy5_loads)
        lin = linearize_measurements(toy5, ms, res.state)
        clean = run_drse(toy5, lin, PARAMS)
        bad = inject_bad_data(lin, 2, target=0)
        corrupt = run_drse(toy5, bad, PARAMS)
        clean_err = max(abs(clean.v[n] - res.state.v[n]) for n in clean.v)
        corrupt_err = max(abs(corrupt.v[n] - res.state.v[n]) for n in corrupt.v)
        assert corrupt_err <= max(3 * clean_err, 1e-4)
        # the corrupted reading carries the dominant residual
        resid = corrupt.residual_map()
        worst = max(resid, key=lambda i: abs(resid[i]))
        assert worst in bad.corrupt_indices


def coord_region_nodes(grid, region_id):
    return set(grid.region(region_id).nodes)


def estimate_bits(est):
    """Every output of an estimate, floats as their bytes."""
    def bits(*values):
        return struct.pack(f"{len(values)}d", *values)
    return (
        [(p.converter, p.side, iteration, bits(p.p_vsc, p.q_vsc, p.p_loss, p.v_pcc))
         for iteration, pkts in enumerate(est.packet_trace, 1) for p in pkts],
        {node: bits(v) for node, v in est.v.items()},
        {node: bits(th) for node, th in est.theta.items()},
        {cid: bits(lam) for cid, lam in est.lambdas.items()},
        {cid: bits(*hist) for cid, hist in est.mismatch_history.items()},
        {rid: (res.x.tobytes(), bits(res.objective), res.iterations,
               res.residuals.tobytes())
         for rid, res in est.regions.items()},
        est.iterations, est.converged, est.stop_reason)


def montecarlo_runs(monkeypatch, method, case, runs=3):
    """(grid, readings, estimate) of the DRSE estimate of each of the first
    ``runs`` case33 Monte-Carlo runs of ``method`` at bad-data ``case``."""
    ctx = prepare_context(Scenario(
        grid=str(data.path(data.CASE33_HYBRID)), method=method, runs=runs,
        seed=20240, base_profile=str(data.path(data.CASE33_HYBRID_LOADS)),
        test_days=5, bad_data_case=case,
        schedule={"scada_ac_branches": [[1, 2], [2, 19], [3, 23], [6, 26]]}))
    out = []
    real = montecarlo.run_drse

    def keep(grid, ms, params):
        out.append((grid, ms, real(grid, ms, params)))
        return out[-1][-1]

    monkeypatch.setattr(montecarlo, "run_drse", keep)
    for i in range(runs):
        assert not run_single(ctx, i).error
    return out


def montecarlo_estimates(monkeypatch, method, case, runs=3):
    """The DRSE estimates of the first ``runs`` case33 Monte-Carlo runs of
    ``method`` at bad-data ``case``."""
    return [est for *_, est in montecarlo_runs(monkeypatch, method, case, runs)]


class TestEstimateDigest:
    """Every bit of a set of DRSE estimates, pinned by a sha256 digest over
    ``estimate_bits``.  Only a change that declares a change in behaviour
    regenerates them."""

    DIGESTS = {
        ("drse", 0): "9b7d81b8de7944d39e2fbf37d5e6d8d2c7fca6127d4184aa63a411139e1af97d",
        ("drse", 2): "fe25e6af74f9fdd1dd359385b34af2b4c25c02056fce0a3d351010107cac1ae5",
        ("drse_pseudo", 0): "9f8b9ab8ad33ebc45bc612a2730f68179b59594bf29e07930251be72fd7e0aca",
        ("drse_pseudo", 2): "f910bb2942c789c2a35f00b0eea6a00a923b2687a838dce13e73b82df34457fc",
        "toy5": "67ee31c4ca7c6924ba029b80e7dc0266c9145fe6aaac679bfca3391819ff9b40",
        "case33_large_xi": "13730df5a1a97883d2025aeb6a3c24753af2275a0f4546f61ac29b94c245ab7e",
    }

    @staticmethod
    def digest(estimates):
        assert estimates
        h = hashlib.sha256()
        for est in estimates:
            h.update(repr(estimate_bits(est)).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("method", ["drse", "drse_pseudo"])
    @pytest.mark.parametrize("case", [0, 2])
    def test_case33_montecarlo(self, monkeypatch, method, case):
        estimates = montecarlo_estimates(monkeypatch, method, case)
        assert self.digest(estimates) == self.DIGESTS[method, case]

    def test_toy5(self, toy5, toy5_loads):
        sets = [noisy_set(toy5, toy5_loads, seed=seed)[1] for seed in range(6)]
        estimates = [run_drse(toy5, ms, PARAMS) for ms in sets]
        assert self.digest(estimates) == self.DIGESTS["toy5"]

    def test_case33_large_xi(self, case33, case33_loads):
        # a steep multiplier step moves the costs out of a stalled basis's
        # optimality range within a few iterations
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        sets = [noisy_set(case33, case33_loads, seed=seed, sched=sched)[1]
                for seed in range(6)]
        estimates = [run_drse(case33, ms, CoordinationParams(xi=1e5)) for ms in sets]
        assert self.digest(estimates) == self.DIGESTS["case33_large_xi"]


class TestStallSkip:
    """A stalled DRSE loop skips its repeat iterations once the cost-ranging
    check vouches for every region, and the estimate keeps every bit: the
    same estimates with the check answering False run every iteration."""

    @staticmethod
    def estimates(monkeypatch, inputs, params, skip):
        """The estimates of ``inputs``, and each one's count of LP solves."""
        counts = []
        real = wlav.lp_solve

        def count(*args, **kwargs):
            counts[-1] += 1
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(wlav, "lp_solve", count)
            if not skip:
                patch.setattr(wlav, "lp_stays_optimal", lambda problem, rise: False)
            out = []
            for grid, ms in inputs:
                counts.append(0)
                out.append(run_drse(grid, ms, params))
        return out, counts

    def assert_exact(self, monkeypatch, inputs):
        for xi in (1.0, 1e3, 1e5):
            params = CoordinationParams(xi=xi)
            skipping, solves = self.estimates(monkeypatch, inputs, params, True)
            full, _ = self.estimates(monkeypatch, inputs, params, False)
            assert [estimate_bits(e) for e in skipping] == [estimate_bits(e) for e in full]
            if xi == 1.0:
                stalled = [(n, len(grid.regions) * est.iterations)
                           for (grid, _), est, n in zip(inputs, skipping, solves)
                           if est.stop_reason == "stalled"]
                assert stalled and all(n < every for n, every in stalled)

    @pytest.mark.parametrize("method", ["drse", "drse_pseudo"])
    @pytest.mark.parametrize("case", [0, 2])
    def test_case33_montecarlo(self, monkeypatch, method, case):
        runs = montecarlo_runs(monkeypatch, method, case)
        self.assert_exact(monkeypatch, [(grid, ms) for grid, ms, _ in runs])

    def test_toy5(self, monkeypatch, toy5, toy5_loads):
        self.assert_exact(monkeypatch, [(toy5, noisy_set(toy5, toy5_loads, seed=seed)[1])
                                        for seed in range(6)])

    def test_toy5_formed(self, monkeypatch, toy5_formed, toy5_formed_loads):
        self.assert_exact(monkeypatch, [
            (toy5_formed, noisy_set(toy5_formed, toy5_formed_loads, seed=seed)[1])
            for seed in range(6)])

    @staticmethod
    def stalled_case33(case33, case33_loads):
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        return noisy_set(case33, case33_loads, seed=3, sched=sched)[1]

    def test_skipped_iterations_take_no_time(self, case33, case33_loads, monkeypatch):
        spent = []
        real = wlav.lp_stays_optimal

        def timed(problem, rise):
            t0 = time.perf_counter()
            out = real(problem, rise)
            spent.append(time.perf_counter() - t0)
            return out

        monkeypatch.setattr(wlav, "lp_stays_optimal", timed)
        est = run_drse(case33, self.stalled_case33(case33, case33_loads), PARAMS)
        assert est.stop_reason == "stalled" and len(spent) == len(case33.regions)
        assert len(est.timing) == len(est.packet_trace) == est.iterations
        skipped = [i for i, row in enumerate(est.timing) if row.t_total == 0.0]
        # iterations t + 1 ... cap - 1 are skipped; the check ran in iteration
        # t and its time is that iteration's algebra
        first = skipped[0]
        assert skipped == list(range(first, PARAMS.max_iterations - 1)) and first >= 2
        assert all(row == coord.IterationTiming(0.0, 0.0, 0.0) for row in est.timing[first:-1])
        assert est.timing[first - 1].t_algebra >= sum(spent)
        assert all(row.t_total > 0.0 for row in est.timing[:first] + est.timing[-1:])
        assert est.se_time == sum(row.t_total for row in est.timing[:first] + est.timing[-1:])

    def test_a_refused_check_is_not_retried_in_the_stall(self, case33, case33_loads,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(wlav, "lp_stays_optimal",
                            lambda problem, rise: calls.append(1) or False)
        est = run_drse(case33, self.stalled_case33(case33, case33_loads), PARAMS)
        # one check (the first region refuses) per stall that leaves an
        # iteration to skip
        trace = est.packet_trace
        onsets = [t for t in range(1, len(trace) - 1)
                  if trace[t] == trace[t - 1] and (t == 1 or trace[t - 1] != trace[t - 2])]
        assert est.stop_reason == "stalled" and len(onsets) == len(calls) == 1


class TestDwls:
    def test_noise_free_matches_truth_and_drse(self, toy5, toy5_loads):
        res, ms = exact_set(toy5, toy5_loads)
        est = run_dwls(toy5, ms, PARAMS)
        for node, v in res.state.v.items():
            assert est.v[node] == pytest.approx(v, abs=1e-6)
        # DRSE on the same nonlinear-exact readings differs only by
        # linearization error
        drse = run_drse(toy5, ms, PARAMS)
        for node in est.v:
            assert drse.v[node] == pytest.approx(est.v[node], abs=5e-3)
        for node in est.theta:
            assert drse.theta[node] == pytest.approx(est.theta[node], abs=5e-3)

    def test_case1_flag_and_recover(self, case33, case33_loads):
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        res, ms = noisy_set(case33, case33_loads, seed=11, sched=sched)
        clean = run_dwls(case33, ms, PARAMS)
        bad = inject_bad_data(ms, 1)
        est = run_dwls(case33, bad, PARAMS)
        flagged = {i for rep in est.bad_data.values() for i, _ in rep.flagged}
        assert set(bad.corrupt_indices) <= flagged
        assert flagged
        err = max(abs(est.v[n] - clean.v[n]) for n in est.v)
        assert err <= 5e-4

    def test_wall_time_covers_the_first_pass(self, case33, case33_loads):
        # se_time is the parallel accounting of the second pass alone
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        _, ms = noisy_set(case33, case33_loads, seed=11, sched=sched)
        est = run_dwls(case33, inject_bad_data(ms, 2), PARAMS)
        assert {i for rep in est.bad_data.values() for i, _ in rep.flagged}
        assert est.wall_time > est.se_time > 0.0

    def test_rerun_drops_rows_from_the_models_it_built(self, case33, case33_loads,
                                                       monkeypatch):
        # one model per region for both passes; the re-run estimates the
        # bits of a run without the rejected readings and without the test
        built = []
        real = coord.build_region_model

        def spy(grid, region, measurements):
            built.append(region.id)
            return real(grid, region, measurements)

        monkeypatch.setattr(coord, "build_region_model", spy)
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        _, ms = noisy_set(case33, case33_loads, seed=11, sched=sched)
        bad = inject_bad_data(ms, 2)
        est = run_dwls(case33, bad, PARAMS)
        assert {i for rep in est.bad_data.values() for i, _ in rep.flagged}
        assert sorted(built) == sorted(r.id for r in case33.regions)
        flagged = {i for rep in est.bad_data.values() for i, _ in rep.flagged}
        assert set(bad.corrupt_indices) <= flagged
        kept = MeasurementSet([m for i, m in enumerate(bad) if i not in flagged])
        plain = run_dwls(case33, kept, CoordinationParams(nr_test=False))
        assert estimate_bits(est) == estimate_bits(plain)

    def test_unmeasured_region_unobservable(self, toy5, toy5_loads):
        _, ms = noisy_set(toy5, toy5_loads, seed=5)
        kept = [m for m in ms
                if not (m.kind in (MeasurementKind.DC_V_MAG, MeasurementKind.DC_P_FLOW,
                                   MeasurementKind.DC_P_INJ, MeasurementKind.ZERO_P_INJ)
                        and m.location[0] in (4, 5))]
        with pytest.raises(UnobservableError):
            run_dwls(toy5, MeasurementSet(kept), PARAMS)


def test_grid_with_memo_survives_pickling(case33_loads):
    # worker processes may receive the grid pickled, with the row sets it
    # keeps; a copy estimates the same bits
    grid = load_grid(data.path(data.CASE33_HYBRID))
    _, ms = noisy_set(grid, case33_loads, seed=3)
    bad = inject_bad_data(ms, 1)
    want = [estimate_bits(run_drse(grid, ms, PARAMS)), estimate_bits(run_cwls(grid, bad))]
    copy = pickle.loads(pickle.dumps(grid))
    assert copy._memo.keys() == grid._memo.keys()
    assert [estimate_bits(run_drse(copy, ms, PARAMS)),
            estimate_bits(run_cwls(copy, bad))] == want


class TestModelCompiles:
    def test_once_per_row_set(self, case33_loads, monkeypatch):
        # the grid compiles a nonlinear model's rows once per (scope, row set):
        # the normalized-residual test's removals mask the compiled rows, and
        # models of a row set seen before compile nothing
        grid = load_grid(data.path(data.CASE33_HYBRID))
        compiles, keys, removals = [], set(), []
        real_compile, real_lnr = measmodel._CompiledRows, coord.lnr_test

        def compile_rows(*args):
            compiles.append(1)
            return real_compile(*args)

        def lnr(*args, **kwargs):
            out = real_lnr(*args, **kwargs)
            removals.append(len(out.report.flagged))
            return out

        def keyed(build, scope):
            def spy(*args):
                model = build(*args)
                rows = [(m.kind, m.location, m.direction) for m in model.measurements
                        if m is not None]
                keys.add((scope(*args), tuple(rows)))
                return model
            return spy

        monkeypatch.setattr(measmodel, "_CompiledRows", compile_rows)
        monkeypatch.setattr(coord, "lnr_test", lnr)
        monkeypatch.setattr(coord, "build_system_model",
                            keyed(coord.build_system_model, lambda *a: "system"))
        monkeypatch.setattr(coord, "build_region_model",
                            keyed(coord.build_region_model, lambda g, r, _: r.id))
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        _, ms = noisy_set(grid, case33_loads, seed=11, sched=sched)
        for _ in range(2):
            for case in (0, 1, 2):
                bad = ms if case == 0 else inject_bad_data(ms, case)
                est = run_cwls(grid, bad)
                assert sum(removals[-1:]) == len(est.bad_data[-1].flagged)
                run_dwls(grid, bad, PARAMS)
            assert len(compiles) == len(keys)
            # the system model and each region's model compiled once; a DWLS
            # re-run drops rows from the models it built
            assert len(keys) == 1 + len(grid.regions)
        assert sum(removals) > 0


class TestCwls:
    def test_noise_free_truth(self, toy5, toy5_loads):
        res, ms = exact_set(toy5, toy5_loads)
        est = run_cwls(toy5, ms)
        assert est.converged and est.stop_reason == "converged"
        for node, v in res.state.v.items():
            assert est.v[node] == pytest.approx(v, abs=1e-6)
        for node, th in res.state.theta.items():
            assert est.theta[node] == pytest.approx(th, abs=1e-6)

    def test_single_region_reduces_to_wls(self, toy2):
        from hybridse.measmodel import build_system_model
        from hybridse.estimation import solve_wls
        from hybridse.powerflow import InjectionProfile
        res, ms = exact_set(toy2, InjectionProfile(p={2: -0.4}, q={2: -0.1}))
        est = run_cwls(toy2, ms, nr_test=False)
        model = build_system_model(toy2, list(enumerate(ms.measurements)))
        direct = solve_wls(model)
        assert est.v[2] == pytest.approx(direct.v[2], abs=1e-12)
        assert est.theta[2] == pytest.approx(direct.theta[2], abs=1e-12)

    def test_case2_smears_dc_more_than_drse(self, case33, case33_loads):
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        res, ms = noisy_set(case33, case33_loads, seed=23, sched=sched)
        bad = inject_bad_data(ms, 2, target=1)
        cwls = run_cwls(case33, bad, nr_test=False)
        drse = run_drse(case33, bad, PARAMS)
        dc_nodes = [n.id for n in case33.nodes if n.kind == "dc"]
        mae_cwls = max(abs(cwls.v[n] - res.state.v[n]) for n in dc_nodes)
        mae_drse = max(abs(drse.v[n] - res.state.v[n]) for n in dc_nodes)
        assert mae_cwls > mae_drse


class TestDcSideConverterReadings:
    """A converter's P reading on its DC side (direction "dc", the draw
    p_djc) belongs to the DC region and reads the draw there.  Added to
    noise-free case33 telemetry (four SCADA lines, t = 3600 s), one per
    converter, it leaves every estimator at the truth, and it survives a CSV
    round trip."""

    @pytest.fixture(scope="class")
    def readings(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)),
                               scada_vmag_pct=0.0, scada_power_pct=0.0, smart_meter_pct=0.0)
        ms = simulate_measurements(case33, res.state, sched, t=3600.0, seed=0)
        dc = [replace(m, direction="dc", value=res.converters[m.location[0]].p_djc)
              for m in ms if m.kind is MeasurementKind.CONV_P]
        assert len(dc) == len(case33.converters)
        return res, MeasurementSet(list(ms) + dc), dc

    @staticmethod
    def error(est, res):
        return max([abs(v - res.state.v[n]) for n, v in est.v.items()]
                   + [abs(th - res.state.theta[n]) for n, th in est.theta.items()])

    def test_the_dc_region_reads_the_draw(self, case33, readings):
        _, ms, dc = readings
        by_region = ms.by_region(case33)
        for m in dc:
            conv = case33.converter(m.location[0])
            region = case33.node(conv.dc_node).region
            assert ms.region_of(m, case33) == region
            # its linear row is the region's boundary row of the converter
            model = build_region_H(case33, case33.region(region), by_region[region])
            row = model.measurements.index(m)
            assert model.H[row].tobytes() == model.boundary[conv.id].tobytes()

    def test_estimators_recover_the_truth(self, case33, readings):
        res, ms, _ = readings
        assert self.error(run_cwls(case33, ms), res) <= 1e-9
        assert self.error(run_dwls(case33, ms, PARAMS), res) <= 1e-9
        lin = linearize_measurements(case33, ms, res.state)
        assert self.error(run_drse(case33, lin, PARAMS), res) <= 1e-12

    def test_csv_roundtrip(self, tmp_path, readings):
        _, ms, dc = readings
        path = tmp_path / "meas.csv"
        ms.to_csv(path)
        again = MeasurementSet.from_csv(path)
        assert again.measurements == ms.measurements
        assert again.measurements[-len(dc):] == dc
