import gc
import re
import struct
import weakref

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
from hybridse.grid import AC
from hybridse.powerflow import solve_powerflow
from hybridse.telemetry import (MeasurementKind, MeasurementSet,
                                ScheduleConfig, inject_bad_data,
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
            ac_pkt = [p for p in est.packet_trace
                      if p.converter == conv.id][-2]
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
            assert t.t_total >= max(t.t_regions.values()) - 1e-12
            assert t.t_total >= t.t_algebra

    def test_stop_reason_stalled_on_noisy_case33(self, case33, case33_loads):
        _, ms = noisy_set(case33, case33_loads, seed=7,
                          sched=ScheduleConfig(scada_ac_branches=((1, 2), (2, 19),
                                                                  (3, 23), (6, 26))))
        est = run_drse(case33, ms, PARAMS)
        assert est.stop_reason == "stalled"
        assert not est.converged and est.iterations == PARAMS.max_iterations
        n = 2 * len(case33.converters)
        last, previous = est.packet_trace[-n:], est.packet_trace[-2 * n:-n]
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

    def test_region_lps_freed_with_the_estimate(self, case33, case33_loads, monkeypatch):
        # each region's LP matrix is built once per estimate and lives only
        # as long as the estimate's region models
        _, ms = noisy_set(case33, case33_loads, seed=3)
        refs, ids = [], set()
        real = wlav.lp_solve

        def spy(problem, basis=None):
            refs.append(weakref.ref(problem.a_eq))
            ids.add(id(problem.a_eq))
            return real(problem, basis=basis)

        monkeypatch.setattr(wlav, "lp_solve", spy)
        events = record_tests(monkeypatch)
        est = run_drse(case33, ms, PARAMS)
        n = len(case33.regions)
        skipped = fast_forwarded(events, n)
        assert skipped > 0
        # one solve per region in every iteration that was not fast-forwarded
        assert len(refs) == n * (est.iterations - skipped)
        assert len(ids) == len(case33.regions)
        del est
        gc.collect()
        assert all(ref() is None for ref in refs)

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

        def spy(model, terms, basis, **kwargs):
            result, sol = real_solve(model, terms, basis=basis, **kwargs)
            solves.append((model.region_id, sol.iterations))
            return result, sol

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

        def spy(model, terms, basis, **kwargs):
            calls.append((model, terms))
            return real(model, terms, basis=basis, **kwargs)

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


def record_tests(monkeypatch, solves=False):
    """Log each regional no-change test of DRSE as "T" or "F" and, with
    ``solves``, each regional LP solve as "S", in call order."""
    events = []
    real_test, real_solve = coord.lp_unchanged, wlav.lp_solve

    def test(problem, basis):
        out = real_test(problem, basis)
        events.append("T" if out else "F")
        return out

    def solve(problem, basis=None):
        events.append("S")
        return real_solve(problem, basis=basis)

    monkeypatch.setattr(coord, "lp_unchanged", test)
    if solves:
        monkeypatch.setattr(wlav, "lp_solve", solve)
    return events


def fast_forwarded(events, n_regions):
    """Iterations fast-forwarded: the tests of an iteration stop at the first
    "F", so each run of "T"s is whole fast-forwarded iterations followed by
    fewer than n_regions passes of an iteration that solved."""
    return "".join(events).count("T" * n_regions)


def estimate_bits(est):
    """Every output of an estimate, floats as their bytes."""
    def bits(*values):
        return struct.pack(f"{len(values)}d", *values)
    return (
        [(p.converter, p.side, p.iteration, bits(p.p_vsc, p.q_vsc, p.p_loss, p.v_pcc))
         for p in est.packet_trace],
        {node: bits(v) for node, v in est.v.items()},
        {node: bits(th) for node, th in est.theta.items()},
        {cid: bits(lam) for cid, lam in est.lambdas.items()},
        {cid: bits(*hist) for cid, hist in est.mismatch_history.items()},
        {rid: (res.x.tobytes(), bits(res.objective), res.iterations,
               res.residuals.tobytes())
         for rid, res in est.regions.items()},
        est.iterations, est.converged, est.stop_reason)


class TestFastForward:
    """A stalled DRSE loop that skips the solves whose outcome is known gives
    every bit of the same loop with the no-change test always False."""

    @staticmethod
    def check(monkeypatch, grid, estimates):
        """Run ``estimates()`` both ways; the fast run's test/solve events."""
        events = record_tests(monkeypatch, solves=True)
        fast = estimates()
        events = "".join(events)
        monkeypatch.setattr(coord, "lp_unchanged", lambda problem, basis: False)
        reference = estimates()
        assert len(fast) == len(reference) > 0
        for a, b in zip(fast, reference):
            assert estimate_bits(a) == estimate_bits(b)
        return events

    @staticmethod
    def montecarlo_estimates(monkeypatch, method, case, runs=3):
        ctx = prepare_context(Scenario(
            grid=str(data.path(data.CASE33_HYBRID)), method=method, runs=runs,
            seed=20240, base_profile=str(data.path(data.CASE33_HYBRID_LOADS)),
            test_days=5, bad_data_case=case,
            schedule={"scada_ac_branches": [[1, 2], [2, 19], [3, 23], [6, 26]]}))
        out = []
        real = montecarlo.run_drse

        def keep(*args):
            out.append(real(*args))
            return out[-1]

        def estimates():
            out.clear()
            for i in range(runs):
                assert not run_single(ctx, i).error
            return list(out)

        monkeypatch.setattr(montecarlo, "run_drse", keep)
        return estimates

    @pytest.mark.parametrize("method", ["drse", "drse_pseudo"])
    @pytest.mark.parametrize("case", [0, 2])
    def test_case33_montecarlo(self, monkeypatch, case33, method, case):
        estimates = self.montecarlo_estimates(monkeypatch, method, case)
        events = self.check(monkeypatch, case33, estimates)
        assert fast_forwarded(events, len(case33.regions)) > 0

    def test_toy5(self, monkeypatch, toy5, toy5_loads):
        sets = [noisy_set(toy5, toy5_loads, seed=seed)[1] for seed in range(6)]
        self.check(monkeypatch, toy5, lambda: [run_drse(toy5, ms, PARAMS) for ms in sets])

    def test_large_xi_falls_back_to_solves(self, monkeypatch, case33, case33_loads):
        # with a steep multiplier step the costs soon leave the stalled
        # basis's optimality range: a test fails after whole fast-forwarded
        # iterations, and the loop solves again
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        sets = [noisy_set(case33, case33_loads, seed=seed, sched=sched)[1]
                for seed in range(6)]
        params = CoordinationParams(xi=1e5)
        events = self.check(monkeypatch, case33,
                            lambda: [run_drse(case33, ms, params) for ms in sets])
        n = len(case33.regions)
        assert re.search("T" * n + "T*F" + "S" * n, events)


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
        assert est.rerun
        err = max(abs(est.v[n] - clean.v[n]) for n in est.v)
        assert err <= 5e-4

    def test_wall_time_covers_the_first_pass(self, case33, case33_loads):
        # se_time is the parallel accounting of the second pass alone
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        _, ms = noisy_set(case33, case33_loads, seed=11, sched=sched)
        est = run_dwls(case33, inject_bad_data(ms, 2), PARAMS)
        assert est.rerun
        assert est.wall_time > est.se_time > 0.0

    def test_unmeasured_region_unobservable(self, toy5, toy5_loads):
        _, ms = noisy_set(toy5, toy5_loads, seed=5)
        kept = [m for m in ms
                if not (m.kind in (MeasurementKind.DC_V_MAG, MeasurementKind.DC_P_FLOW,
                                   MeasurementKind.DC_P_INJ, MeasurementKind.ZERO_P_INJ)
                        and m.location[0] in (4, 5))]
        with pytest.raises(UnobservableError):
            run_dwls(toy5, MeasurementSet(kept), PARAMS)


class TestModelCompiles:
    def test_once_per_model_and_removed_row(self, case33, case33_loads, monkeypatch):
        # a nonlinear model compiles its rows when it is built and once more
        # per row the normalized-residual test removes; solves and clones
        # reuse the compiled form
        compiles, removals = [], []
        real_compile, real_lnr = measmodel._CompiledRows, coord.lnr_test

        def compile_rows(model):
            compiles.append(model.scope)
            return real_compile(model)

        def lnr(*args, **kwargs):
            out = real_lnr(*args, **kwargs)
            removals.append(len(out.report.flagged))
            return out

        monkeypatch.setattr(measmodel, "_CompiledRows", compile_rows)
        monkeypatch.setattr(coord, "lnr_test", lnr)
        sched = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
        _, ms = noisy_set(case33, case33_loads, seed=11, sched=sched)
        n = len(case33.regions)
        removed = 0
        for case in (0, 1, 2):
            bad = ms if case == 0 else inject_bad_data(ms, case)
            compiles.clear()
            removals.clear()
            est = run_cwls(case33, bad)
            assert compiles.count("system") == len(compiles) == 1 + sum(removals)
            assert sum(removals) == len(est.bad_data[-1].flagged)
            removed += sum(removals)
            compiles.clear()
            removals.clear()
            est = run_dwls(case33, bad, PARAMS)
            # one compile per region per pass
            assert len(compiles) == n * (1 + est.rerun) + sum(removals)
            assert len(removals) == n * (1 + est.rerun)
            removed += sum(removals)
        assert removed > 0


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
