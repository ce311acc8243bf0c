import json
import math
import pickle

import numpy as np
import pytest

from hybridse import data, powerflow
from hybridse.grid import MODE_PQ, grid_from_dict, load_grid, serialize
from hybridse.injection import gen_load_profiles
from hybridse.powerflow import (InjectionProfile, PowerFlowDivergence, PowerFlowError,
                                ac_branch_flow, conservation_residual, converter_loss,
                                dc_branch_flow, solve_powerflow)

import oracle
from oracle import scaled_profile, solve_ac_region, solve_dc_region

D = (0.011, 0.003, 0.004)


def _audit(grid, profile, res):
    """The back-substitution audit of a solved flow."""
    return powerflow.mismatch_residual(grid, profile, res.state, res.converters)


class TestConverterLoss:
    def test_zero_current_floor(self):
        loss, i_c = converter_loss(0.0, 0.0, 1.0, D)
        assert i_c == 0.0
        assert loss == pytest.approx(0.011)

    def test_hand_evaluated_point(self):
        # i = sqrt(0.36 + 0.09) / sqrt(3) = 0.3872983346...; i^2 = 0.15
        loss, i_c = converter_loss(0.6, 0.3, 1.0, D)
        assert i_c == pytest.approx(0.3872983346207417, abs=1e-12)
        assert loss == pytest.approx(0.012761895003862225, abs=1e-12)

    def test_reversed_flow_symmetry(self):
        assert converter_loss(-0.6, 0.3, 1.0, D) == converter_loss(0.6, 0.3, 1.0, D)

    def test_monotone_in_apparent_power(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s1, s2 = sorted(rng.uniform(0, 2, size=2))
            phi = rng.uniform(0, 2 * math.pi)
            v = rng.uniform(0.9, 1.1)
            l1, _ = converter_loss(s1 * math.cos(phi), s1 * math.sin(phi), v, D)
            l2, _ = converter_loss(s2 * math.cos(phi), s2 * math.sin(phi), v, D)
            assert l2 >= l1 - 1e-15


class TestAcRegion:
    def test_flat_no_load(self, toy2):
        st = solve_ac_region(toy2, toy2.regions[0], {})
        for v, th in st.values():
            assert v == pytest.approx(1.0, abs=1e-12)
            assert th == pytest.approx(0.0, abs=1e-12)

    def test_backsubstitution_is_oracle(self, toy2):
        st = solve_ac_region(toy2, toy2.regions[0], {2: (-0.5, -0.2)})
        v2, th2 = st[2]
        assert v2 < 1.0 and th2 < 0.0
        p, q = ac_branch_flow(v2, th2, st[1][0], st[1][1], 0.01, 0.02)
        assert p == pytest.approx(-0.5, abs=1e-8)
        assert q == pytest.approx(-0.2, abs=1e-8)

    def test_infeasible_load_diverges(self, toy2):
        with pytest.raises(PowerFlowDivergence):
            solve_ac_region(toy2, toy2.regions[0], {2: (-100.0, 0.0)})


class TestDcRegion:
    def test_flat(self, toy5):
        st = solve_dc_region(toy5, toy5.region(1), {}, ref_node=4)
        assert st[4] == 1.0
        assert st[5] == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_root(self, toy5):
        # 10 v (v - 1) = -0.1 has root (1 + sqrt(0.96)) / 2
        st = solve_dc_region(toy5, toy5.region(1), {5: -0.1}, ref_node=4)
        expected = (1.0 + math.sqrt(0.96)) / 2.0
        assert st[5] == pytest.approx(expected, abs=1e-10)
        assert dc_branch_flow(st[5], st[4], 10.0) == pytest.approx(-0.1, abs=1e-9)

    def test_overload_diverges(self, toy5):
        # max transferable power of g=10 from v=1 is g/4 = 2.5
        with pytest.raises(PowerFlowDivergence):
            solve_dc_region(toy5, toy5.region(1), {5: -3.0}, ref_node=4)


class TestHybridSolve:
    def test_lossless_no_load_flat(self, toy5):
        import dataclasses
        convs = tuple(dataclasses.replace(c, d1=0.0, d2=0.0, d3=0.0)
                      for c in toy5.converters)
        lossless = dataclasses.replace(toy5, converters=convs)
        res = solve_powerflow(lossless, InjectionProfile())
        for v in res.state.v.values():
            assert v == pytest.approx(1.0, abs=1e-9)
        assert res.converters[0].p_vsc == pytest.approx(0.0, abs=1e-9)

    def test_loaded_toy_conservation(self, toy5, toy5_loads):
        res = solve_powerflow(toy5, toy5_loads)
        sol = res.converters[0]
        assert oracle.balance_residual(sol) <= 1e-6
        assert res.coupling_residual <= 1e-6
        # AC side supplies DC load + DC line loss + converter loss
        dc_line_loss = (dc_branch_flow(res.state.v[4], res.state.v[5], 10.0)
                        + dc_branch_flow(res.state.v[5], res.state.v[4], 10.0))
        assert -sol.p_vsc == pytest.approx(0.2 + dc_line_loss + sol.p_loss, abs=1e-6)
        assert abs(conservation_residual(toy5, toy5_loads, res)) <= 1e-6

    def test_case33_nominal(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        assert _audit(case33, case33_loads, res) <= 1e-8
        assert res.coupling_residual <= 1e-6
        assert abs(conservation_residual(case33, case33_loads, res)) <= 1e-6
        assert min(res.state.v.values()) > 0.90
        assert max(res.state.v.values()) <= 1.0 + 1e-9

    def test_deterministic(self, case33, case33_loads):
        r1 = solve_powerflow(case33, case33_loads)
        r2 = solve_powerflow(case33, case33_loads)
        assert r1.state.v == r2.state.v
        assert r1.state.theta == r2.state.theta


def test_backsubstitution_property(case33, case33_loads):
    res = solve_powerflow(case33, case33_loads)
    assert _audit(case33, case33_loads, res) <= 1e-8


SCALES = np.linspace(0.05, 1.4, 50).tolist()


class TestPqConverter:
    """toy5_pq's converter 1 holds p_set and q_set: the audit adds them on the
    AC side and subtracts the converter's draw at its DC terminal."""

    def test_scaled_profiles(self, toy5_pq, toy5_loads):
        pq = toy5_pq.converter(1)
        assert pq.control.mode == MODE_PQ
        for scale in SCALES[::5]:
            profile = scaled_profile(toy5_loads, scale)
            res = solve_powerflow(toy5_pq, profile)
            assert res.outer_iterations <= 5
            assert _audit(toy5_pq, profile, res) <= 1e-8
            for sol in res.converters.values():
                assert oracle.balance_residual(sol) <= powerflow._COUPLING_TOL
            assert abs(conservation_residual(toy5_pq, profile, res)) \
                <= powerflow._COUPLING_TOL * len(toy5_pq.converters)
            sol = res.converters[1]
            assert sol.p_vsc == pytest.approx(pq.control.p_set, abs=1e-8)
            assert sol.q_vsc == pytest.approx(pq.control.q_set, abs=1e-8)


@pytest.mark.parametrize("name", ["toy5", "case33", "toy5_pq"])
def test_audits_match_the_scalar_oracle(name, request):
    # the compiled audits give the bits of adding the branch flows one at a
    # time, node by node and branch by branch
    grid = request.getfixturevalue(name)
    loads = request.getfixturevalue("case33_loads" if name == "case33" else "toy5_loads")
    for scale in SCALES:
        profile = scaled_profile(loads, scale)
        res = solve_powerflow(grid, profile)
        assert _audit(grid, profile, res) == oracle.mismatch_residual(grid, profile, res.state,
                                                                      res.converters)
        assert conservation_residual(grid, profile, res) == \
            oracle.conservation_residual(grid, profile, res)


def test_audit_rows_compiled_once_per_grid(toy5_loads, monkeypatch):
    # two row sets, the injection rows and the branch and slack rows
    compiles = []
    real = powerflow.CompiledRows

    def counted(*args):
        compiles.append(args)
        return real(*args)

    monkeypatch.setattr(powerflow, "CompiledRows", counted)
    grid = load_grid(data.path(data.TOY5_HYBRID))
    for scale in (0.5, 0.8, 1.0, 1.1, 0.5):
        profile = scaled_profile(toy5_loads, scale)
        conservation_residual(grid, profile, solve_powerflow(grid, profile))
    assert len(compiles) == 2


def test_each_audit_evaluates_only_its_rows(toy5_loads, monkeypatch):
    grid = load_grid(data.path(data.TOY5_HYBRID))
    res = solve_powerflow(grid, toy5_loads)
    plan = powerflow._plan(grid)

    def refuse(x, with_jac):
        raise AssertionError("evaluated the other audit's rows")

    monkeypatch.setattr(plan.balance, "evaluate", refuse)
    assert _audit(grid, toy5_loads, res) == oracle.mismatch_residual(grid, toy5_loads, res.state,
                                                                     res.converters)
    monkeypatch.undo()
    monkeypatch.setattr(plan.injections, "evaluate", refuse)
    conservation_residual(grid, toy5_loads, res)


class TestErrorPaths:
    """The regional solves fail as they always did: the same exception, the
    same message, the same mismatch."""

    def test_injection_outside_region(self, toy5):
        with pytest.raises(ValueError, match="injection at node 4 outside region 0"):
            solve_ac_region(toy5, toy5.region(0), {2: (-0.1, 0.0), 4: (0.1, 0.0)})
        with pytest.raises(ValueError, match="injection at node 2 outside region 1"):
            solve_dc_region(toy5, toy5.region(1), {2: 0.1}, ref_node=4)

    def test_region_of_wrong_kind(self, toy5):
        with pytest.raises(ValueError, match="region 1 is not AC"):
            solve_ac_region(toy5, toy5.region(1), {})
        with pytest.raises(ValueError, match="region 0 is not DC"):
            solve_dc_region(toy5, toy5.region(0), {}, ref_node=1)

    @pytest.mark.parametrize("solve, match", [
        (lambda g: solve_dc_region(g, g.region(1), {5: -5.0}, ref_node=4),
         r"^singular Jacobian in region 1 \(max mismatch 2\.500e\+00 p\.u\.\)$"),
        (lambda g: solve_dc_region(g, g.region(1), {5: -20.0}, ref_node=4),
         r"^DC region 1 diverged \(max mismatch 2\.000e\+01 p\.u\.\)$"),
        (lambda g: solve_dc_region(g, g.region(1), {5: -2.51}, ref_node=4),
         r"^DC region 1 did not converge in 30 iterations \(max mismatch 1\.336e-02 p\.u\.\)$"),
        (lambda g: solve_ac_region(g, g.region(0), {2: (-100.0, 0.0)}),
         r"^AC region 0 diverged \(max mismatch 1\.000e\+02 p\.u\.\)$"),
        (lambda g: solve_ac_region(g, g.region(0), {2: (-16.0, 0.0)}),
         r"^AC region 0 did not converge in 30 iterations"),
    ], ids=["dc-singular", "dc-nonpositive", "dc-cap", "ac-nonpositive", "ac-cap"])
    def test_divergence(self, toy2, toy5, solve, match):
        # toy5's DC line (g = 10) carries at most g/4 = 2.5 p.u. into node 5;
        # -5 lands Newton exactly on v5 = 0.5, where its Jacobian is zero
        grid = toy2 if "AC" in match else toy5
        with pytest.raises(PowerFlowDivergence, match=match) as info:
            solve(grid)
        assert info.value.max_mismatch > 0

    def test_one_node_regions(self, toy5, toy5_loads):
        doc = json.loads(serialize(toy5))
        doc["nodes"] = [n for n in doc["nodes"] if n["id"] != 5]
        doc["dc_lines"] = []
        doc["regions"][1]["nodes"] = [4]
        grid = grid_from_dict(doc)
        assert solve_dc_region(grid, grid.region(1), {}, ref_node=4, v_ref=1.03) == {4: 1.03}
        profile = InjectionProfile(p={2: -0.3}, q={2: -0.1})
        res = solve_powerflow(grid, profile)
        assert res.state.v[4] == 1.0 and res.converters[0].p_djc == 0.0
        assert oracle.balance_residual(res.converters[0]) <= 1e-6
        assert _audit(grid, profile, res) <= 1e-8

        lone = grid_from_dict({
            "nodes": [{"id": 1, "kind": "ac", "region": 0, "role": "substation"}],
            "ac_lines": [], "dc_lines": [], "converters": [],
            "regions": [{"id": 0, "kind": "ac", "nodes": [1], "boundary": []}],
            "slack": 1})
        assert solve_ac_region(lone, lone.region(0), {}, v_ref=1.02) == {1: (1.02, 0.0)}
        res = solve_powerflow(lone, InjectionProfile())
        assert res.state.v == {1: 1.0} and res.state.theta == {1: 0.0}
        assert res.outer_iterations == 1 and _audit(lone, InjectionProfile(), res) == 0.0


def test_compiled_grid_survives_pickling(case33, case33_loads):
    # worker processes may receive the grid pickled, with what it has compiled
    from hybridse.telemetry import ScheduleConfig, simulate_measurements
    res = solve_powerflow(case33, case33_loads)
    ms = simulate_measurements(case33, res.state, ScheduleConfig(), t=3600.0, seed=3)
    copy = pickle.loads(pickle.dumps(case33))
    again = solve_powerflow(copy, case33_loads)
    assert again.state == res.state and again.converters == res.converters
    assert simulate_measurements(copy, res.state, ScheduleConfig(), t=3600.0,
                                 seed=3).measurements == ms.measurements


class TestStackedPowerFlow:
    """``solve_powerflows`` solves a block of profiles as one stacked solve:
    every profile gives the bits of the per-profile oracle, or its exception
    with the same message and mismatch."""

    OVERLOADS = (2.5, 6.0, 40.0)     # base-profile scalings past the feasible region
    # toy5: a singular DC Jacobian, DC and AC steps to a nonpositive voltage,
    # and DC and AC solves that reach the iteration cap
    TOY5_FAILURES = ({5: -5.0}, {5: -20.0}, {5: -2.51}, {2: -100.0}, {2: -16.0})

    @staticmethod
    def _outcome(solve, grid, profile):
        try:
            res = solve(grid, profile)
        except PowerFlowError as exc:
            return type(exc), str(exc), exc.max_mismatch
        return _result_key(res)

    @pytest.mark.parametrize("name", ["case33", "toy5", "toy5_pq", "toy5_pq_mid"])
    def test_block_matches_the_per_profile_oracle(self, name, request):
        if name == "toy5_pq_mid":
            # both references between other nodes, so their free indices are
            # no single run
            grid, loads = _relabelled(request.getfixturevalue("toy5_pq"),
                                      request.getfixturevalue("toy5_loads"),
                                      {1: 2, 2: 1, 4: 5, 5: 4})
            assert [nw.ref for nw, *_ in powerflow._plan(grid).ac + powerflow._plan(grid).dc] \
                == [1, 1]
        else:
            grid = request.getfixturevalue(name)
            loads = request.getfixturevalue("case33_loads" if name == "case33" else "toy5_loads")
        series = gen_load_profiles(grid, days=3, seed=1707, base=loads)
        rng = np.random.default_rng(1707)
        profiles = [series.sample_tick(rng)[1] for _ in range(16)]
        profiles += [scaled_profile(loads, f) for f in self.OVERLOADS]
        if name == "toy5":
            profiles += [InjectionProfile(p=dict(p)) for p in self.TOY5_FAILURES]
        # interleave, so that failures sit between trials that go on
        profiles = [profiles[i] for i in np.random.default_rng(3).permutation(len(profiles))]

        results = powerflow.solve_powerflows(grid, profiles)
        assert len(results) == len(profiles)
        for prof, res in zip(profiles, results):
            got = ((type(res), str(res), res.max_mismatch) if isinstance(res, PowerFlowError)
                   else _result_key(res))
            assert got == self._outcome(oracle.solve_powerflow, grid, prof)
        failures = {str(r).split(" (")[0] for r in results if isinstance(r, PowerFlowError)}
        if name == "toy5":
            assert failures == {"singular Jacobian in region 1", "DC region 1 diverged",
                                "DC region 1 did not converge in 30 iterations",
                                "AC region 0 diverged",
                                "AC region 0 did not converge in 30 iterations"}

    def test_block_of_one_is_solve_powerflow(self, toy5, toy5_loads):
        for profile in (toy5_loads, InjectionProfile(p={5: -5.0})):
            assert (self._outcome(solve_powerflow, toy5, profile)
                    == self._outcome(oracle.solve_powerflow, toy5, profile))

    def test_block_stacks_each_regional_solve(self, case33, case33_loads, monkeypatch):
        # one call per region and round for the whole block, not one per trial
        calls = []
        for name in ("solve_ac", "solve_dc"):
            real = getattr(powerflow._RegionNewton, name)

            def spy(newton, spec, v_ref, real=real):
                calls.append((newton.region_id, len(spec)))
                return real(newton, spec, v_ref)

            monkeypatch.setattr(powerflow._RegionNewton, name, spy)
        series = gen_load_profiles(case33, days=3, seed=1707, base=case33_loads)
        rng = np.random.default_rng(1707)
        profiles = [series.sample_tick(rng)[1] for _ in range(16)]
        results = powerflow.solve_powerflows(case33, profiles)
        assert not any(isinstance(res, PowerFlowError) for res in results)
        # AC, both DC regions, AC again (the DC specs repeat), then the 9
        # trials whose converters have not yet balanced
        assert calls == [(0, 16), (1, 16), (2, 16), (0, 16), (0, 9)]

    @pytest.mark.parametrize("p, q, match", [
        ({1: -0.1}, {}, "node 1 holds voltage and cannot carry a fixed injection"),
        ({4: 0.1}, {}, "node 4 holds voltage and cannot carry a fixed injection"),
        ({3: -0.1}, {}, "node 3 is a converter-aux node and must inject zero"),
        ({5: -0.1}, {5: 0.1}, "DC node 5 cannot carry reactive injection"),
        ({99: -0.1}, {}, "profile names node 99, which is not in the grid"),
    ], ids=["slack", "held-dc-terminal", "aux", "dc-reactive", "unknown"])
    def test_profile_errors(self, toy5, toy5_loads, p, q, match):
        # a bad profile anywhere in the block refuses the block
        with pytest.raises(ValueError, match=f"^{match}$"):
            powerflow.solve_powerflows(toy5, [toy5_loads, InjectionProfile(p=p, q=q)])

    def test_zero_injection_at_a_held_node_is_accepted(self, toy5, toy5_loads):
        named = InjectionProfile(p={**toy5_loads.p, 1: 0.0, 4: 0.0, 3: 0.0},
                                 q={**toy5_loads.q, 1: 0.0, 5: 0.0})
        res, = powerflow.solve_powerflows(toy5, [named])
        assert _result_key(res) == _result_key(solve_powerflow(toy5, toy5_loads))

    def test_regional_block_matches_the_oracle(self, case33):
        # the AC region alone: trials leave the stack at different steps,
        # the ones that fail with their own message and mismatch
        plan = powerflow._plan(case33)
        newton = plan.ac[0][0]
        rng = np.random.default_rng(8)
        spec = rng.uniform(-0.015, 0.0, size=(24, 2, len(newton.nodes))) * rng.uniform(
            0.0, 5.0, size=(24, 1, 1))
        spec[:, :, newton.ref] = 0.0
        x, errors = newton.solve_ac(spec.copy(), 1.0)
        assert {str(exc).split(" (")[0] for exc in errors.values()} == {
            "AC region 0 diverged", "AC region 0 did not converge in 30 iterations"}
        assert len(errors) < len(spec)
        for k in range(len(spec)):
            try:
                v, th = oracle.newton_ac(case33, newton, spec[k, 0], spec[k, 1], 1.0)
            except PowerFlowDivergence as exc:
                assert (str(errors[k]), errors[k].max_mismatch) == (str(exc), exc.max_mismatch)
                continue
            assert k not in errors
            assert x[k, 0].tobytes() == th.tobytes() and x[k, 1].tobytes() == v.tobytes()


def _result_key(res):
    st = res.state
    return (np.array(list(st.v.items())).tobytes(), np.array(list(st.theta.items())).tobytes(),
            res.converters, res.outer_iterations, res.coupling_residual)


def _relabelled(grid, profile, mapping):
    """The grid and profile with node ids swapped as ``mapping`` says."""
    doc = json.loads(serialize(grid))
    swap = lambda node: mapping.get(node, node)   # noqa: E731
    for line in doc["ac_lines"] + doc["dc_lines"]:
        line["from"], line["to"] = swap(line["from"]), swap(line["to"])
    for conv in doc["converters"]:
        for key in ("ac_node", "aux_node", "dc_node"):
            conv[key] = swap(conv[key])
    for node in doc["nodes"]:
        node["id"] = swap(node["id"])
    for region in doc["regions"]:
        region["nodes"] = [swap(n) for n in region["nodes"]]
    doc["slack"] = swap(doc["slack"])
    return grid_from_dict(doc), InjectionProfile(
        p={swap(n): v for n, v in profile.p.items()},
        q={swap(n): v for n, v in profile.q.items()})
