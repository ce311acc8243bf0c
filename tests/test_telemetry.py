import dataclasses
import gc
import itertools
import math
import struct
import weakref

import numpy as np
import pytest

from hybridse import data, measmodel
from hybridse.estimation import solve_wls
from hybridse.grid import AC, DC, MEMO_ENTRIES, OWNS_DC, load_grid
from hybridse.powerflow import SystemState, ac_branch_flow, linear_row_ac_flow, solve_powerflow
from hybridse.telemetry import (SOURCE_VIRTUAL_ZERO, Measurement, MeasurementKind,
                                MeasurementSet, ScheduleConfig, TelemetryError,
                                build_region_H, converter_spec, inject_bad_data,
                                simulate_measurements)

from oracle import (ac_branch_flow_partials, eval_h_nonlinear, noisy, reading_pct,
                    scaled_profile, solve_ac_region, truth_vector)

CASE33_SCADA_LINES = ((1, 2), (2, 19), (3, 23), (6, 26))


def case33_schedule(**over):
    return ScheduleConfig(scada_ac_branches=CASE33_SCADA_LINES, **over)


def _m(kind, loc, direction="", value=0.0, sigma=1.0, source="scada"):
    return Measurement(kind, loc, direction, value, sigma, source)


class TestEvalH:
    def test_vmag_flat(self, toy2):
        st = SystemState.flat(toy2)
        assert eval_h_nonlinear(toy2, st, _m(MeasurementKind.AC_V_MAG, (2,))) == 1.0

    def test_flow_flat_zero(self, toy2):
        st = SystemState.flat(toy2)
        assert eval_h_nonlinear(toy2, st, _m(MeasurementKind.AC_P_FLOW, (1, 2), "fwd")) == 0.0

    def test_flow_matches_powerflow(self, toy2):
        from hybridse.powerflow import InjectionProfile
        reg = solve_ac_region(toy2, toy2.regions[0], {2: (-0.5, 0.0)})
        st = SystemState(v={n: v for n, (v, _) in reg.items()},
                         theta={n: t for n, (_, t) in reg.items()})
        p12 = eval_h_nonlinear(toy2, st, _m(MeasurementKind.AC_P_FLOW, (1, 2), "fwd"))
        p21 = eval_h_nonlinear(toy2, st, _m(MeasurementKind.AC_P_FLOW, (1, 2), "rev"))
        assert p21 == pytest.approx(-0.5, abs=1e-8)
        assert p12 == pytest.approx(0.5 + (p12 + p21), abs=1e-8)  # sending = load + loss
        assert p12 > 0.5

    def test_kind_location_mismatch(self, toy5):
        st = SystemState.flat(toy5)
        with pytest.raises(TelemetryError):
            eval_h_nonlinear(toy5, st, _m(MeasurementKind.AC_V_MAG, (4,)))
        with pytest.raises(TelemetryError):
            eval_h_nonlinear(toy5, st, _m(MeasurementKind.DC_P_FLOW, (1, 2), "fwd"))


class TestLinearRows:
    def test_identical_end_states_zero(self):
        a, c = linear_row_ac_flow(0.01, 0.02)
        assert a * 0.0 + c * 0.0 == 0.0

    def test_hand_evaluated_p(self):
        # R=0.01, X=0.02, U_i-U_j=0.02, dth=0.01 -> P=0.600
        a, c = linear_row_ac_flow(0.01, 0.02)
        assert a * 0.02 + c * 0.01 == pytest.approx(0.600, abs=1e-12)

    def test_hand_evaluated_q(self):
        # Q = (X dU - 2 R dth) / (2 (R^2+X^2)) = 0.200, read off the P
        # coefficients of (x, -r): a = x / (2d), c = -r / d bit for bit, as
        # d adds the same two products
        for r, x in ((0.01, 0.02), (0.0922, 0.047), (0.005, 0.01)):
            d = r * r + x * x
            assert linear_row_ac_flow(x, -r) == (x / (2.0 * d), -r / d)
        a, c = linear_row_ac_flow(0.02, -0.01)
        assert a * 0.02 + c * 0.01 == pytest.approx(0.200, abs=1e-12)


class TestRegionH:
    def test_vmag_row_in_u(self, toy2):
        ms = [(0, _m(MeasurementKind.AC_V_MAG, (2,), value=1.01, sigma=0.003))]
        model = build_region_H(toy2, toy2.regions[0], ms)
        col = model.index[("u", 2)]
        assert model.H[0, col] == 1.0
        assert np.count_nonzero(model.H[0]) == 1
        assert model.z[0] == pytest.approx(1.01 ** 2)
        assert model.sigma[0] == pytest.approx(2 * 1.01 * 0.003)

    def test_injection_row_is_sum_of_flows(self, case33):
        region = case33.regions[0]
        inj = [(0, _m(MeasurementKind.AC_P_INJ, (3,)))]
        flows = [(1, _m(MeasurementKind.AC_P_FLOW, (3, 2), "fwd")),
                 (2, _m(MeasurementKind.AC_P_FLOW, (3, 4), "fwd")),
                 (3, _m(MeasurementKind.AC_P_FLOW, (3, 23), "fwd"))]
        m_inj = build_region_H(case33, region, inj)
        m_flow = build_region_H(case33, region, flows)
        assert np.allclose(m_inj.H[0], m_flow.H.sum(axis=0), atol=1e-12)

    def test_case33_root_H_observable(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        ms = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=1)
        by_region = ms.by_region(case33)
        model = build_region_H(case33, case33.regions[0], by_region[0])
        assert model.H.shape[1] == model.n_states
        rank = np.linalg.matrix_rank(model.H)
        assert rank == model.n_states
        # documented sparsity: flow rows touch 2 U + 2 theta states (one theta
        # column drops out on branches at the angle reference), vmag rows 1
        for i, m in enumerate(model.measurements):
            if m.kind is MeasurementKind.AC_P_FLOW:
                expect = 3 if case33.slack in m.location else 4
                assert np.count_nonzero(model.H[i]) == expect
            if m.kind is MeasurementKind.AC_V_MAG:
                assert np.count_nonzero(model.H[i]) == 1

    def test_dc_regions_observable(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        ms = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=1)
        by_region = ms.by_region(case33)
        for rid in (1, 2):
            model = build_region_H(case33, case33.region(rid), by_region[rid])
            assert np.linalg.matrix_rank(model.H) == model.n_states
            # WLS reports the converter draws keyed as EstimationResult declares
            est = solve_wls(model)
            draws = [("pdjc", cid) for cid, orient in case33.region(rid).boundary
                     if orient == OWNS_DC]
            assert draws and list(est.conv_vars) == draws
            assert all(est.conv_vars[key] == est.x[model.index[key]] for key in draws)

    def test_outside_region_rejected(self, case33):
        with pytest.raises(TelemetryError, match="outside region"):
            build_region_H(case33, case33.region(1),
                           [(0, _m(MeasurementKind.AC_V_MAG, (2,)))])

    def test_dc_side_converter_reading_outside_region_rejected(self, toy5):
        # the DC side of converter 0 lies in toy5's DC region, not its AC one
        reading = [(0, _m(MeasurementKind.CONV_P, (0,), "dc"))]
        ac = toy5.regions[0]
        assert ac.kind == AC
        for build in (build_region_H, measmodel.build_region_model):
            with pytest.raises(TelemetryError, match="outside region"):
                build(toy5, ac, reading)


class TestParallelBranches:
    """Two AC lines between the same nodes: an injection row has two terms
    in each of its Jacobian cells, and a flow reading reads the first line
    (``GridModel.ac_branch``)."""

    LINES = ((0.01, 0.02), (0.03, 0.05))

    @pytest.fixture(scope="class")
    def grid(self):
        from hybridse.grid import grid_from_dict
        return grid_from_dict({
            "nodes": [{"id": 1, "kind": "ac", "region": 0, "role": "substation"},
                      {"id": 2, "kind": "ac", "region": 0, "role": "load"}],
            "ac_lines": [{"from": 1, "to": 2, "r": r, "x": x} for r, x in self.LINES],
            "dc_lines": [], "converters": [],
            "regions": [{"id": 0, "kind": "ac", "nodes": [1, 2], "boundary": []}],
            "slack": 1})

    @staticmethod
    def readings():
        return list(enumerate(
            [_m(kind, (node,)) for node in (1, 2)
             for kind in (MeasurementKind.AC_P_INJ, MeasurementKind.AC_Q_INJ)]
            + [_m(MeasurementKind.AC_P_FLOW, (1, 2), "fwd"),
               _m(MeasurementKind.AC_Q_FLOW, (1, 2), "rev"),
               _m(MeasurementKind.AC_V_MAG, (2,))]))

    def test_both_lines_are_incident(self, grid):
        assert grid.incident_ac_branches(1) == [(2, r, x) for r, x in self.LINES]
        assert grid.ac_branch(1, 2) == self.LINES[0]

    def test_h_jac_bytes_match_the_scalar_reference(self, grid):
        model = measmodel.build_region_model(grid, grid.regions[0], self.readings())
        rng = np.random.default_rng(3)
        states = [model.x0(), signed_zero_state(grid, model)]
        states += [model.x0() + rng.normal(0.0, 5e-2, model.n_states) for _ in range(8)]
        for x in states:
            for with_jac in (True, False):
                assert_bytes_equal(model.h_jac(x, with_jac),
                                   reference_h_jac(grid, model, x, with_jac))

    def test_linear_injection_row_sums_both_lines_in_order(self, grid):
        model = build_region_H(grid, grid.regions[0], self.readings())
        idx = model.index
        for i, (node, which) in enumerate(((1, "p"), (1, "q"), (2, "p"), (2, "q"))):
            want = np.zeros(model.n_states)
            for r, x in self.LINES:
                cu, cth = linear_row_ac_flow(*((r, x) if which == "p" else (x, -r)))
                sign = 1.0 if node == 1 else -1.0
                want[idx[("u", 1)]] += sign * cu
                want[idx[("u", 2)]] -= sign * cu
                want[idx[("th", 2)]] -= sign * cth
            assert model.H[i].tobytes() == want.tobytes()
        # a flow reading reads the first line alone
        cu, cth = linear_row_ac_flow(*self.LINES[0])
        assert model.H[4].tolist() == [cu, -cu, -cth]


def region_H_inputs(case33, case33_loads, toy5, toy5_loads):
    """(grid, region, readings) of every regional linear model over: case33
    with the four SCADA lines at t = 3600 s and 900 s, clean and with
    bad-data cases 1-3, with and without 30% pseudo injections, seeds 0-3;
    toy5 at t = 3600 s and 900 s, clean and with bad-data case 2, seeds
    0-3."""
    from hybridse.injection import pseudo_measurements
    sets = []
    truth = solve_powerflow(case33, case33_loads).state
    for t in (3600.0, 900.0):
        for case in (0, 1, 2, 3):
            for pseudo in (False, True):
                for seed in range(4):
                    ms = simulate_measurements(case33, truth, case33_schedule(), t=t, seed=seed)
                    if case:
                        ms = inject_bad_data(ms, case)
                    if pseudo:
                        extra = pseudo_measurements(case33, case33_loads, t, pct=0.3, rng=seed)
                        ms = MeasurementSet(list(ms.measurements) + extra)
                    sets.append((case33, ms))
    truth = solve_powerflow(toy5, toy5_loads).state
    for t in (3600.0, 900.0):
        for case in (0, 2):
            for seed in range(4):
                ms = simulate_measurements(toy5, truth, ScheduleConfig(), t=t, seed=seed)
                sets.append((toy5, inject_bad_data(ms, case) if case else ms))
    return [(grid, region, ms.by_region(grid)[region.id])
            for grid, ms in sets for region in grid.regions]


class TestRegionHDigest:
    """``build_region_H`` pinned bit for bit: H, z, sigma, the boundary rows
    and the row bookkeeping of 224 regional models, by a sha256 digest."""

    MODELS = 224
    DIGEST = "28fa7520f0a52a3f0ac1f631186e14ab3d9aa355aa2b89a5f73a314a4b56919d"

    def test_region_models_digest(self, case33, case33_loads, toy5, toy5_loads):
        import hashlib
        digest, count = hashlib.sha256(), 0
        for grid, region, readings in region_H_inputs(case33, case33_loads, toy5, toy5_loads):
            model = build_region_H(grid, region, readings)
            digest.update(repr(model.H.shape).encode())
            for arr in (model.H, model.z, model.sigma):
                digest.update(arr.tobytes())
            for rows in (model.boundary, model.boundary_q):
                for cid, row in rows.items():
                    digest.update(repr(cid).encode() + row.tobytes())
            digest.update(repr((model.index, model.sources, model.meas_indices)).encode())
            count += 1
        assert (count, digest.hexdigest()) == (self.MODELS, self.DIGEST)


class TestFlatConsistency:
    def test_linear_equals_nonlinear_at_flat(self, case33):
        st = SystemState.flat(case33)
        ms = simulate_measurements(case33, st, case33_schedule(scada_vmag_pct=0.0,
                                                               scada_power_pct=0.0,
                                                               smart_meter_pct=0.0),
                                   t=3600.0, seed=0)
        by_region = ms.by_region(case33)
        for region in case33.regions:
            model = build_region_H(case33, region, by_region[region.id])
            xflat = truth_vector(model, st, {c.id: _zero_conv() for c in case33.converters})
            assert np.allclose(model.h(xflat), model.z, atol=1e-12)


def _zero_conv():
    from hybridse.powerflow import ConverterSolution
    return ConverterSolution(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)


class TestSharedStateInterface:
    """The linear and the nonlinear model of the same readings share one
    state layout and read-out (``telemetry.MeasurementModel``)."""

    @pytest.fixture(scope="class")
    def regions(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        ms = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=11)
        by_region = ms.by_region(case33)
        return res, [(region, build_region_H(case33, region, by_region[region.id]),
                      measmodel.build_region_model(case33, region, by_region[region.id]))
                     for region in case33.regions]

    def test_truth_reads_back(self, regions):
        res, models = regions
        n_draws = 0
        for region, linear, nonlinear in models:
            draws = {("pdjc", cid): res.converters[cid].p_djc
                     for cid, orient in region.boundary if orient == OWNS_DC}
            n_draws += len(draws)
            for model in (linear, nonlinear):
                v, theta, conv = model.extract_state(
                    truth_vector(model, res.state, res.converters))
                true_v = {n: res.state.v[n] for n in region.nodes}
                if model is linear and region.kind == AC:    # V = sqrt(U)
                    assert v.keys() == true_v.keys()
                    assert all(abs(v[n] - true_v[n]) <= 1e-12 for n in true_v)
                else:
                    assert v == true_v
                assert theta == ({n: res.state.theta[n] for n in region.nodes}
                                 if region.kind == AC else {})
                assert conv == draws
        assert n_draws == len(res.converters)

    def test_truth_needs_converter_solutions(self, case33, regions):
        res, models = regions
        system = measmodel.build_system_model(case33, [])
        raised = 0
        for model in [system] + [m for _, *pair in models for m in pair]:
            if any(tag not in ("u", "v", "th") for tag, _ in model.index):
                with pytest.raises(TelemetryError, match="converter solution"):
                    truth_vector(model, res.state)
                raised += 1
            else:
                assert np.array_equal(truth_vector(model, res.state),
                                      truth_vector(model, res.state, res.converters))
        assert raised == 1 + 2 * sum(r.kind == DC for r in case33.regions)


class TestFirstOrderValidity:
    def test_branch_error_bound_near_flat(self, case33, case33_loads):
        # power-flow states inside |V-1|<=0.03, |dth|<=0.05 rad
        for scale in (0.1, 0.2, 0.33):
            res = solve_powerflow(case33, scaled_profile(case33_loads, scale))
            st = res.state
            assert max(abs(v - 1.0) for v in st.v.values()) <= 0.03
            for ln in case33.ac_lines:
                f, t = ln.from_node, ln.to_node
                assert abs(st.theta[f] - st.theta[t]) <= 0.05
                a, c = linear_row_ac_flow(ln.r, ln.x)
                lin = a * (st.v[f] ** 2 - st.v[t] ** 2) + c * (st.theta[f] - st.theta[t])
                nl, _ = ac_branch_flow(st.v[f], st.theta[f], st.v[t], st.theta[t], ln.r, ln.x)
                assert abs(lin - nl) <= 0.02
            for ln in case33.dc_lines:
                lin = ln.g * (st.v[ln.from_node] - st.v[ln.to_node])
                nl = st.v[ln.from_node] * (st.v[ln.from_node] - st.v[ln.to_node]) * ln.g
                assert abs(lin - nl) <= 0.02


class TestSynthesisMatchesOracle:
    """``simulate_measurements`` reads its compiled plan; every reading has
    the bits of the scalar path (``oracle.eval_h_nonlinear`` plus
    ``oracle.noisy``, one reading at a time) and the generator is left where
    that path leaves it."""

    @pytest.fixture(scope="class")
    def cases(self, toy2, toy5, toy5_loads, case33, case33_loads):
        reg = solve_ac_region(toy2, toy2.regions[0], {2: (-0.5, -0.2)})
        toy2_loaded = SystemState(v={n: v for n, (v, _) in reg.items()},
                                  theta={n: t for n, (_, t) in reg.items()})
        return [
            (toy2, [SystemState.flat(toy2), toy2_loaded], [ScheduleConfig()]),
            (toy5, [SystemState.flat(toy5), solve_powerflow(toy5, toy5_loads).state],
             [ScheduleConfig()]),
            (case33, [SystemState.flat(case33), solve_powerflow(case33, case33_loads).state],
             [ScheduleConfig(), case33_schedule()]),
        ]

    def test_bits_match_the_scalar_path(self, cases):
        for grid, states, schedules in cases:
            for k, state in enumerate(states):
                for schedule in schedules:
                    for t in (900.0, 3600.0, 450.0):
                        assert_synthesis_matches_oracle(grid, state, schedule, t, seed=k)

    def test_single_value_rows_keep_the_sign_of_zero(self, toy5):
        # noiseless readings of hand-made states: a reading of one value keeps
        # a -0.0; an injection is a sum that starts from +0.0, as sum() does
        exact = ScheduleConfig(scada_vmag_pct=0.0, scada_power_pct=0.0, smart_meter_pct=0.0)
        theta = {1: 0.0, 2: 0.0, 3: 0.0}
        at_terminal = SystemState(v={1: 1.0, 2: 1.0, 3: 1.0, 4: -0.0, 5: -1.0}, theta=theta)
        at_load = SystemState(v={1: 1.0, 2: 1.0, 3: 1.0, 4: -1.0, 5: -0.0}, theta=theta)
        a = {(m.kind, m.location): m.value for m in
             assert_synthesis_matches_oracle(toy5, at_terminal, exact, 3600.0, seed=0)}
        b = {(m.kind, m.location): m.value for m in
             assert_synthesis_matches_oracle(toy5, at_load, exact, 3600.0, seed=0)}
        for value, sign in ((a[(MeasurementKind.DC_V_MAG, (4,))], -1.0),
                            (a[(MeasurementKind.DC_P_FLOW, (4, 5))], -1.0),
                            (b[(MeasurementKind.DC_P_INJ, (5,))], 1.0)):
            assert value == 0.0 and math.copysign(1.0, value) == sign

    def test_each_grid_and_schedule_has_its_own_plan(self, monkeypatch):
        from hybridse import data, telemetry
        from hybridse.grid import load_grid
        from hybridse.powerflow import load_profile
        built = []
        real = telemetry._SynthesisPlan

        def counted(grid, schedule, *ticks):
            built.append((grid, schedule, ticks))
            return real(grid, schedule, *ticks)

        monkeypatch.setattr(telemetry, "_SynthesisPlan", counted)
        grids = [(load_grid(data.path(g)), load_profile(data.path(l)))
                 for g, l in ((data.CASE33_HYBRID, data.CASE33_HYBRID_LOADS),
                              (data.TOY5_HYBRID, data.TOY5_HYBRID_LOADS))]
        states = [solve_powerflow(grid, loads).state for grid, loads in grids]
        # both grids have line 1-2, by default their only metered line; the
        # second schedule also meters it from node 2
        schedules = (ScheduleConfig(), ScheduleConfig(scada_ac_branches=((1, 2), (2, 1))))
        for rep in range(2):
            for (grid, _), state in zip(grids, states):
                sizes = [len(assert_synthesis_matches_oracle(grid, state, s, 3600.0, rep))
                         for s in schedules]
                assert sizes[1] == sizes[0] + 2
        assert len(built) == 4
        assert {(id(g), s) for g, s, _ in built} == {(id(g), s) for (g, _) in grids
                                                     for s in schedules}


def assert_synthesis_matches_oracle(grid, state, schedule, t, seed):
    rng = np.random.default_rng(seed)
    ms = simulate_measurements(grid, state, schedule, t=t, seed=rng)
    ref_rng = np.random.default_rng(seed)
    for m in ms:
        if m.source == SOURCE_VIRTUAL_ZERO:
            want = (0.0, 0.0)
        else:
            want = noisy(eval_h_nonlinear(grid, state, m), reading_pct(m, schedule),
                         schedule.sigma_floor, ref_rng)
        assert type(m.value) is float and type(m.sigma) is float and m.timestamp == t
        assert struct.pack("<dd", m.value, m.sigma) == struct.pack("<dd", *want), m
    assert rng.random() == ref_rng.random()
    return ms


class TestSimulate:
    def test_zero_noise_exact(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        sched = case33_schedule(scada_vmag_pct=0.0, scada_power_pct=0.0,
                                smart_meter_pct=0.0)
        ms = simulate_measurements(case33, res.state, sched, t=3600.0, seed=5)
        for m in ms:
            true = eval_h_nonlinear(case33, res.state, m)
            if m.source == "virtual_zero":
                # exact zero by construction; the state satisfies it to solver tol
                assert m.value == 0.0
                assert abs(true) <= 1e-8
            else:
                assert m.value == pytest.approx(true, abs=1e-12)

    def test_smart_meter_cadence(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        at_900 = simulate_measurements(case33, res.state, case33_schedule(), t=900.0, seed=1)
        at_3600 = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=1)
        assert not any(m.source == "smart_meter" for m in at_900)
        assert any(m.source == "scada" for m in at_900)
        assert any(m.source == "smart_meter" for m in at_3600)

    def test_deterministic(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        a = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=42)
        b = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=42)
        assert a.measurements == b.measurements

    def test_noise_statistics(self, toy2):
        st = SystemState(v={1: 1.0, 2: 0.97}, theta={1: 0.0, 2: -0.01})
        sched = ScheduleConfig()
        draws = np.array([
            simulate_measurements(toy2, st, sched, t=0.0, seed=k).measurements[0].value
            for k in range(10000)])
        m0 = simulate_measurements(toy2, st, sched, t=0.0, seed=0).measurements[0]
        true = eval_h_nonlinear(toy2, st, m0)
        sample_sigma = draws.std()
        assert abs(sample_sigma - m0.sigma) / m0.sigma < 0.05
        assert abs(draws.mean() - true) < 5 * m0.sigma / math.sqrt(10000)

    def test_zero_injection_virtuals(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        ms = simulate_measurements(case33, res.state, case33_schedule(), t=900.0, seed=1)
        zeros = [m for m in ms if m.source == "virtual_zero"]
        znodes = {m.location[0] for m in zeros}
        assert znodes == {21, 28, 36, 37}

    def test_region_partition(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        ms = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=1)
        by_region = ms.by_region(case33)
        total = sum(len(v) for v in by_region.values())
        assert total == len(ms)


class TestBadData:
    def _base(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        return simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=3)

    def test_case1_doubles_flow(self, case33, case33_loads):
        ms = self._base(case33, case33_loads)
        bad = inject_bad_data(ms, 1)
        (idx,) = bad.corrupt_indices
        assert bad[idx].kind is MeasurementKind.AC_P_FLOW
        assert bad[idx].value == pytest.approx(2 * ms[idx].value)
        # default target: largest magnitude flow, the feeder head
        assert bad[idx].location == (1, 2)
        untouched = [m for i, m in enumerate(bad) if i != idx]
        assert untouched == [m for i, m in enumerate(ms) if i != idx]

    def test_case2_doubles_conv(self, case33, case33_loads):
        ms = self._base(case33, case33_loads)
        bad = inject_bad_data(ms, 2, target=1)
        (idx,) = bad.corrupt_indices
        assert bad[idx].kind is MeasurementKind.CONV_P
        assert bad[idx].value == pytest.approx(2 * ms[idx].value)

    def test_case3_negates_pair(self, case33, case33_loads):
        ms = self._base(case33, case33_loads)
        bad = inject_bad_data(ms, 3, target=(1, 2))
        assert len(bad.corrupt_indices) == 2
        for idx in bad.corrupt_indices:
            assert bad[idx].value == pytest.approx(-ms[idx].value)
        kinds = {bad[i].kind for i in bad.corrupt_indices}
        assert kinds == {MeasurementKind.AC_P_FLOW, MeasurementKind.AC_Q_FLOW}

    def test_missing_target(self, case33, case33_loads):
        ms = self._base(case33, case33_loads)
        with pytest.raises(TelemetryError):
            inject_bad_data(ms, 2, target=99)


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        ms = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=9)
        path = tmp_path / "meas.csv"
        ms.to_csv(path)
        again = MeasurementSet.from_csv(path)
        assert again.measurements == ms.measurements

    def test_sigma_must_be_positive(self, tmp_path, case33, case33_loads):
        # a reading of sigma 0 gets an infinite weight: DRSE's LP is
        # unbounded and the Gauss-Newton step does not converge
        with pytest.raises(ValueError, match="sigma_floor"):
            case33_schedule(sigma_floor=0.0, scada_vmag_pct=0.0)
        with pytest.raises(ValueError, match="sigma_floor"):
            case33_schedule(sigma_floor=-1e-4)
        res = solve_powerflow(case33, case33_loads)
        ms = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=9)
        i = next(i for i, m in enumerate(ms) if m.source != SOURCE_VIRTUAL_ZERO)
        path = tmp_path / "meas.csv"
        for sigma in (0.0, -1e-3, math.nan, math.inf):
            bad = list(ms.measurements)
            bad[i] = dataclasses.replace(bad[i], sigma=sigma)
            MeasurementSet(bad).to_csv(path)
            with pytest.raises(TelemetryError, match="sigma"):
                MeasurementSet.from_csv(path)
        # exact zero injections carry sigma 0
        assert any(m.source == SOURCE_VIRTUAL_ZERO and m.sigma == 0.0 for m in ms)


class TestNonlinearModelJacobian:
    def _models(self, case33, case33_loads):
        res = solve_powerflow(case33, case33_loads)
        ms = simulate_measurements(case33, res.state, case33_schedule(), t=3600.0, seed=11)
        by_region = ms.by_region(case33)
        sys_model = measmodel.build_system_model(case33, [(i, m) for i, m in enumerate(ms)])
        reg_models = [measmodel.build_region_model(case33, r, by_region[r.id])
                      for r in case33.regions]
        return [sys_model] + reg_models

    def test_jacobian_matches_finite_differences(self, case33, case33_loads):
        rng = np.random.default_rng(17)
        for model in self._models(case33, case33_loads):
            for _ in range(3):
                x = model.x0()
                x += rng.normal(0.0, 1e-3, size=x.size)
                h0, jac = model.h_jac(x)
                step = 1e-6
                for col in rng.choice(model.n_states, size=min(12, model.n_states),
                                      replace=False):
                    xp, xm = x.copy(), x.copy()
                    xp[col] += step
                    xm[col] -= step
                    fd = (model.h(xp) - model.h(xm)) / (2 * step)
                    scale = np.maximum(np.abs(jac[:, col]), 1.0)
                    assert np.allclose(jac[:, col] / scale, fd / scale, atol=1e-5)


def reference_h_jac(grid, model, x, with_jac=True):
    """A measurement model of ``grid`` evaluated row by row in scalars: every
    branch term from ``ac_branch_flow_partials``, the terms of a row added in
    row order as ``sum()`` adds them, the converter loss with ``math.hypot``."""
    idx = model.index
    h = np.zeros(len(model.rows))
    jac = np.zeros((len(model.rows), model.n_states))

    def flow(jrow, f, t, r, x_, which):
        cols = (idx[("v", f)], idx.get(("th", f)), idx[("v", t)], idx.get(("th", t)))
        vf, thf, vt, tht = (0.0 if c is None else x[c] for c in cols)
        p, q, dp, dq = ac_branch_flow_partials(vf, thf, vt, tht, r, x_)
        for c, d in zip(cols, dp if which == "p" else dq):
            if c is not None:
                jrow[c] += d
        return p if which == "p" else q

    def dc_flow(jrow, f, t, g):
        vf, vt = x[idx[("v", f)]], x[idx[("v", t)]]
        jrow[idx[("v", f)]] += (2 * vf - vt) * g
        jrow[idx[("v", t)]] += -vf * g
        return vf * (vf - vt) * g

    for i, row in enumerate(model.rows):
        op, jrow = row[0], jac[i]
        if op in ("vmag", "var"):
            col = idx[("v", row[1])] if op == "vmag" else idx[row[1:]]
            jrow[col] = 1.0
            h[i] = x[col]
        elif op == "ac_flow":
            h[i] = flow(jrow, *row[1:])
        elif op == "dc_flow":
            h[i] = dc_flow(jrow, *row[1:])
        elif op == "ac_inj":
            _, node, branches, which = row
            h[i] = sum(flow(jrow, node, other, r, x_, which) for other, r, x_ in branches)
        elif op == "dc_inj":
            _, node, branches, convs = row
            total = sum(dc_flow(jrow, node, other, g) for other, g in branches)
            for cid in convs:
                jrow[idx[("pdjc", cid)]] += 1.0
                total += x[idx[("pdjc", cid)]]
            h[i] = total
        elif op in ("couple_p", "couple_q"):
            which, cid = op[-1], row[1]
            col = idx[(which + "vsc", cid)]
            jrow[col] -= 1.0
            spec = converter_spec(grid.converter(cid), "ac", which)
            h[i] = flow(jrow, *spec[1:]) - x[col]
        else:
            assert op == "couple_loss"
            conv = grid.converter(row[1])
            cp, cq = idx[("pvsc", conv.id)], idx[("qvsc", conv.id)]
            cv, cd = idx[("v", conv.aux_node)], idx[("pdjc", conv.id)]
            s = math.hypot(x[cp], x[cq])
            i_c = s / (math.sqrt(3.0) * x[cv])
            dloss = conv.d2 + 2.0 * conv.d3 * i_c
            di_dp, di_dq = ((x[cp] / (math.sqrt(3.0) * x[cv] * s),
                             x[cq] / (math.sqrt(3.0) * x[cv] * s)) if s > 1e-12 else (0.0, 0.0))
            jrow[cp] += 1.0 + dloss * di_dp
            jrow[cq] += dloss * di_dq
            jrow[cv] += dloss * (-i_c / x[cv])
            jrow[cd] -= 1.0
            h[i] = x[cp] + (conv.d1 + conv.d2 * i_c + conv.d3 * i_c * i_c) - x[cd]
    return h, (jac if with_jac else None)


def assert_bytes_equal(got, want):
    (h, jac), (h_ref, jac_ref) = got, want
    assert h.shape == h_ref.shape and h.tobytes() == h_ref.tobytes()
    if jac_ref is None:
        assert jac is None
    else:
        assert jac.shape == jac_ref.shape and jac.tobytes() == jac_ref.tobytes()


def wls_models(grid, loads, sched, seed=11):
    """The truth and the models CWLS and DWLS evaluate: the system model
    (couple rows included) and every region model with its boundary rows."""
    res = solve_powerflow(grid, loads)
    ms = simulate_measurements(grid, res.state, sched, t=3600.0, seed=seed)
    models = [measmodel.build_system_model(grid, list(enumerate(ms)))]
    by_region = ms.by_region(grid)
    models += [measmodel.build_region_model(grid, region, by_region[region.id])
               for region in grid.regions]
    return res, models


def signed_zero_state(grid, model):
    """Flat AC voltages, every other state -0.0: DC flows evaluate to -0.0."""
    x = model.x0()
    for (tag, key), col in model.index.items():
        if tag != "v" or grid.node(key).kind == DC:
            x[col] = -0.0
    return x


class TestCompiledModelExact:
    """``h_jac`` gives the bits of the scalar row-by-row evaluation."""

    @pytest.fixture(scope="class")
    def cases(self, case33, case33_loads, toy5, toy5_loads):
        return [(case33, *wls_models(case33, case33_loads, case33_schedule())),
                (toy5, *wls_models(toy5, toy5_loads, ScheduleConfig()))]

    def test_every_row_kind_is_covered(self, cases):
        ops = {row[0] for *_, models in cases for model in models for row in model.rows}
        assert ops == {"vmag", "var", "ac_flow", "dc_flow", "ac_inj", "dc_inj",
                       "couple_p", "couple_q", "couple_loss"}

    def test_bytes_match_the_scalar_reference(self, cases):
        rng = np.random.default_rng(23)
        for grid, res, models in cases:
            for model in models:
                truth = truth_vector(model, res.state, res.converters)
                states = [truth, signed_zero_state(grid, model)]
                states += [model.x0() + rng.normal(0.0, 2e-2, model.n_states) for _ in range(4)]
                states += [truth + rng.normal(0.0, 1e-3, model.n_states) for _ in range(4)]
                for x in states:
                    for with_jac in (True, False):
                        assert_bytes_equal(model.h_jac(x, with_jac),
                                           reference_h_jac(grid, model, x, with_jac))

    def test_single_term_rows_keep_negative_zero(self, cases):
        grid, _, (model, *_) = cases[0]
        h, _ = model.h_jac(signed_zero_state(grid, model))
        dc_flows = [i for i, row in enumerate(model.rows) if row[0] == "dc_flow"]
        assert dc_flows and all(h[i] == 0.0 and math.copysign(1.0, h[i]) < 0 for i in dc_flows)

    def test_truth_matches_eval_h_nonlinear(self, cases):
        # an independent physics path; a DC injection that reads a converter
        # draw variable agrees to the power-flow balance tolerance only
        for grid, res, models in cases:
            for model in models:
                h = model.h(truth_vector(model, res.state, res.converters))
                for i, m in enumerate(model.measurements):
                    row = model.rows[i]
                    if m is None or row[0] == "var":
                        continue
                    want = eval_h_nonlinear(grid, res.state, m)
                    if row[0] == "dc_inj" and row[3]:
                        assert h[i] == pytest.approx(want, abs=1e-6)
                    else:
                        assert h[i] == want


class TestCompiledModelLifetime:
    """The grid compiles a model's rows once per (scope, row set) and every
    model of that key shares the compiled form; a model that drops a row
    masks it and compiles nothing.  The rows are a tuple."""

    @pytest.fixture
    def setup(self, case33, case33_loads):
        res, models = wls_models(case33, case33_loads, case33_schedule())
        rng = np.random.default_rng(5)
        return [(m, truth_vector(m, res.state, res.converters)
                 + rng.normal(0.0, 1e-3, m.n_states)) for m in models]

    @staticmethod
    def assert_as_fresh(grid, model, x):
        """h and J are the bits of the model's rows compiled anew."""
        fresh = measmodel._CompiledRows(grid, model.index, model.rows)
        for with_jac in (True, False):
            assert_bytes_equal(model.h_jac(x, with_jac), fresh.evaluate(x, with_jac))

    def test_drop_row(self, setup, case33):
        for model, x in setup:
            model.h_jac(x)
            model.drop_row(len(model.rows) // 2)
            self.assert_as_fresh(case33, model, x)

    def test_row_replaced_in_place(self, setup):
        model, _ = setup[0]
        with pytest.raises(TypeError):
            model.rows[0] = model.rows[1]

    def test_clone_then_edit(self, setup, case33):
        model, x = setup[0]
        before = model.h_jac(x)
        twin = model.clone()
        twin.drop_row(len(twin.rows) // 2)
        self.assert_as_fresh(case33, twin, x)
        assert twin.h(x).size == before[0].size - 1
        assert_bytes_equal(model.h_jac(x), before)

    def test_masked_rows_match_a_fresh_compile(self, setup, case33, monkeypatch):
        # h[keep] and J[keep] are the bits of compiling the shorter rows:
        # each row and each cell sums only its own row's terms
        compiles = []
        real = measmodel._CompiledRows

        def counted(*args):
            compiles.append(args)
            return real(*args)

        monkeypatch.setattr(measmodel, "_CompiledRows", counted)
        for model, x in setup:
            twin = model.clone()
            # the last row (a coupling or boundary row), the first, and rows
            # between, counted in the rows left
            for at in (1.0, 0.0, 0.5, 0.3, 0.97):
                twin.drop_row(min(int(at * len(twin.rows)), len(twin.rows) - 1))
            assert twin._compiled is model._compiled and not compiles
            self.assert_as_fresh(case33, twin, x)
            assert len(compiles) == 1
            compiles.clear()
        ops = {row[0] for model, _ in setup for row in model.rows}
        assert {"couple_p", "couple_loss", "var"} <= ops

    def test_compiled_form_kept_by_the_grid(self, case33_loads):
        grid = load_grid(data.path(data.CASE33_HYBRID))
        res, models = wls_models(grid, case33_loads, case33_schedule(), seed=11)
        _, again = wls_models(grid, case33_loads, case33_schedule(), seed=12)
        for a, b in zip(models, again):
            assert a._compiled is b._compiled and a.rows is b.rows and a.index is b.index
            assert a.z.tobytes() != b.z.tobytes()
            assert a.clone()._compiled is a._compiled
        # a model keeps its compiled form alive; the grid's entry is dropped
        # only by eviction
        refs = [weakref.ref(models[0]._compiled)]
        refs += [weakref.ref(a) for a in vars(models[0]._compiled).values()
                 if isinstance(a, np.ndarray)]
        del models, again
        gc.collect()
        assert all(ref() is not None for ref in refs)
        grid._memo.clear()
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestGridMemo:
    """The grid keeps at most ``MEMO_ENTRIES`` compiled structures, one per
    row set among them, and evicts the oldest; a rebuilt entry gives the
    same bits."""

    def test_bounded_and_rebuilt_bit_exact(self, case33_loads):
        grid = load_grid(data.path(data.CASE33_HYBRID))
        res, (system, *_) = wls_models(grid, case33_loads, case33_schedule())
        pairs = [(i, m) for i, m in enumerate(system.measurements) if m is not None]
        x = truth_vector(system, res.state, res.converters)
        region = grid.regions[0]
        by_region = MeasurementSet([m for _, m in pairs]).by_region(grid)[region.id]
        # LNR-cleaned sets of the system model and DWLS-like second passes of
        # a region's linear model: more distinct row sets than are kept
        subsets = ([p for p in pairs if p[0] not in drop]
                   for drop in itertools.combinations(range(len(pairs)), 2))
        first_system = measmodel.build_system_model(grid, pairs[1:])
        first_h = build_region_H(grid, region, by_region[1:])
        want = (first_system.h_jac(x), first_h.H.copy(), first_h.boundary)
        fed = len(grid._memo)
        for subset in itertools.islice(subsets, MEMO_ENTRIES):
            measmodel.build_system_model(grid, subset)
            fed += 1
            assert len(grid._memo) == min(fed, MEMO_ENTRIES)
        for k in range(1, 9):
            build_region_H(grid, region, by_region[:-k])
        assert len(grid._memo) == MEMO_ENTRIES
        rebuilt = measmodel.build_system_model(grid, pairs[1:])
        assert rebuilt._compiled is not first_system._compiled
        assert_bytes_equal(rebuilt.h_jac(x), want[0])
        again = build_region_H(grid, region, by_region[1:])
        assert again.H is not first_h.H
        assert again.H.tobytes() == want[1].tobytes()
        for cid, row in want[2].items():
            assert again.boundary[cid].tobytes() == row.tobytes()
        # the grid's own structures went first, and come back the same
        assert "powerflow" not in grid._memo
        again_pf = solve_powerflow(grid, case33_loads)
        assert again_pf.state == res.state and again_pf.converters == res.converters
        assert len(grid._memo) == MEMO_ENTRIES


def _every_reading(grid):
    """A reading of every kind at every place it can sit on ``grid``: each
    node's injections, voltage and zero injections, each line's and
    converter coupling's flows both ways, each converter's P and Q on its ac
    and its dc side; every reading twice, the copies apart."""
    out = []
    for node in grid.nodes:
        kinds = ((MeasurementKind.AC_P_INJ, MeasurementKind.AC_Q_INJ, MeasurementKind.AC_V_MAG,
                  MeasurementKind.ZERO_P_INJ, MeasurementKind.ZERO_Q_INJ)
                 if node.kind == AC else
                 (MeasurementKind.DC_P_INJ, MeasurementKind.DC_V_MAG, MeasurementKind.ZERO_P_INJ))
        out += [_m(kind, (node.id,)) for kind in kinds]
    ac_pairs = ([(ln.from_node, ln.to_node) for ln in grid.ac_lines]
                + [(c.aux_node, c.ac_node) for c in grid.converters])
    for kind, pairs in (((MeasurementKind.AC_P_FLOW, MeasurementKind.AC_Q_FLOW), ac_pairs),
                        ((MeasurementKind.DC_P_FLOW,),
                         [(ln.from_node, ln.to_node) for ln in grid.dc_lines])):
        out += [_m(k, pair, direction) for k in kind for a, b in pairs
                for pair, direction in (((a, b), "fwd"), ((b, a), "rev"))]
    out += [_m(kind, (c.id,), side) for c in grid.converters
            for kind in (MeasurementKind.CONV_P, MeasurementKind.CONV_Q) for side in ("ac", "dc")]
    return out + out[::-1]


class TestReadingRegions:
    """``by_region`` looks each reading's region up in a table the grid keeps
    (``GridModel.memo``); it is ``region_of``'s partition for every kind of
    reading, in the set's order, from a filled table, an evicted one and
    one that came through pickling."""

    @pytest.mark.parametrize("grid_name", ["case33", "toy5_formed"])
    def test_partition_is_region_of(self, grid_name, request):
        import pickle
        grid = pickle.loads(pickle.dumps(request.getfixturevalue(grid_name)))
        grid._memo.pop("reading_regions", None)
        ms = MeasurementSet(_every_reading(grid))
        want = {r.id: [] for r in grid.regions}
        for idx, m in enumerate(ms):
            want[ms.region_of(m, grid)].append((idx, m))
        for c in grid.converters:
            sides = {ms.region_of(_m(MeasurementKind.CONV_P, (c.id,), side), grid)
                     for side in ("ac", "dc")}
            assert len(sides) == 2
        assert ms.by_region(grid) == want
        table = grid._memo["reading_regions"]
        assert len(table) == len(ms) // 2
        assert ms.by_region(grid) == want                   # from the filled table
        copy = pickle.loads(pickle.dumps(grid))
        assert copy._memo["reading_regions"] == table
        assert ms.by_region(copy) == want
        del grid._memo["reading_regions"]                   # evicted: rebuilt
        assert ms.by_region(grid) == want
