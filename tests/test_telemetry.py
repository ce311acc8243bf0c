import math

import numpy as np
import pytest

from hybridse import measmodel
from hybridse.powerflow import SystemState, ac_branch_flow, solve_powerflow
from hybridse.telemetry import (Measurement, MeasurementKind, MeasurementSet,
                                ScheduleConfig, TelemetryError, build_region_H,
                                eval_h_nonlinear, inject_bad_data,
                                linear_row_ac_flow, linear_row_dc_flow,
                                simulate_measurements)

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
        from hybridse.powerflow import InjectionProfile, solve_ac_region
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
        # Q = (X dU - 2 R dth) / (2 (R^2+X^2)) = 0.200
        r, x = 0.01, 0.02
        d = r * r + x * x
        q = (x * 0.02 - 2 * r * 0.01) / (2 * d)
        assert q == pytest.approx(0.200, abs=1e-12)

    def test_dc_flat(self):
        assert linear_row_dc_flow(10.0) * (1.0 - 1.0) == 0.0

    def test_dc_linear_vs_exact(self):
        g = linear_row_dc_flow(10.0)
        assert g * (1.00 - 0.99) == pytest.approx(0.100, abs=1e-12)
        exact = 1.00 * (1.00 - 0.99) * 10.0
        assert exact == pytest.approx(0.100, abs=1e-12)
        lin = g * (0.98 - 1.00)
        exact = 0.98 * (0.98 - 1.00) * 10.0
        assert lin == pytest.approx(-0.200, abs=1e-12)
        assert exact == pytest.approx(-0.196, abs=1e-12)
        assert abs(lin - exact) == pytest.approx(0.004, abs=1e-12)


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

    def test_outside_region_rejected(self, case33):
        with pytest.raises(TelemetryError, match="outside region"):
            build_region_H(case33, case33.region(1),
                           [(0, _m(MeasurementKind.AC_V_MAG, (2,)))])


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
            xflat = model.truth_vector(st, {c.id: _zero_conv() for c in case33.converters})
            assert np.allclose(model.h(xflat), model.z, atol=1e-12)


def _zero_conv():
    from hybridse.powerflow import ConverterSolution
    return ConverterSolution(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)


class TestFirstOrderValidity:
    def test_branch_error_bound_near_flat(self, case33, case33_loads):
        # power-flow states inside |V-1|<=0.03, |dth|<=0.05 rad
        for scale in (0.1, 0.2, 0.33):
            res = solve_powerflow(case33, case33_loads.scaled(scale))
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
