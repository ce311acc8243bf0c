import csv
import re

import numpy as np
import pytest

from hybridse import data
from hybridse.bench import montecarlo
from hybridse.bench import (Scenario, ScenarioError, aggregate_rows,
                            compute_metrics, load_scenario, run_montecarlo)
from hybridse.bench.metrics import MetricsRow
from hybridse.cli import main
from hybridse.estimation import UnobservableError
from hybridse.powerflow import SystemState
from hybridse.telemetry import MeasurementSet


class TestMetrics:
    def test_exact_estimate_zero(self, toy2):
        truth = SystemState(v={1: 1.0, 2: 0.98}, theta={1: 0.0, 2: -0.01})
        row = compute_metrics(toy2, dict(truth.v), dict(truth.theta), truth)
        assert row.aae_v_ac == row.mae_v_ac == 0.0
        assert row.aae_theta_deg == 0.0

    def test_direct_arithmetic(self, toy2):
        truth = SystemState(v={1: 1.0, 2: 1.0}, theta={1: 0.0, 2: 0.0})
        est_v = {1: 1.01, 2: 0.97}
        row = compute_metrics(toy2, est_v, {1: 0.0, 2: 0.0}, truth)
        assert row.aae_v_ac == pytest.approx(0.02)
        assert row.mae_v_ac == pytest.approx(0.03)

    def test_aae_le_mae(self, toy5):
        rng = np.random.default_rng(0)
        truth = SystemState(v={n.id: 1.0 for n in toy5.nodes},
                            theta={n.id: 0.0 for n in toy5.nodes if n.kind == "ac"})
        v = {n.id: 1.0 + rng.normal(0, 0.01) for n in toy5.nodes}
        th = {n.id: rng.normal(0, 0.01) for n in toy5.nodes if n.kind == "ac"}
        row = compute_metrics(toy5, v, th, truth)
        for pair in [("aae_v_ac", "mae_v_ac"), ("aae_theta_deg", "mae_theta_deg"),
                     ("aae_v_dc", "mae_v_dc")]:
            assert getattr(row, pair[0]) <= getattr(row, pair[1])

    def test_node_mismatch_rejected(self, toy5):
        truth = SystemState.flat(toy5)
        with pytest.raises(ValueError, match="misses nodes"):
            compute_metrics(toy5, {1: 1.0}, {1: 0.0}, truth)

    def test_aggregation_rule(self):
        rows = [MetricsRow(0.01, 0.02, 0.1, 0.2, 0.001, 0.002, 0.01, 0.02),
                MetricsRow(0.03, 0.08, 0.3, 0.6, 0.003, 0.008, 0.03, 0.08)]
        agg = aggregate_rows(rows)
        assert agg["aae_v_ac_mean"] == pytest.approx(0.02)
        assert agg["mae_v_ac_max"] == pytest.approx(0.08)
        assert agg["mae_v_ac_mean"] == pytest.approx(0.05)


def toy_scenario(method="drse", runs=2, **over):
    kw = dict(grid=str(data.path(data.TOY5_HYBRID)), method=method, runs=runs,
              seed=4242, base_profile=str(data.path(data.TOY5_HYBRID_LOADS)),
              profile_days=10, test_days=5)
    kw.update(over)
    return Scenario(**kw)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ScenarioError, match="unknown method"):
            toy_scenario(method="bogus")
        with pytest.raises(ScenarioError, match="runs"):
            toy_scenario(runs=0)
        with pytest.raises(ScenarioError, match="pseudo_pct"):
            toy_scenario(pseudo_pct=42.0)

    def test_tick_convention(self):
        assert toy_scenario(method="drse").tick_time == 3600.0
        assert toy_scenario(method="drse_dnn").tick_time == 900.0
        assert toy_scenario(method="cwls_pseudo").tick_time == 900.0

    def test_load_scenario_roundtrip(self, tmp_path):
        import json
        doc = {"grid": str(data.path(data.TOY5_HYBRID)), "method": "dwls",
               "runs": 3, "seed": 7,
               "base_profile": str(data.path(data.TOY5_HYBRID_LOADS))}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario(path)
        assert sc.method == "dwls" and sc.runs == 3
        doc["nope"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            load_scenario(path)


class TestMonteCarlo:
    def test_zero_noise_toy_exact(self, tmp_path):
        # flat no-load truth makes the linear model exact: AAE below 1e-6
        zero_loads = tmp_path / "zero.csv"
        zero_loads.write_text("node_id,P,Q\n")
        sc = toy_scenario(runs=1, base_profile=str(zero_loads),
                          schedule={"scada_vmag_pct": 0.0, "scada_power_pct": 0.0,
                                    "smart_meter_pct": 0.0})
        result = run_montecarlo(sc)
        assert result.records[0].metrics.aae_v_all < 1e-6

    def test_artifacts_and_determinism(self, tmp_path):
        sc = toy_scenario(runs=3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        result = run_montecarlo(sc, out_dir=out1)
        run_montecarlo(sc, out_dir=out2)
        for name in ("runs.csv", "aggregate.csv", "trace_boundary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "timing.csv").exists()
        # an ac and a dc packet per iteration of each run (toy5 has one converter)
        lines = (out1 / "trace_boundary.csv").read_text().strip().splitlines()
        assert lines[0] == "run,iteration,converter,side,p_vsc,q_vsc,p_loss,v_pcc"
        for rec in result.records:
            rows = [ln.split(",") for ln in lines[1:] if ln.split(",")[0] == str(rec.run)]
            assert len(rows) == 2 * rec.iterations > 0
            assert [row[3] for row in rows] == ["ac", "dc"] * rec.iterations

    def test_worker_pool_writes_the_same_bytes(self, tmp_path, monkeypatch):
        # HYBRIDSE_WORKERS=2 runs the runs in two worker processes
        sc = toy_scenario(runs=4)
        for workers in ("1", "2"):
            monkeypatch.setenv("HYBRIDSE_WORKERS", workers)
            run_montecarlo(sc, out_dir=tmp_path / workers)
        for name in ("runs.csv", "aggregate.csv", "trace_boundary.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_aggregate_recomputable_from_runs(self, tmp_path):
        sc = toy_scenario(runs=4)
        out = tmp_path / "r"
        result = run_montecarlo(sc, out_dir=out)
        with open(out / "runs.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        recomputed = np.mean([float(r["aae_v_ac"]) for r in rows])
        assert recomputed == pytest.approx(result.aggregate["aae_v_ac_mean"], abs=1e-15)
        recomputed_max = max(float(r["mae_v_ac"]) for r in rows)
        assert recomputed_max == pytest.approx(result.aggregate["mae_v_ac_max"], abs=1e-15)

    def test_timing_sanity(self, tmp_path):
        sc = toy_scenario(runs=2)
        result = run_montecarlo(sc)
        for rec in result.records:
            assert rec.timing.shape == (rec.iterations, 3)
            for t_total, t_algebra, t_region_max in rec.timing:
                assert t_total >= t_region_max - 1e-12
                assert t_total >= t_algebra - 1e-12

    def test_timing_csv_wall_ms(self, tmp_path):
        result = run_montecarlo(toy_scenario(runs=2), out_dir=tmp_path)
        with open(tmp_path / "timing.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(float(r["wall_ms"]) >= float(r["se_ms"]) > 0.0 for r in rows)
        assert [r.wall_ms for r in result.records] == [
            float(r["wall_ms"]) for r in rows if r["iteration"] == "1"]

    def test_workers_write_identical_artifacts(self, tmp_path, monkeypatch):
        # two worker processes, each with its own copy of the grid and what
        # it has compiled, write the bytes of one process
        sc = Scenario(grid=str(data.path(data.CASE33_HYBRID)), method="drse", runs=4,
                      seed=20240, base_profile=str(data.path(data.CASE33_HYBRID_LOADS)),
                      test_days=5, bad_data_case=2)
        outs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("HYBRIDSE_WORKERS", workers)
            outs.append(tmp_path / workers)
            result = run_montecarlo(sc, out_dir=outs[-1])
        for name in ("runs.csv", "aggregate.csv", "trace_boundary.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # the packet trace travels back as one float array per run
        n_conv = 2
        for rec in result.records:
            assert not rec.error
            assert rec.trace.dtype == float
            assert rec.trace.shape == (2 * n_conv * rec.iterations, 7)

    def test_workers_from_a_grid_with_filled_tables(self, tmp_path, monkeypatch):
        # the grid reaches the workers after a run in this process filled its
        # per-grid reading and injection tables, and through pickling; they
        # write the bytes of one process that started with empty tables
        import pickle
        sc = Scenario(grid=str(data.path(data.CASE33_HYBRID)), method="drse_pseudo", runs=4,
                      seed=20240, base_profile=str(data.path(data.CASE33_HYBRID_LOADS)),
                      test_days=5, bad_data_case=2)
        monkeypatch.setenv("HYBRIDSE_WORKERS", "1")
        run_montecarlo(sc, out_dir=tmp_path / "1")
        real = montecarlo.prepare_context

        def filled(scenario, model_path=None):
            ctx = real(scenario, model_path=model_path)
            montecarlo.run_single(ctx, 0)
            assert {"reading_regions", "injection_spots"} <= ctx.grid._memo.keys()
            ctx.grid = pickle.loads(pickle.dumps(ctx.grid))
            return ctx

        monkeypatch.setattr(montecarlo, "prepare_context", filled)
        monkeypatch.setenv("HYBRIDSE_WORKERS", "2")
        run_montecarlo(sc, out_dir=tmp_path / "2")
        for name in ("runs.csv", "aggregate.csv", "trace_boundary.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @staticmethod
    def _failing(monkeypatch, fail):
        """``run_estimator`` raising UnobservableError on the runs in ``fail``
        (runs go in order in one process)."""
        real, calls = montecarlo.run_estimator, []

        def estimator(*args):
            calls.append(None)
            if len(calls) - 1 in fail:
                raise UnobservableError(50, 51, scope="region:0")
            return real(*args)

        monkeypatch.delenv("HYBRIDSE_WORKERS", raising=False)
        monkeypatch.setattr(montecarlo, "run_estimator", estimator)

    def test_failed_run_end_to_end(self, tmp_path, monkeypatch):
        # one failure in ten runs stays below the 10% abort
        self._failing(monkeypatch, {3})
        result = run_montecarlo(toy_scenario(runs=10), out_dir=tmp_path)
        rec = result.records[3]
        error = "UnobservableError: unobservable in region:0: weighted Jacobian rank 50 < 51"
        assert rec.error == error
        assert rec.metrics is None and rec.iterations == 0 and not rec.converged
        assert rec.timing.shape == (0, 3) and rec.trace.shape == (0, 7)
        assert [r.run for r in result.ok_records] == [0, 1, 2, 4, 5, 6, 7, 8, 9]

        lines = (tmp_path / "runs.csv").read_text().splitlines()
        assert len(lines) == 11
        assert lines[4] == f"3,{rec.seed},{rec.tick}," + "," * 8 + f"0,0,0.0,,,{error}"
        with open(tmp_path / "timing.csv", newline="") as f:
            rows = [r for r in csv.DictReader(f) if r["run"] == "3"]
        assert rows == [{"run": "3", "iteration": "1", "t_total_ms": "0.0",
                         "t_algebra_ms": "0.0", "t_region_max_ms": "0.0", "se_ms": "0.0",
                         "wall_ms": "0.0", "inj_ms": repr(rec.inj_ms),
                         "total_ms": repr(rec.total_ms)}]
        assert rec.total_ms > 0.0
        trace = (tmp_path / "trace_boundary.csv").read_text().splitlines()[1:]
        assert trace and not [ln for ln in trace if ln.split(",")[0] == "3"]

    def test_too_many_failed_runs_abort(self, monkeypatch):
        self._failing(monkeypatch, {4, 7})
        with pytest.raises(RuntimeError, match=r"^2 of 10 runs failed; first: "
                           r"UnobservableError: unobservable in region:0: "):
            run_montecarlo(toy_scenario(runs=10))

    def test_per_run_seed_derivation(self):
        sc = toy_scenario(runs=3)
        result = run_montecarlo(sc)
        assert [r.seed for r in result.records] == [4242, 4243, 4244]

    def test_corrupt_dominant_counts_lnr_rejection(self):
        # LNR drops the doubled converter reading before the final residuals
        # are taken; the rejection itself is what makes it dominant
        sc = Scenario(grid=str(data.path(data.CASE33_HYBRID)), method="cwls", runs=3,
                      seed=20240, base_profile=str(data.path(data.CASE33_HYBRID_LOADS)),
                      test_days=5, bad_data_case=2)
        result = run_montecarlo(sc)
        for rec in result.records:
            assert not rec.error
            assert rec.corrupt_dominant is True


class TestCli:
    def test_pf_and_simulate_and_estimate(self, tmp_path):
        grid = str(data.path(data.CASE33_HYBRID))
        loads = str(data.path(data.CASE33_HYBRID_LOADS))
        state = tmp_path / "state.csv"
        assert main(["pf", "--grid", grid, "--injections", loads,
                     "--out", str(state)]) == 0
        assert state.exists()

        meas = tmp_path / "meas.csv"
        assert main(["simulate", "--grid", grid, "--injections", loads,
                     "--t", "3600", "--seed", "3",
                     "--scada-lines", "1-2,2-19,3-23,6-26",
                     "--out", str(meas)]) == 0

        est = tmp_path / "est.csv"
        assert main(["estimate", "--method", "drse", "--grid", grid,
                     "--meas", str(meas), "--out", str(est)]) == 0
        rows = est.read_text().strip().splitlines()
        assert rows[0] == "node_id,V,theta"
        assert len(rows) == 38   # 37 nodes + header

    def test_pf_prints_the_audits(self, capsys):
        # the solve returns no audit; the command runs both on its result
        assert main(["pf", "--grid", str(data.path(data.CASE33_HYBRID)),
                     "--injections", str(data.path(data.CASE33_HYBRID_LOADS))]) == 0
        out = capsys.readouterr().out
        audit = re.search(r"mismatch audit (\S+) p\.u\.", out)
        residual = re.search(r"conservation residual (\S+) p\.u\.", out)
        assert audit and float(audit.group(1)) <= 1e-8
        assert residual and abs(float(residual.group(1))) <= 1e-6

    def test_unknown_method_usage_exit(self, tmp_path):
        assert main(["estimate", "--method", "bogus", "--grid", "g", "--meas", "m",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_missing_grid_validation_exit(self, tmp_path):
        assert main(["pf", "--grid", str(tmp_path / "none.json"),
                     "--injections", str(tmp_path / "none.csv")]) == 2

    def test_profile_missing_column_validation_exit(self, tmp_path, capsys):
        bad = tmp_path / "loads.csv"
        bad.write_text("node,P,Q\n2,-0.3,-0.1\n")
        assert main(["pf", "--grid", str(data.path(data.TOY5_HYBRID)),
                     "--injections", str(bad)]) == 2
        assert "node_id" in capsys.readouterr().err

    def test_profile_unknown_node_validation_exit(self, tmp_path, capsys):
        bad = tmp_path / "loads.csv"
        bad.write_text("node_id,P,Q\n99,-0.1,0.0\n")
        assert main(["pf", "--grid", str(data.path(data.TOY5_HYBRID)),
                     "--injections", str(bad)]) == 2
        assert "node 99" in capsys.readouterr().err

    def test_measurements_missing_column_validation_exit(self, tmp_path, capsys):
        bad = tmp_path / "meas.csv"
        bad.write_text("kind,loc\nac_v_mag,1\n")
        assert main(["estimate", "--method", "drse",
                     "--grid", str(data.path(data.TOY5_HYBRID)), "--meas", str(bad),
                     "--out", str(tmp_path / "est.csv")]) == 2
        assert "location" in capsys.readouterr().err

    def test_nonpositive_sigma_validation_exit(self, tmp_path, capsys):
        # a reading's sigma must be positive and finite; an exact zero
        # injection carries none
        meas = tmp_path / "meas.csv"
        for sigma in ("0.0", "-0.01", "nan", "inf"):
            meas.write_text(MeasurementSet.CSV_HEADER + "\n"
                            "zero_p_inj,2,,0.0,0.0,virtual_zero,3600.0\n"
                            f"ac_v_mag,1,,1.0,{sigma},scada,3600.0\n")
            assert main(["estimate", "--method", "drse",
                         "--grid", str(data.path(data.TOY5_HYBRID)), "--meas", str(meas),
                         "--out", str(tmp_path / "est.csv")]) == 2
            assert f"has sigma {sigma}" in capsys.readouterr().err

    def test_negative_lambda0_validation_exit(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        meas.write_text(MeasurementSet.CSV_HEADER + "\n")
        assert main(["estimate", "--method", "drse", "--lambda0", "-1",
                     "--grid", str(data.path(data.TOY5_HYBRID)), "--meas", str(meas),
                     "--out", str(tmp_path / "est.csv")]) == 2
        assert "lambda0" in capsys.readouterr().err

    def test_zero_sigma_floor_validation_exit(self, tmp_path, capsys):
        import json
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "grid": str(data.path(data.TOY5_HYBRID)), "method": "cwls", "runs": 1, "seed": 1,
            "base_profile": str(data.path(data.TOY5_HYBRID_LOADS)),
            "schedule": {"sigma_floor": 0.0}}))
        assert main(["benchmark", "--scenario", str(scenario), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "sigma_floor" in capsys.readouterr().err

    def test_unknown_schedule_key_validation_exit(self, tmp_path, capsys):
        import json
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "grid": str(data.path(data.TOY5_HYBRID)), "method": "cwls", "runs": 1, "seed": 1,
            "base_profile": str(data.path(data.TOY5_HYBRID_LOADS)),
            "schedule": {"scada_lines": [[1, 2]]}}))
        assert main(["benchmark", "--scenario", str(scenario), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "scada_lines" in capsys.readouterr().err

    def test_injection_model_missing_key_validation_exit(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        meas.write_text(MeasurementSet.CSV_HEADER + "\n")
        model = tmp_path / "model.json"
        model.write_text('{"version": 1}')
        assert main(["estimate", "--method", "drse_dnn",
                     "--grid", str(data.path(data.TOY5_HYBRID)), "--meas", str(meas),
                     "--model", str(model), "--out", str(tmp_path / "est.csv")]) == 2
        assert "gmm_means" in capsys.readouterr().err

    def test_divergence_numerical_exit(self, tmp_path):
        grid = str(data.path(data.TOY5_HYBRID))
        bad = tmp_path / "bad.csv"
        bad.write_text("node_id,P,Q\n5,-50.0,\n")
        assert main(["pf", "--grid", grid, "--injections", str(bad)]) == 3

    def test_train_then_estimate_dnn(self, tmp_path):
        grid = str(data.path(data.TOY5_HYBRID))
        loads = str(data.path(data.TOY5_HYBRID_LOADS))
        model = tmp_path / "model.json"
        assert main(["train", "--grid", grid, "--base", loads, "--days", "30",
                     "--trials", "120", "--epochs", "60", "--seed", "8",
                     "--out", str(model)]) == 0
        meas = tmp_path / "m.csv"
        assert main(["simulate", "--grid", grid, "--injections", loads,
                     "--t", "900", "--seed", "2", "--out", str(meas)]) == 0
        est = tmp_path / "est.csv"
        assert main(["estimate", "--method", "drse_dnn", "--grid", grid,
                     "--meas", str(meas), "--model", str(model),
                     "--out", str(est)]) == 0
        assert est.exists()

    def test_gen_profiles_cli(self, tmp_path):
        grid = str(data.path(data.TOY5_HYBRID))
        loads = str(data.path(data.TOY5_HYBRID_LOADS))
        out = tmp_path / "profiles.csv"
        assert main(["gen-profiles", "--grid", grid, "--base", loads,
                     "--days", "2", "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "node_id,tick,P,Q"
        assert len(lines) == 1 + 2 * 24 * 2   # two injection nodes, two days

    def test_benchmark_cli(self, tmp_path):
        import json
        doc = {"grid": str(data.path(data.TOY5_HYBRID)), "method": "drse",
               "runs": 2, "seed": 1,
               "base_profile": str(data.path(data.TOY5_HYBRID_LOADS)),
               "profile_days": 5, "test_days": 3}
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "res"
        assert main(["benchmark", "--scenario", str(scen), "--seed", "99",
                     "--out", str(out)]) == 0
        assert (out / "runs.csv").exists()
        assert (out / "aggregate.csv").exists()
