import hashlib
import math

import numpy as np
import pytest

from hybridse.injection import (GmmModel, ProfileParams, TrainingError,
                                build_training_set, fit_error_gmm,
                                fit_gmm, fit_injection_gmms, gen_load_profiles,
                                init_model, loss_and_grads, sample_injections,
                                scada_vector, train_injection_model, train_mlp)
from hybridse.injection import pipeline
from hybridse.injection.pipeline import _RHO
from hybridse.powerflow import PowerFlowError
from hybridse.telemetry import ScheduleConfig

import oracle
from oracle import (analytic_mean, fit_gmm_broadcast, profile_from_components,
                    sample_injections_per_node)

CASE33_SCHED = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))


class TestProfiles:
    def test_zero_noise_repeats_daily_shape(self, case33, case33_loads):
        params = ProfileParams(noise_amp=0.0, pf_jitter=0.0, solar_jitter=0.0,
                               solar_beta_lo=0.7, solar_beta_hi=0.7)
        prof = gen_load_profiles(case33, days=3, seed=1, base=case33_loads,
                                 params=params)
        series = prof.p[5]
        assert np.allclose(series[:24], series[24:48])
        assert np.allclose(series[:24], series[48:72])

    def test_deterministic(self, case33, case33_loads):
        a = gen_load_profiles(case33, days=2, seed=9, base=case33_loads)
        b = gen_load_profiles(case33, days=2, seed=9, base=case33_loads)
        for node in a.p:
            assert np.array_equal(a.p[node], b.p[node])

    def test_sample_mean_matches_analytic(self, case33, case33_loads):
        prof = gen_load_profiles(case33, days=365, seed=3, base=case33_loads)
        for node in (5, 9, 24):   # plain load, AC generation, DC generation
            series = prof.p[node].reshape(365, 24)
            for hour in (3, 12, 19):
                sample = series[:, hour]
                se = sample.std(ddof=1) / math.sqrt(series.shape[0])
                assert abs(sample.mean() - analytic_mean(prof, node, hour)) <= 3 * se

    def test_junctions_have_no_series(self, case33, case33_loads):
        prof = gen_load_profiles(case33, days=1, seed=1, base=case33_loads)
        for junction in (21, 28, 36, 37):
            assert junction not in prof.p

    def test_solar_flips_sign_midday(self, case33, case33_loads):
        params = ProfileParams(noise_amp=0.0, solar_beta_lo=1.0, solar_beta_hi=1.0,
                               solar_jitter=0.0)
        prof = gen_load_profiles(case33, days=1, seed=1, base=case33_loads,
                                 params=params)
        assert prof.p[9][12] > 0.0      # generation at noon
        assert prof.p[9][0] < 0.0       # plain load at night


class TestGmm:
    def test_degenerate_input(self):
        model, trace = fit_gmm(np.full(50, 0.3), k=2, seed=0)
        assert np.allclose(model.means, 0.3, atol=1e-9)
        assert np.all(model.variances <= 1e-7)

    def test_recovers_two_cluster_mixture(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.2, 0.01, size=2500)
        b = rng.normal(0.8, 0.01, size=2500)
        samples = np.concatenate([a, b])
        model, _ = fit_gmm(samples, k=2, seed=1)
        means = sorted(model.means[:, 0])
        assert abs(means[0] - 0.2) < 0.005
        assert abs(means[1] - 0.8) < 0.005
        assert abs(model.weights[0] - 0.5) < 0.05

    def test_loglik_monotone(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            samples = rng.normal(rng.uniform(-1, 1), rng.uniform(0.05, 0.5),
                                 size=120)
            _, trace = fit_gmm(samples, k=int(rng.integers(1, 4)), seed=trial)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-9)

    def test_overall_variance_analytic(self):
        model = GmmModel(weights=np.array([0.5, 0.5]),
                         means=np.array([[-0.01], [0.01]]),
                         variances=np.array([[1e-8], [1e-8]]))
        # equal-mass symmetric components: variance = mu^2 + sigma^2
        assert model.overall_variance()[0] == pytest.approx(1e-4 + 1e-8, rel=1e-9)

    def test_coupled_sampling_preserves_marginals(self):
        # listed out of rank order: the low component is the second
        model = GmmModel(weights=np.array([0.7, 0.3]),
                         means=np.array([[1.0], [0.0]]),
                         variances=np.array([[0.01], [0.01]]))
        rng = np.random.default_rng(8)
        draws = []
        for _ in range(4000):
            means, stds = model.component(rng.uniform())
            eps = 0.8 * rng.standard_normal() + 0.6 * rng.standard_normal()
            draws.append(means[0] + stds[0] * eps)
        draws = np.array(draws)
        low = (draws < 0.5).mean()
        assert abs(low - 0.3) < 0.03
        assert abs(draws.mean() - 0.7) < 0.02


class TestBroadcastReference:
    """``fit_gmm`` and ``sample_injections`` give the bits of the tests'
    broadcast EM and node-by-node draw (``tests/oracle.py``)."""

    @pytest.fixture(scope="class")
    def history(self, case33, case33_loads):
        # the benchmark's profile history: 365 days, seed 1000
        return gen_load_profiles(case33, days=365, seed=1000, base=case33_loads)

    @staticmethod
    def assert_same_fit(samples, k, seed):
        (model, trace), (ref, ref_trace) = (fit_gmm(samples, k, seed=seed),
                                            fit_gmm_broadcast(samples, k, seed=seed))
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(model, name), getattr(ref, name)), name
        assert trace == ref_trace
        return trace

    def test_profile_node_2d(self, history):
        samples = np.column_stack([history.p[5], history.q[5]])
        self.assert_same_fit(samples, 2, seed=1000 + 5)

    def test_dc_node_at_iteration_cap(self, history):
        trace = self.assert_same_fit(history.p[25], 2, seed=1000 + 25)
        assert len(trace) == 500

    @pytest.mark.parametrize("k, dim, n", [(1, 2, 300), (3, 1, 400), (3, 2, 600)])
    def test_random_fit(self, k, dim, n):
        rng = np.random.default_rng(100 * k + dim)
        centres = rng.uniform(-1.0, 1.0, size=(k, dim))
        samples = centres[rng.integers(k, size=n)] + rng.normal(0.0, 0.2, size=(n, dim))
        self.assert_same_fit(samples, k, seed=k)

    def test_degenerate_input(self):
        self.assert_same_fit(np.full(50, 0.3), 2, seed=0)

    def test_error_mixture_size(self):
        rng = np.random.default_rng(250)
        self.assert_same_fit(rng.standard_t(3, size=250) * 1e-3, 2, seed=3)

    def test_scenario_draws(self, case33, history):
        gmms = fit_injection_gmms(case33, history, seed=0)
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(40):
            prof = sample_injections(case33, gmms, rng)
            ref = sample_injections_per_node(case33, gmms, ref_rng, _RHO)
            assert prof.p == ref.p and prof.q == ref.q
        assert rng.uniform() == ref_rng.uniform()


class TestTrainedModelDigest:
    """The bits of a reduced offline stage, pinned by the sha256 of the saved
    model: mixtures, network weights, error sigmas and holdout loss."""

    DIGEST = "baa3b8a2db0887c39732aeb02062e698d412edd68d7fba6167eaa2262aa7c24a"

    def test_case33_30_days(self, case33, case33_loads, tmp_path):
        profiles = gen_load_profiles(case33, days=30, seed=100, base=case33_loads)
        model, _ = train_injection_model(case33, profiles, CASE33_SCHED, n_trials=200,
                                         epochs=20, seed=42)
        path = tmp_path / "model.json"
        model.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGEST


class TestTrainingSet:
    def test_single_trial_zero_noise(self, case33, case33_loads):
        sched = ScheduleConfig(scada_ac_branches=CASE33_SCHED.scada_ac_branches,
                               scada_vmag_pct=0.0, scada_power_pct=0.0,
                               smart_meter_pct=0.0)
        profiles = gen_load_profiles(case33, days=30, seed=2, base=case33_loads)
        gmms = fit_injection_gmms(case33, profiles, seed=0)
        ts = build_training_set(case33, gmms, n_trials=1, schedule=sched, seed=5)
        # z must equal the exact SCADA readings of the sampled scenario
        from hybridse.powerflow import solve_powerflow
        from hybridse.telemetry import simulate_measurements
        prof = profile_from_components(ts.components, ts.y[0])
        res = solve_powerflow(case33, prof)
        ms = simulate_measurements(case33, res.state, sched, t=900.0, seed=0)
        assert np.allclose(ts.z[0], scada_vector(ms, ts.channels), atol=1e-12)

    def test_deterministic(self, case33, case33_loads):
        profiles = gen_load_profiles(case33, days=30, seed=2, base=case33_loads)
        gmms = fit_injection_gmms(case33, profiles, seed=0)
        t1 = build_training_set(case33, gmms, 20, CASE33_SCHED, seed=7)
        t2 = build_training_set(case33, gmms, 20, CASE33_SCHED, seed=7)
        assert np.array_equal(t1.z, t2.z)
        assert np.array_equal(t1.y, t2.y)

    def test_low_drop_rate(self, case33, case33_loads):
        profiles = gen_load_profiles(case33, days=60, seed=2, base=case33_loads)
        gmms = fit_injection_gmms(case33, profiles, seed=0)
        ts = build_training_set(case33, gmms, 400, CASE33_SCHED, seed=13)
        assert ts.dropped / 400 < 0.01


def _swollen(grid, loads, factor):
    """case33's mixtures with their means and spreads scaled by ``factor``,
    so that some scenarios leave the feasible region."""
    gmms = fit_injection_gmms(grid, gen_load_profiles(grid, days=5, seed=31, base=loads),
                              seed=31)
    return {n: GmmModel(g.weights, g.means * factor, g.variances * factor * factor)
            for n, g in gmms.items()}


class TestTrainingSetBlocks:
    """The trials run a block at a time through one stacked power flow; z, y
    and the dropped count are those of the trial-by-trial loop, bit for bit,
    also where trials diverge and the generator is set back."""

    def test_normal_is_zero_plus_scaled_standard_normal(self):
        # the premise of drawing the noise before the flow is solved
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            sigma = np.abs(a.normal(size=40)) * 0.01 + 1e-4
            b.normal(size=40)
            assert (a.normal(0.0, sigma).tobytes()
                    == (0.0 + sigma * b.standard_normal(40)).tobytes())
            assert a.random() == b.random()

    @pytest.mark.parametrize("factor, block, dropped", [
        (1.0, 7, 0), (5.0, 7, 6), (5.0, 32, 6), (5.5, 1, 12), (5.5, 13, 12)])
    def test_matches_the_trial_by_trial_loop(self, case33, case33_loads, monkeypatch,
                                             factor, block, dropped):
        gmms = _swollen(case33, case33_loads, factor)
        monkeypatch.setattr(pipeline, "_BLOCK", block)
        ts = build_training_set(case33, gmms, 60, CASE33_SCHED, seed=3)
        z, y, ref_dropped = oracle.build_training_set(case33, gmms, 60, CASE33_SCHED, seed=3)
        assert ts.dropped == ref_dropped == dropped
        assert ts.z.tobytes() == z.tobytes() and ts.y.tobytes() == y.tobytes()
        assert ts.z.shape == (60 - dropped, len(ts.channels))

    def test_abort_fires_at_the_same_trial(self, case33, case33_loads, monkeypatch):
        gmms = _swollen(case33, case33_loads, 6.0)
        drawn = []
        sample = oracle.sample_injections
        monkeypatch.setattr(oracle, "sample_injections",
                            lambda *args: drawn.append(sample(*args)) or drawn[-1])
        with pytest.raises(RuntimeError) as expected:
            oracle.build_training_set(case33, gmms, 60, CASE33_SCHED, seed=3)

        # the trials the block path reads: each block up to its first failure
        read = []
        solve = pipeline.solve_powerflows

        def spy(grid, profiles):
            results = solve(grid, profiles)
            for prof, res in zip(profiles, results):
                read.append(prof)
                if isinstance(res, PowerFlowError):
                    break
            return results

        monkeypatch.setattr(pipeline, "solve_powerflows", spy)
        monkeypatch.setattr(pipeline, "_BLOCK", 7)
        with pytest.raises(RuntimeError) as got:
            build_training_set(case33, gmms, 60, CASE33_SCHED, seed=3)
        assert str(got.value) == str(expected.value) == (
            "13 of 60 trials diverged; injection mixtures are inconsistent with grid capacity")
        assert read == drawn


class TestMlp:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(800, 1))
        y = 2.0 * x + 1.0
        model, report = train_mlp(x, y, hidden=[8], epochs=200, seed=1)
        assert math.sqrt(report.holdout_loss) < 1e-2

    def test_zero_epochs_predicts_mean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 3))
        y = rng.normal(2.0, 0.5, size=(100, 2))
        model, _ = train_mlp(x, y, hidden=[16], epochs=0, seed=3)
        pred = model.predict(rng.normal(size=(10, 3)))
        assert np.allclose(pred, model.y_mean, atol=1e-12)

    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        model = init_model(2, [2], 1, rng)
        # give the zeroed output layer structure so gradients flow
        model.weights[-1] = rng.normal(size=model.weights[-1].shape)
        for _ in range(5):
            x = rng.normal(size=(3, 2))
            y = rng.normal(size=(3, 1))
            loss, gw, gb = loss_and_grads(model, x, y)
            eps = 1e-6
            for layer in range(len(model.weights)):
                w = model.weights[layer]
                idx = (int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1])))
                w[idx] += eps
                up, _, _ = loss_and_grads(model, x, y)
                w[idx] -= 2 * eps
                dn, _, _ = loss_and_grads(model, x, y)
                w[idx] += eps
                fd = (up - dn) / (2 * eps)
                assert gw[layer][idx] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_deterministic_training(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 2))
        y = x @ np.array([[1.0], [-0.5]])
        m1, _ = train_mlp(x, y, hidden=[8], epochs=50, seed=7)
        m2, _ = train_mlp(x, y, hidden=[8], epochs=50, seed=7)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_flat_buffers_match_the_per_layer_loop(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 5))
        y = np.tanh(x @ rng.normal(size=(5, 3)))
        model, _ = train_mlp(x, y, hidden=[8, 8], epochs=20, seed=4)
        ref = oracle.train_mlp_per_layer(x, y, hidden=[8, 8], epochs=20, seed=4)
        for got, want in zip(model.weights + model.biases, ref.weights + ref.biases):
            assert got.tobytes() == want.tobytes()

    def test_gradients_match_per_layer_arrays(self):
        rng = np.random.default_rng(12)
        model = init_model(4, [6, 5], 2, rng)
        model.weights[-1] = rng.normal(size=model.weights[-1].shape)
        x, y = rng.normal(size=(9, 4)), rng.normal(size=(9, 2))
        _, gw, gb = loss_and_grads(model, x, y)
        ref_w, ref_b = oracle.layer_grads(model, x, y)
        for got, want in zip(gw + gb, ref_w + ref_b):
            assert got.tobytes() == want.tobytes()

    def test_nonfinite_loss_reported(self):
        x = np.array([[1.0], [2.0]])
        y = np.array([[1.0], [2.0]])
        with pytest.raises(TrainingError, match="epoch"):
            train_mlp(x, y, hidden=[4], epochs=50, lr=1e9, seed=0, holdout=0.0)


class TestErrorGmm:
    def test_zero_residuals_floor(self):
        sigma = fit_error_gmm(np.zeros((100, 1)), ["p:1"])
        assert sigma["p:1"] == 1e-4

    def test_known_normal(self):
        rng = np.random.default_rng(9)
        r = rng.normal(0.0, 0.005, size=(2000, 1))
        sigma = fit_error_gmm(r, ["p:1"])
        assert abs(sigma["p:1"] - 0.005) / 0.005 < 0.10

    def test_bimodal(self):
        rng = np.random.default_rng(10)
        half = rng.normal(0.01, 1e-4, size=1000)
        other = rng.normal(-0.01, 1e-4, size=1000)
        r = np.concatenate([half, other])[:, None]
        sigma = fit_error_gmm(r, ["p:1"])
        assert sigma["p:1"] == pytest.approx(0.01, rel=0.05)
