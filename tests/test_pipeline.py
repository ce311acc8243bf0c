"""End-to-end behaviour of the injection pipeline on the small hybrid toy."""

import numpy as np
import pytest

from hybridse.injection import (InjectionModel, gen_load_profiles,
                                generated_measurements, infer_injections,
                                prior_measurements, pseudo_measurements,
                                sanitize_scada, train_injection_model)
from hybridse.powerflow import solve_powerflow
from hybridse.telemetry import (MeasurementKind, ScheduleConfig,
                                inject_bad_data, simulate_measurements)


@pytest.fixture(scope="module")
def toy_model(toy5, toy5_loads):
    profiles = gen_load_profiles(toy5, days=90, seed=5, base=toy5_loads)
    model, report = train_injection_model(toy5, profiles, ScheduleConfig(),
                                          n_trials=300, epochs=120, seed=3)
    return model


def toy_measurements(toy5, toy5_loads, seed=1, t=900.0):
    res = solve_powerflow(toy5, toy5_loads)
    return res, simulate_measurements(toy5, res.state, ScheduleConfig(), t=t,
                                      seed=seed)


class TestPseudo:
    def test_values_track_truth_with_stated_sigma(self, toy5, toy5_loads):
        rng = np.random.default_rng(0)
        draws = []
        for _ in range(500):
            rows = pseudo_measurements(toy5, toy5_loads, t=900.0, pct=0.30, rng=rng)
            row = next(r for r in rows if r.location == (2,)
                       and r.kind is MeasurementKind.AC_P_INJ)
            draws.append(row.value)
        truth = toy5_loads.p[2]
        sigma = 0.30 * abs(truth)
        draws = np.array(draws)
        assert abs(draws.mean() - truth) < 5 * sigma / np.sqrt(500)
        assert abs(draws.std() - sigma) / sigma < 0.15
        assert row.sigma == pytest.approx(sigma)
        assert row.source == "pseudo"

    def test_prior_rows_are_mixture_means(self, toy5, toy_model):
        rows = prior_measurements(toy_model, toy5, t=0.0, pct=0.30)
        by_key = {f"{'p' if r.kind is not MeasurementKind.AC_Q_INJ else 'q'}:"
                  f"{r.location[0]}": r for r in rows}
        for key, row in by_key.items():
            assert row.value == pytest.approx(toy_model.gmm_means[key])


class TestModelArtifact:
    def test_save_load_roundtrip(self, tmp_path, toy_model):
        path = tmp_path / "model.json"
        toy_model.save(path)
        again = InjectionModel.load(path)
        assert again.channels == toy_model.channels
        assert again.components == toy_model.components
        assert again.error_sigma == toy_model.error_sigma
        z = np.ones(len(toy_model.channels))
        assert np.array_equal(again.mlp.predict(z[None, :]),
                              toy_model.mlp.predict(z[None, :]))

    def test_file_with_saved_mixtures_loads(self, tmp_path, toy_model):
        # files written before the mixtures left the model keep them under
        # "gmms"; the key is ignored
        import json
        path = tmp_path / "model.json"
        toy_model.save(path)
        doc = json.loads(path.read_text())
        assert "gmms" not in doc
        doc["gmms"] = {"2": {"weights": [1.0], "means": [[-0.1, -0.02]],
                             "variances": [[1e-4, 1e-4]]}}
        path.write_text(json.dumps(doc))
        again = InjectionModel.load(path)
        assert again.gmm_means == toy_model.gmm_means
        assert again.error_sigma == toy_model.error_sigma

    def test_reloaded_model_screens_like_the_trained_one(self, tmp_path, toy5,
                                                          toy5_loads, toy_model):
        # the file keeps the trained key order, so the reloaded model emits
        # the same prior rows in the same order and screens bit for bit alike
        path = tmp_path / "model.json"
        toy_model.save(path)
        again = InjectionModel.load(path)

        def rows(values):
            return ([(r.kind, r.location, r.source) for r in values],
                    np.array([(r.value, r.sigma) for r in values]).tobytes())

        assert rows(prior_measurements(again, toy5, t=0.0)) == \
            rows(prior_measurements(toy_model, toy5, t=0.0))
        _, ms = toy_measurements(toy5, toy5_loads)
        for screened in (ms, inject_bad_data(ms, 2, target=0)):
            assert rows(sanitize_scada(toy5, screened, again).measurements) == \
                rows(sanitize_scada(toy5, screened, toy_model).measurements)
            assert rows(generated_measurements(again, screened, toy5, t=900.0)) == \
                rows(generated_measurements(toy_model, screened, toy5, t=900.0))

    def test_inference_deterministic_and_dimension_checked(self, toy_model):
        z = np.linspace(0.9, 1.1, len(toy_model.channels))
        a = infer_injections(toy_model, z)
        b = infer_injections(toy_model, z)
        assert a == b
        with pytest.raises(ValueError, match="channels"):
            infer_injections(toy_model, z[:-1])

    def test_mean_input_predicts_near_mean_output(self, toy_model):
        z_mean = toy_model.mlp.x_mean
        pred = toy_model.mlp.predict(z_mean[None, :])[0]
        spread = np.maximum(toy_model.mlp.y_std, 1e-9)
        assert np.all(np.abs(pred - toy_model.mlp.y_mean) <= 0.5 * spread)


class TestGeneratedRows:
    def test_rows_cover_all_injection_nodes(self, toy5, toy5_loads, toy_model):
        _, ms = toy_measurements(toy5, toy5_loads)
        rows = generated_measurements(toy_model, ms, toy5, t=900.0)
        keys = {(r.kind, r.location) for r in rows}
        assert (MeasurementKind.AC_P_INJ, (2,)) in keys
        assert (MeasurementKind.AC_Q_INJ, (2,)) in keys
        assert (MeasurementKind.DC_P_INJ, (5,)) in keys
        assert all(r.source == "dnn" and r.sigma > 0 for r in rows)

    def test_predictions_close_to_truth(self, toy5, toy5_loads, toy_model):
        res, ms = toy_measurements(toy5, toy5_loads)
        rows = generated_measurements(toy_model, ms, toy5, t=900.0)
        for r in rows:
            truth = (toy5_loads.p if r.kind is not MeasurementKind.AC_Q_INJ
                     else toy5_loads.q)[r.location[0]]
            assert abs(r.value - truth) < 0.1 * abs(truth) + 0.01


class TestSanitizer:
    def test_clean_input_untouched(self, toy5, toy5_loads, toy_model):
        _, ms = toy_measurements(toy5, toy5_loads)
        fixed = sanitize_scada(toy5, ms, toy_model)
        assert fixed.measurements == ms.measurements

    def test_corrupted_channel_replaced(self, toy5, toy5_loads, toy_model):
        _, ms = toy_measurements(toy5, toy5_loads)
        bad = inject_bad_data(ms, 2, target=0)
        (idx,) = bad.corrupt_indices
        fixed = sanitize_scada(toy5, bad, toy_model)
        original = ms.measurements[idx].value
        assert fixed.measurements[idx].value != bad.measurements[idx].value
        assert abs(fixed.measurements[idx].value - original) < 0.3 * abs(original)
        # untouched rows are passed through bit-identically
        for i, m in enumerate(fixed.measurements):
            if i != idx:
                assert m == bad.measurements[i]


    def test_prior_rows_built_once_per_model(self, toy5, toy5_loads, toy_model,
                                             monkeypatch):
        import dataclasses
        from hybridse.injection import pipeline
        built = []
        real = pipeline.prior_measurements

        def counted(model, *args, **kwargs):
            built.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(pipeline, "prior_measurements", counted)
        _, ms = toy_measurements(toy5, toy5_loads)
        first, second = (dataclasses.replace(toy_model) for _ in range(2))
        screened = [sanitize_scada(toy5, ms, model).measurements
                    for model in (first, second, first, second)]
        assert len(built) == 2 and built[0] is first and built[1] is second
        assert all(s == screened[0] for s in screened)


class TestScreenDigest:
    """The SCADA screen (``sanitize_scada``: ``lnr_substitute`` on the
    regional linear models) pinned bit for bit on case33.  The screen
    reads only ``gmm_means`` of the injection model, so a stub whose means
    are the base loads stands in for a trained one."""

    SCHED = ScheduleConfig(scada_ac_branches=((1, 2), (2, 19), (3, 23), (6, 26)))
    TICKS = range(0, 48, 4)         # 12 ticks of a 2-day profile
    CORRECTIONS = 21
    DIGEST = "801a3b6cd6d936b03f014b7aba05a44b045772c6205492c3268440159290ac6c"

    @staticmethod
    def _stub(case33, case33_loads):
        from types import SimpleNamespace
        from hybridse.injection import injection_components
        return SimpleNamespace(gmm_means={
            key: (case33_loads.p_at if key[0] == "p" else case33_loads.q_at)(
                int(key.split(":")[1]))
            for key in injection_components(case33)})

    def test_screened_values_digest(self, case33, case33_loads):
        import hashlib
        stub = self._stub(case33, case33_loads)
        profiles = gen_load_profiles(case33, days=2, seed=15, base=case33_loads)
        digest, screens, corrections = hashlib.sha256(), 0, 0
        for tick in self.TICKS:
            state = solve_powerflow(case33, profiles.at(tick)).state
            ms = simulate_measurements(case33, state, self.SCHED, t=900.0, seed=tick)
            for case in (1, 2, 3):
                bad = inject_bad_data(ms, case)
                fixed = sanitize_scada(case33, bad, stub)
                values = np.array([m.value for m in fixed])
                digest.update(values.tobytes())
                screens += 1
                corrections += int(np.count_nonzero(
                    values != np.array([m.value for m in bad])))
        assert screens == 36
        assert (corrections, digest.hexdigest()) == (self.CORRECTIONS, self.DIGEST)

    def test_v_magnitude_corrected_through_u(self, case33, case33_loads, monkeypatch):
        # the screen substitutes U = V^2 in the linear model and maps it back:
        # V x 1.1 is corrected to the square root of the substituted U, within
        # one sigma of the truth; V x 1.05 is kept
        import dataclasses
        import math
        from hybridse.injection import pipeline
        from hybridse.telemetry import MeasurementSet
        stub = self._stub(case33, case33_loads)
        truth = solve_powerflow(case33, case33_loads).state
        substituted = {}
        real = pipeline.lnr_substitute

        def spy(model, threshold):
            out = real(model, threshold)
            substituted.update(out)
            return out

        monkeypatch.setattr(pipeline, "lnr_substitute", spy)
        for seed in range(3):
            ms = simulate_measurements(case33, truth, self.SCHED, t=900.0, seed=seed)
            vmag = [i for i, m in enumerate(ms) if m.kind is MeasurementKind.AC_V_MAG]
            assert sorted(ms[i].location[0] for i in vmag) == [1, 34, 35]
            for i in vmag:
                m = ms[i]
                for factor in (1.1, 1.05):
                    bad = list(ms.measurements)
                    bad[i] = dataclasses.replace(m, value=m.value * factor)
                    substituted.clear()
                    fixed = sanitize_scada(case33, MeasurementSet(bad), stub)
                    if factor == 1.05:
                        assert not substituted and fixed.measurements == bad
                        continue
                    assert list(substituted) == [i]
                    assert fixed[i].value == math.sqrt(substituted[i])
                    assert abs(fixed[i].value - truth.v[m.location[0]]) <= m.sigma


class TestInjectionSpots:
    """``_injection_rows`` keeps each component key's (kind, location) per
    grid; its rows are the ones built key by key, from a filled table too."""

    @pytest.mark.parametrize("grid_name", ["case33", "toy5_formed"])
    def test_rows_built_key_by_key(self, grid_name, request):
        from hybridse.grid import AC
        from hybridse.injection.pipeline import _injection_rows, injection_components
        from hybridse.telemetry import Measurement
        grid = request.getfixturevalue(grid_name)
        keys = injection_components(grid)
        values = {k: 0.01 * (i + 1) for i, k in enumerate(keys)}
        sigmas = {k: 0.001 * (i + 1) for i, k in enumerate(keys)}
        want = []
        for key in keys:
            tag, node = key.split(":")
            node = int(node)
            kind = (MeasurementKind.AC_Q_INJ if tag == "q" else
                    MeasurementKind.AC_P_INJ if grid.node(node).kind == AC else
                    MeasurementKind.DC_P_INJ)
            want.append(Measurement(kind=kind, location=(node,), direction="",
                                    value=values[key], sigma=sigmas[key], source="pseudo",
                                    timestamp=900.0))
        assert {m.kind for m in want} >= {MeasurementKind.AC_P_INJ, MeasurementKind.AC_Q_INJ,
                                          MeasurementKind.DC_P_INJ}
        for _ in range(2):
            assert _injection_rows(grid, values, sigmas, "pseudo", 900.0) == want
        reversed_keys = dict(reversed(values.items()))
        assert _injection_rows(grid, reversed_keys, sigmas, "pseudo", 900.0) == want[::-1]
