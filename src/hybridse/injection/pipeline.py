"""Offline learning and online generation of nodal power injections.

Offline: per-node mixtures are fit on smart-meter history; Monte-Carlo trials
sample injection scenarios from those mixtures (with a shared regime quantile
and common factor so cross-node structure survives), run the power flow, and
read noisy SCADA vectors, producing (z, y) training pairs; a feedforward
network is fit by empirical risk minimization; the holdout prediction errors
get their own per-component mixtures whose standard deviations become the
measurement weights of generated injections.  The trials run a block at a
time through one stacked power flow, with the bits and the random stream of
running them one at a time (``build_training_set``).

Online: the trained network maps the current SCADA vector to a full injection
vector at the SCADA rate.  Gross errors in the SCADA input are screened first:
one QR factor of each region's linear model with mixture-mean priors, and
each flagged reading is substituted with the value the other rows predict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# lnr_test and solve_powerflow are not called here; they stay importable as
# perfbench's trace targets
from ..estimation import lnr_substitute, lnr_test  # noqa: F401
from ..grid import AC, GridModel
from ..powerflow import (InjectionProfile, PowerFlowError,  # noqa: F401
                         solve_powerflow, solve_powerflows)
from ..telemetry import (Measurement, MeasurementKind, MeasurementSet,
                         ScheduleConfig, SOURCE_DNN, SOURCE_PSEUDO, SOURCE_SCADA,
                         build_region_H, synthesis_plan)
from .gmm import GmmModel, fit_gmm
from .mlp import MlpModel, TrainReport, train_mlp
from .profiles import LoadProfiles

SIGMA_FLOOR = 1e-4
_GMM_K = 2                  # mixture components per injection node
_RHO = 0.8                  # weight of the shared factor in a sampled scenario
_BLOCK = 16                 # Monte-Carlo trials solved as one stacked power flow


# -- canonical SCADA channel ordering -------------------------------------------


def scada_channels(grid: GridModel, schedule: ScheduleConfig) -> list[str]:
    """Channel keys of the SCADA readings, in the order telemetry synthesis
    emits them."""
    keys = synthesis_plan(grid, schedule, schedule.scada_period).keys
    return [_channel_of(kind, loc, d) for kind, loc, d, src in keys if src == SOURCE_SCADA]


def _channel_of(k: MeasurementKind, location: tuple, direction: str) -> str | None:
    """The SCADA channel of a reading's (kind, location, direction)."""
    if k is MeasurementKind.AC_V_MAG:
        return f"vmag_ac:{location[0]}"
    if k is MeasurementKind.DC_V_MAG:
        return f"vmag_dc:{location[0]}"
    if k is MeasurementKind.AC_P_FLOW:
        return f"pflow_ac:{location[0]}-{location[1]}"
    if k is MeasurementKind.AC_Q_FLOW:
        return f"qflow_ac:{location[0]}-{location[1]}"
    if k is MeasurementKind.DC_P_FLOW:
        return f"pflow_dc:{location[0]}-{location[1]}"
    if k is MeasurementKind.CONV_P and direction == "ac":
        return f"convp:{location[0]}"
    if k is MeasurementKind.CONV_Q and direction == "ac":
        return f"convq:{location[0]}"
    return None


def scada_vector(ms: MeasurementSet, channels: list[str]) -> np.ndarray:
    found = {_channel_of(m.kind, m.location, m.direction): m.value
             for m in ms if m.source == SOURCE_SCADA}
    missing = [c for c in channels if c not in found]
    if missing:
        raise ValueError(f"SCADA channels missing from the set: {missing}")
    return np.array([found[c] for c in channels])


def injection_components(grid: GridModel) -> list[str]:
    """Component keys of the injection vector: p (and q for AC) per node."""
    keys = []
    for node in grid.injection_nodes():
        keys.append(f"p:{node.id}")
        if node.kind == AC:
            keys.append(f"q:{node.id}")
    return keys


# -- training set ----------------------------------------------------------------


@dataclass
class TrainingSet:
    z: np.ndarray
    y: np.ndarray
    channels: list[str]
    components: list[str]
    dropped: int = 0


def fit_injection_gmms(grid: GridModel, profiles: LoadProfiles,
                       seed: int = 0) -> dict[int, GmmModel]:
    """Per-node mixtures over (P, Q) history for AC nodes, P for DC nodes."""
    gmms: dict[int, GmmModel] = {}
    for node in grid.injection_nodes():
        p = profiles.p[node.id]
        if node.id in profiles.q:
            samples = np.column_stack([p, profiles.q[node.id]])
        else:
            samples = p
        gmms[node.id], _ = fit_gmm(samples, k=_GMM_K, seed=seed + node.id)
    return gmms


def sample_injections(grid: GridModel, gmms: dict[int, GmmModel],
                      rng: np.random.Generator) -> InjectionProfile:
    """One joint scenario: marginals follow each node's mixture while a shared
    regime quantile and common factor couple the nodes, mirroring the common
    daily-shape structure the mixtures were learned from.

    The draws are, in order: the quantile, the shared factor per dimension
    (P, Q), and every node's own factors in one call, node by node (the
    stream that one call per node gives).  Each value is
    ``mean + std * (rho * shared + sqrt(1 - rho^2) * own)`` in float64."""
    u = float(rng.uniform())
    g = rng.standard_normal(2).tolist()
    nodes = grid.injection_nodes()
    own = iter(rng.standard_normal(sum(gmms[n.id].dim for n in nodes)).tolist())
    mix = math.sqrt(max(0.0, 1.0 - _RHO * _RHO))
    prof = InjectionProfile()
    for node in nodes:
        means, stds = gmms[node.id].component(u)
        draw = [mu + sd * (_RHO * gj + mix * next(own))
                for mu, sd, gj in zip(means, stds, g)]
        prof.p[node.id] = draw[0]
        if len(draw) > 1:
            prof.q[node.id] = draw[1]
    return prof


def build_training_set(grid: GridModel, gmms: dict[int, GmmModel], n_trials: int,
                       schedule: ScheduleConfig, seed: int) -> TrainingSet:
    """Monte-Carlo (y, z) extraction: sample scenarios, solve the power flow,
    read the SCADA channels with measurement noise.  Aborts when more than 20%
    of the trials fail to converge (mixtures inconsistent with the grid).

    The trials run ``_BLOCK`` at a time through one stacked power flow
    (``solve_powerflows``), with the draws of the trial-by-trial loop: each
    trial's scenario, then its ``n_noisy`` standard normals, from which the
    synthesis plan reads the noise (``telemetry.synthesis_plan``; the normals
    are drawn before the flow is solved, which draws nothing).  A trial whose
    flow fails draws no noise in that loop, so at the first failure of a
    block the trials after it are set aside and the generator is set back to
    where it stood after the failed trial's scenario; the next block starts
    there.  Each SCADA vector is read from the readings by a precomputed
    index, the last reading of each channel, as ``scada_vector`` reads it."""
    rng = np.random.default_rng(seed)
    channels = scada_channels(grid, schedule)
    plan = synthesis_plan(grid, schedule, schedule.scada_period)
    at = _scada_index(plan, channels)
    components = injection_components(grid)
    keys = [(tag, int(node)) for tag, node in (c.split(":") for c in components)]
    zs, ys = [], []
    dropped = trial = 0
    while trial < n_trials:
        block = []
        for _ in range(min(_BLOCK, n_trials - trial)):
            prof = sample_injections(grid, gmms, rng)
            block.append((prof, rng.bit_generator.state, rng.standard_normal(plan.n_noisy)))
        results = solve_powerflows(grid, [prof for prof, _, _ in block])
        for (prof, after_scenario, z), res in zip(block, results):
            trial += 1
            if isinstance(res, PowerFlowError):
                dropped += 1
                if dropped > 0.2 * n_trials:
                    raise RuntimeError(
                        f"{dropped} of {n_trials} trials diverged; injection "
                        "mixtures are inconsistent with grid capacity")
                rng.bit_generator.state = after_scenario
                break
            zs.append(plan.readings(res.state, z)[0][at])
            ys.append([prof.p[node] if tag == "p" else prof.q[node] for tag, node in keys])
    return TrainingSet(z=np.array(zs), y=np.array(ys), channels=channels,
                       components=components, dropped=dropped)


def _scada_index(plan, channels: list[str]) -> np.ndarray:
    """Where each channel's reading sits among a synthesis plan's readings:
    the last reading of its key."""
    found = {_channel_of(kind, loc, d): i for i, (kind, loc, d, src) in enumerate(plan.keys)
             if src == SOURCE_SCADA}
    return np.array([found[c] for c in channels], dtype=np.intp)


# -- the trained artifact ----------------------------------------------------------


@dataclass
class InjectionModel:
    """Mixture means + regression network + error-based weights, all per grid."""

    mlp: MlpModel
    channels: list[str]
    components: list[str]
    error_sigma: dict[str, float]
    gmm_means: dict[str, float]
    meta: dict = field(default_factory=dict)

    def save(self, path: str | Path) -> None:
        doc = {
            "version": 1,
            "mlp": self.mlp.to_dict(),
            "channels": self.channels,
            "components": self.components,
            "error_sigma": self.error_sigma,
            "gmm_means": self.gmm_means,
            "meta": self.meta,
        }
        # in the trained key order: the prior rows follow that of gmm_means
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def load(cls, path: str | Path) -> "InjectionModel":
        """The saved model; other keys, such as the mixtures that older files
        keep under ``gmms``, are ignored."""
        doc = json.loads(Path(path).read_text())
        if doc.get("version") != 1:
            raise ValueError("unsupported injection model version")
        if missing := {"mlp", "channels", "components", "error_sigma",
                       "gmm_means"} - set(doc):
            raise ValueError(f"injection model {path} lacks key(s) {sorted(missing)}")
        return cls(mlp=MlpModel.from_dict(doc["mlp"]), channels=doc["channels"],
                   components=doc["components"], error_sigma=doc["error_sigma"],
                   gmm_means=doc["gmm_means"], meta=doc.get("meta", {}))


def fit_error_gmm(residuals: np.ndarray, components: list[str],
                  seed: int = 0) -> dict[str, float]:
    """Two-component mixture per injection component over holdout residuals;
    the weight sigma is the mixture's overall standard deviation, floored."""
    sigma: dict[str, float] = {}
    for col, key in enumerate(components):
        r = residuals[:, col]
        if np.allclose(r, r[0]):
            sigma[key] = SIGMA_FLOOR
        elif r.size < 20:
            # too few holdout points for a mixture; plain spread
            sigma[key] = max(float(r.std()), SIGMA_FLOOR)
        else:
            model, _ = fit_gmm(r, k=2, seed=seed + col)
            sigma[key] = max(float(np.sqrt(model.overall_variance()[0])), SIGMA_FLOOR)
    return sigma


def train_injection_model(grid: GridModel, profiles: LoadProfiles,
                          schedule: ScheduleConfig, n_trials: int = 2500,
                          epochs: int = 400, seed: int = 0
                          ) -> tuple[InjectionModel, TrainReport]:
    """The full offline stage: distribution learning, Monte-Carlo training
    data, network fit (``train_mlp``'s default layout, rate and batch size),
    error-mixture weighting."""
    gmms = fit_injection_gmms(grid, profiles, seed=seed)
    ts = build_training_set(grid, gmms, n_trials, schedule, seed=seed + 1)
    mlp, report = train_mlp(ts.z, ts.y, epochs=epochs, seed=seed + 2)
    hold = report.holdout_indices
    residuals = ts.y[hold] - mlp.predict(ts.z[hold])
    error_sigma = fit_error_gmm(residuals, ts.components, seed=seed + 3)

    gmm_means: dict[str, float] = {}
    for node in grid.injection_nodes():
        mean = gmms[node.id].mean()
        gmm_means[f"p:{node.id}"] = float(mean[0])
        if gmms[node.id].dim > 1:
            gmm_means[f"q:{node.id}"] = float(mean[1])

    model = InjectionModel(mlp=mlp, channels=ts.channels, components=ts.components,
                           error_sigma=error_sigma, gmm_means=gmm_means,
                           meta={"seed": seed, "n_trials": n_trials,
                                 "dropped": ts.dropped,
                                 "holdout_loss": report.holdout_loss})
    return model, report


# -- online stage -------------------------------------------------------------------


def infer_injections(model: InjectionModel, z_now: np.ndarray) -> dict[str, float]:
    z_now = np.asarray(z_now, dtype=float).ravel()
    if z_now.size != len(model.channels):
        raise ValueError(f"expected {len(model.channels)} SCADA channels, "
                         f"got {z_now.size}")
    y = model.mlp.predict(z_now[None, :])[0]
    return dict(zip(model.components, y))


def generated_measurements(model: InjectionModel, ms: MeasurementSet,
                           grid: GridModel, t: float) -> list[Measurement]:
    """DNN-generated injection rows for the current tick, weighted by the
    error-mixture sigmas.  The SCADA input is screened first."""
    z = scada_vector(sanitize_scada(grid, ms, model), model.channels)
    values = infer_injections(model, z)
    return _injection_rows(grid, values,
                           {k: model.error_sigma[k] for k in values},
                           SOURCE_DNN, t)


def pseudo_measurements(grid: GridModel, profile: InjectionProfile, t: float,
                        pct: float,
                        rng: np.random.Generator | int = 0) -> list[Measurement]:
    """Forecast-style pseudo injections: the true injections perturbed by
    Gaussian errors of the stated relative uncertainty, with matching sigmas.

    Unlike metering accuracies (3-sigma bounds), a forecast's stated
    uncertainty is its error standard deviation: 0.30 means sigma = 30% of
    the true value.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    values: dict[str, float] = {}
    sigmas: dict[str, float] = {}
    for node in grid.injection_nodes():
        for tag, true in (("p", profile.p_at(node.id)),
                          ("q", profile.q_at(node.id) if node.kind == AC else None)):
            if true is None:
                continue
            key = f"{tag}:{node.id}"
            sigma = max(pct * abs(true), SIGMA_FLOOR)
            values[key] = true + rng.normal(0.0, sigma)
            sigmas[key] = sigma
    return _injection_rows(grid, values, sigmas, SOURCE_PSEUDO, t)


def prior_measurements(model: InjectionModel, grid: GridModel, t: float,
                       pct: float = 0.30) -> list[Measurement]:
    """Mixture-mean injection priors with broad pct-derived sigmas; used to
    back the SCADA screening pass, never as benchmark pseudo telemetry."""
    sigmas = {k: max(pct * abs(v), SIGMA_FLOOR)
              for k, v in model.gmm_means.items()}
    return _injection_rows(grid, model.gmm_means, sigmas, SOURCE_PSEUDO, t)


def _injection_rows(grid: GridModel, values: dict[str, float],
                    sigmas: dict[str, float], source: str,
                    t: float) -> list[Measurement]:
    """A row per component key, its (kind, location) kept by ``GridModel.memo``."""
    spots = grid.memo("injection_spots", dict)
    rows = []
    for key in values:
        spot = spots.get(key)
        if spot is None:
            tag, node = key.split(":")
            kind = (MeasurementKind.AC_Q_INJ if tag == "q" else MeasurementKind.AC_P_INJ
                    if grid.node(int(node)).kind == AC else MeasurementKind.DC_P_INJ)
            spot = spots[key] = (kind, (int(node),))
        rows.append(Measurement(kind=spot[0], location=spot[1], direction="",
                                value=float(values[key]),
                                sigma=float(sigmas[key]), source=source,
                                timestamp=t))
    return rows


SCREEN_MODEL_ERROR = 5e-4   # linearization allowance of the screening pass
SCREEN_THRESHOLD = 20.0     # gross-error screen, an order above the NR test


def sanitize_scada(grid: GridModel, ms: MeasurementSet,
                   model: InjectionModel) -> MeasurementSet:
    """Screen the SCADA vector for gross errors before network inference.

    Each region's linear model, backed by broad mixture-mean priors at the
    injection nodes, is screened by ``lnr_substitute`` (one QR factor per
    region); flagged readings become the values the other rows predict.  The
    screen hunts doubled/negated readings, so its sigmas carry a linear-model
    allowance and its threshold sits far above the estimation-level test.

    The prior rows depend only on the model, so the grid keeps them per
    model object (``GridModel.memo``): a model is read once, at its first
    screen, and must not change afterwards.
    """
    # the entry keeps the model alive, so no other model takes its id while
    # it lasts; a grid unpickled in another process may carry a stale id
    kept, priors = grid.memo(("priors", id(model)), lambda: (
        model, tuple(prior_measurements(model, grid, t=0.0, pct=0.30))))
    if kept is not model:
        priors = prior_measurements(model, grid, t=0.0, pct=0.30)
    screen = MeasurementSet([*ms.measurements, *priors])
    by_region = screen.by_region(grid)
    corrected: dict[int, float] = {}
    for region in grid.regions:
        lin = build_region_H(grid, region, by_region[region.id])
        lin.sigma = np.sqrt(lin.sigma ** 2 + SCREEN_MODEL_ERROR ** 2)
        for gidx, value in lnr_substitute(lin, SCREEN_THRESHOLD).items():
            if gidx >= len(ms.measurements):
                continue   # a prior row was corrected; it is synthetic anyway
            m = ms.measurements[gidx]
            if m.kind is MeasurementKind.AC_V_MAG:
                value = math.sqrt(max(value, 1e-12))
            corrected[gidx] = value
    if not corrected:
        return ms
    fixed = [m if i not in corrected else
             Measurement(m.kind, m.location, m.direction, corrected[i], m.sigma,
                         m.source, m.timestamp)
             for i, m in enumerate(ms.measurements)]
    return MeasurementSet(fixed, ms.corrupt_indices)
