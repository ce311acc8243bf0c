"""Monte-Carlo evaluation harness.

Each run derives its seed from the master seed plus the run index, samples a
load scenario from held-out profiles, solves the power-flow truth, synthesizes
telemetry at the method's tick, optionally corrupts it, estimates, and scores.
Runs may execute across processes (HYBRIDSE_WORKERS); records are collected in
run order so concurrency never changes output bytes.

Artifacts: ``runs.csv`` and ``aggregate.csv`` (bit-reproducible from the
scenario and master seed), ``trace_boundary.csv`` (reproducible packet trace
of distributed methods), and ``timing.csv`` (wall-clock measurements, the one
artifact that is physical rather than reproducible).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..coordination import CoordinationParams, SystemEstimate, run_cwls, run_drse, run_dwls
from ..grid import GridModel, load_grid
from ..injection import (InjectionModel, LoadProfiles, ProfileParams,
                         gen_load_profiles, generated_measurements,
                         pseudo_measurements, train_injection_model)
from ..powerflow import PowerFlowError, load_profile, solve_powerflow
from ..telemetry import MeasurementSet, ScheduleConfig, inject_bad_data
from ..telemetry import simulate_measurements
from .metrics import MetricsRow, aggregate_rows, compute_metrics
from .scenario import Scenario

TEST_PROFILE_OFFSET = 7777   # held-out year: profile seed plus this offset
SIDES = ("ac", "dc")         # BoundaryPacket.side by its code in RunRecord.trace


class RunsFailedError(RuntimeError):
    """More than 10% of a scenario's runs failed; ``run_montecarlo`` aborts."""


@dataclass
class RunContext:
    """The inputs ``prepare_context`` loads or trains; the schedule and the
    coordination parameters are read from the scenario."""

    scenario: Scenario
    grid: GridModel
    test_profiles: LoadProfiles
    model: InjectionModel | None = None

    @property
    def schedule(self) -> ScheduleConfig:
        return self.scenario.schedule_config

    @property
    def params(self) -> CoordinationParams:
        return CoordinationParams(nr_test=self.scenario.nr_test)


@dataclass
class RunRecord:
    run: int
    seed: int
    tick: int
    metrics: MetricsRow | None
    iterations: int = 0
    converged: bool = False
    max_mismatch: float = 0.0
    corrupt_indices: tuple[int, ...] = ()
    corrupt_dominant: bool | None = None
    se_ms: float = 0.0
    wall_ms: float = 0.0
    inj_ms: float = 0.0
    total_ms: float = 0.0
    # one row per estimator iteration, the iteration its position: t_total,
    # t_algebra and the largest regional time, in seconds
    timing: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    # the packet trace, one row per packet: iteration, converter, side (0 for
    # "ac", 1 for "dc"), p_vsc, q_vsc, p_loss, v_pcc
    trace: np.ndarray = field(default_factory=lambda: np.empty((0, 7)))
    error: str = ""


def prepare_context(scenario: Scenario,
                    model_path: str | Path | None = None) -> RunContext:
    """Load inputs and, for generated-injection methods, obtain the trained
    model (from a file or by running the offline stage once)."""
    grid = load_grid(scenario.grid)
    base = load_profile(scenario.base_profile)
    profile_params = ProfileParams()

    model = None
    if scenario.method.endswith("_dnn"):
        if model_path is not None:
            model = InjectionModel.load(model_path)
        else:
            profiles = gen_load_profiles(grid, days=scenario.profile_days,
                                         seed=scenario.profile_seed, base=base,
                                         params=profile_params)
            model, _ = train_injection_model(grid, profiles, scenario.schedule_config,
                                             seed=scenario.profile_seed)
    test_profiles = gen_load_profiles(grid, days=scenario.test_days,
                                      seed=scenario.profile_seed + TEST_PROFILE_OFFSET,
                                      base=base, params=profile_params)
    return RunContext(scenario=scenario, grid=grid, test_profiles=test_profiles,
                      model=model)


def run_single(ctx: RunContext, run_idx: int) -> RunRecord:
    sc = ctx.scenario
    seed = sc.seed + run_idx
    rng = np.random.default_rng(seed)
    t_start = time.perf_counter()
    tick, profile = ctx.test_profiles.sample_tick(rng)
    record = RunRecord(run=run_idx, seed=seed, tick=tick, metrics=None)
    try:
        truth = solve_powerflow(ctx.grid, profile)
        t = sc.tick_time
        ms = simulate_measurements(ctx.grid, truth.state, ctx.schedule, t=t, seed=rng)
        if sc.bad_data_case:
            ms = inject_bad_data(ms, sc.bad_data_case, target=sc.bad_data_target)
        record.corrupt_indices = ms.corrupt_indices

        t_inj = time.perf_counter()
        extra = []
        if sc.method.endswith("_dnn"):
            extra = generated_measurements(ctx.model, ms, ctx.grid, t)
        elif sc.method.endswith("_pseudo"):
            extra = pseudo_measurements(ctx.grid, profile, t,
                                        pct=sc.pseudo_pct / 100.0, rng=rng)
        record.inj_ms = (time.perf_counter() - t_inj) * 1000.0
        ms_est = MeasurementSet(list(ms.measurements) + extra, ms.corrupt_indices) \
            if extra else ms

        est = run_estimator(sc.family, ctx.grid, ms_est, ctx.params)
        record.metrics = compute_metrics(ctx.grid, est.v, est.theta, truth.state)
        record.iterations = est.iterations
        record.converged = est.converged
        record.max_mismatch = est.max_mismatch()
        record.se_ms = est.se_time * 1000.0
        record.wall_ms = est.wall_time * 1000.0
        record.timing = np.array([(it.t_total, it.t_algebra, it.t_region_max)
                                  for it in est.timing], dtype=float).reshape(-1, 3)
        record.trace = np.array([(iteration, p.converter, SIDES.index(p.side), p.p_vsc,
                                  p.q_vsc, p.p_loss, p.v_pcc)
                                 for iteration, pkts in enumerate(est.packet_trace, 1)
                                 for p in pkts], dtype=float).reshape(-1, 7)
        if ms_est.corrupt_indices:
            worst = est.dominant_reading()
            if worst is not None:
                record.corrupt_dominant = worst in ms_est.corrupt_indices
    except (PowerFlowError, RuntimeError, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.total_ms = (time.perf_counter() - t_start) * 1000.0
    return record


def run_estimator(family: str, grid: GridModel, ms: MeasurementSet,
                  params: CoordinationParams) -> SystemEstimate:
    """Run one estimator family ("cwls", "dwls" or "drse") on a measurement set."""
    # looked up at call time, so that a patched module attribute is the one run
    return {"cwls": run_cwls, "dwls": run_dwls, "drse": run_drse}[family](grid, ms, params)


_WORKER_CTX: RunContext | None = None


def _init_worker(ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_run(idx):
    return run_single(_WORKER_CTX, idx)


@dataclass
class BenchResult:
    records: list[RunRecord]
    aggregate: dict[str, float]

    @property
    def ok_records(self) -> list[RunRecord]:
        return [r for r in self.records if not r.error]


def run_montecarlo(scenario: Scenario, out_dir: str | Path | None = None,
                   model_path: str | Path | None = None) -> BenchResult:
    """Execute the scenario; aborts (``RunsFailedError``) if over 10% of runs fail."""
    ctx = prepare_context(scenario, model_path=model_path)
    workers = int(os.environ.get("HYBRIDSE_WORKERS", "1"))
    indices = list(range(scenario.runs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(ctx,)) as pool:
            records = list(pool.map(_worker_run, indices))
    else:
        records = [run_single(ctx, i) for i in indices]
    records.sort(key=lambda r: r.run)

    failures = [r for r in records if r.error]
    if len(failures) > 0.1 * scenario.runs:
        raise RunsFailedError(
            f"{len(failures)} of {scenario.runs} runs failed; first: "
            f"{failures[0].error}")

    rows = [r.metrics for r in records if r.metrics is not None]
    aggregate = aggregate_rows(rows)
    aggregate["method"] = scenario.method
    result = BenchResult(records=records, aggregate=aggregate)
    if out_dir is not None:
        write_artifacts(result, scenario, Path(out_dir))
    return result


# -- artifact emission ---------------------------------------------------------


RUNS_HEADER = ("run,seed,tick,aae_v_ac,mae_v_ac,aae_theta_deg,mae_theta_deg,"
               "aae_v_dc,mae_v_dc,aae_v_all,mae_v_all,iterations,converged,"
               "max_mismatch,corrupt_indices,corrupt_dominant,error")


def write_artifacts(result: BenchResult, scenario: Scenario, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)

    lines = [RUNS_HEADER]
    for r in result.records:
        m = r.metrics
        vals = ["" if m is None else repr(getattr(m, f))
                for f in ("aae_v_ac", "mae_v_ac", "aae_theta_deg", "mae_theta_deg",
                          "aae_v_dc", "mae_v_dc", "aae_v_all", "mae_v_all")]
        dom = "" if r.corrupt_dominant is None else int(r.corrupt_dominant)
        corrupt = ";".join(str(i) for i in r.corrupt_indices)
        lines.append(",".join([str(r.run), str(r.seed), str(r.tick)] + vals
                              + [str(r.iterations), str(int(r.converged)),
                                 repr(r.max_mismatch), corrupt, str(dom),
                                 r.error.replace(",", ";")]))
    (out / "runs.csv").write_text("\n".join(lines) + "\n")

    keys = sorted(k for k in result.aggregate if k != "method")
    agg_lines = ["method," + ",".join(keys),
                 result.aggregate["method"] + ","
                 + ",".join(repr(result.aggregate[k]) for k in keys)]
    (out / "aggregate.csv").write_text("\n".join(agg_lines) + "\n")

    tlines = ["run,iteration,t_total_ms,t_algebra_ms,t_region_max_ms,se_ms,wall_ms,inj_ms,"
              "total_ms"]
    for r in result.records:
        for iteration, (t_total, t_algebra, t_rmax) in enumerate(r.timing.tolist(), 1):
            tlines.append(f"{r.run},{iteration},{t_total * 1e3!r},{t_algebra * 1e3!r},"
                          f"{t_rmax * 1e3!r},{r.se_ms!r},{r.wall_ms!r},{r.inj_ms!r},"
                          f"{r.total_ms!r}")
        if not r.timing.size:
            tlines.append(f"{r.run},1,{r.se_ms!r},0.0,0.0,{r.se_ms!r},{r.wall_ms!r},"
                          f"{r.inj_ms!r},{r.total_ms!r}")
    (out / "timing.csv").write_text("\n".join(tlines) + "\n")

    blines = ["run,iteration,converter,side,p_vsc,q_vsc,p_loss,v_pcc"]
    for r in result.records:
        for iteration, conv, side, *values in r.trace.tolist():
            blines.append(f"{r.run},{int(iteration)},{int(conv)},{SIDES[int(side)]},"
                          + ",".join(map(repr, values)))
    (out / "trace_boundary.csv").write_text("\n".join(blines) + "\n")
