"""Correctness pass: properties of the method, or results computed apart
from the program, never stored output.

Checks on every timed run use the run records and re-solve each run's truth
power flow.  Most remaining checks replay the first runs of the timed phase
with a ``Capture`` hooked in, which keeps the truth, the measurement set, the
estimate and the final regional LPs of each replay.  The injection-accuracy
check draws its own held-out hours, enough of them for a stable ratio.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.optimize import linprog

from hooks import Recorder, installed

from hybridse.bench import run_single
from hybridse.injection import generated_measurements
from hybridse.measmodel import build_system_model
from hybridse.powerflow import conservation_residual, solve_powerflow
from hybridse.telemetry import (SOURCE_VIRTUAL_ZERO, MeasurementKind, inject_bad_data,
                                simulate_measurements)

CAPTURE_TARGETS = (
    ("hybridse.bench.montecarlo", "solve_powerflow"),
    ("hybridse.bench.montecarlo", "run_drse"),
    ("hybridse.bench.montecarlo", "run_cwls"),
    ("hybridse.estimation.wlav", "lp_solve"),
)

PF_TOL = 1e-6                  # p.u., per-converter balance tolerance of solve_powerflow
ANGLE_AAE_MAX_DEG = 0.4        # acceptance criterion 4
DOMINANT_MIN = 0.95            # acceptance criterion 5c
INJECTION_RATIO_MAX = 1.0 / 3  # acceptance criterion 6
INJECTION_HOURS = 200          # ratio 0.23-0.25 over 200 hours, 0.17-0.34 over 20
LP_REL_GAP = 1e-7              # regional LP objective against HiGHS
GN_STEP_MAX = 1e-6             # the Gauss-Newton stopping tolerance of solve_wls
LP_SAMPLE = 5                  # replayed runs whose final LPs go to the oracle
ZERO_INJ_SIGMA = 1e-6          # weight of virtual zero-injection rows in WLS


class Capture(Recorder):
    """Keeps the objects of one replayed run; ``reset`` before each run."""

    def __init__(self, n_regions: int):
        super().__init__()
        self.n_regions = n_regions
        self.reset()

    def reset(self):
        self.truth = None
        self.estimate = None
        self.ms_est = None
        self.lps = deque(maxlen=self.n_regions)

    def record(self, name, args, kwargs, result, span_id, parent, t0, dur, self_dur):
        if name == "montecarlo.solve_powerflow":
            self.truth = result
        elif name == "wlav.lp_solve":
            self.lps.append((args[0], result))
        else:
            self.estimate, self.ms_est = result, args[1]


class Report:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.results.append((name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def lines(self) -> list[str]:
        return [f"check {name}: {'PASS' if ok else 'FAIL'} - {detail}"
                for name, ok, detail in self.results]


def _same_metrics(a, b) -> bool:
    return (a.metrics is not None and b.metrics is not None
            and a.metrics.as_dict() == b.metrics.as_dict())


def check_records(ctx, records, report: Report) -> None:
    """Checks over every timed run."""
    failed = [r for r in records if r.error]
    report.add("no_failed_runs", not failed,
               f"{len(failed)} of {len(records)} runs failed"
               + (f"; first: {failed[0].error}" if failed else ""))

    # the outer AC/DC loop stops once every converter balances within PF_TOL,
    # so the system-wide residual is bounded by the sum over converters
    bound = PF_TOL * max(1, len(ctx.grid.converters))
    worst = 0.0
    for r in records:
        profile = ctx.test_profiles.at(r.tick)
        truth = solve_powerflow(ctx.grid, profile)
        worst = max(worst, abs(conservation_residual(ctx.grid, profile, truth)))
    report.add("conservation", worst <= bound,
               f"worst truth power-flow conservation residual {worst:.2e} p.u. "
               f"over {len(records)} runs (<= {bound:g})")

    scored = [r.metrics.aae_theta_deg for r in records if r.metrics is not None]
    aae = float(np.mean(scored)) if scored else math.inf
    report.add("angle_aae", aae < ANGLE_AAE_MAX_DEG,
               f"mean angle AAE {aae:.4f} deg (< {ANGLE_AAE_MAX_DEG})")

    if ctx.scenario.method.startswith("drse") and ctx.scenario.bad_data_case:
        frac = float(np.mean([bool(r.corrupt_dominant) for r in records]))
        report.add("corrupt_dominant", frac >= DOMINANT_MIN,
                   f"corrupted reading carries the largest WLAV residual in "
                   f"{frac:.1%} of {len(records)} runs (>= {DOMINANT_MIN:.0%})")


def check_traced(records, traced, report: Report) -> None:
    same = sum(_same_metrics(a, b) for a, b in zip(records, traced))
    report.add("traced_identical", same == len(records),
               f"{same} of {len(records)} traced runs score exactly like their "
               f"plain twins")


def check_replays(ctx, records, n_replays: int, report: Report) -> None:
    """Replay the first timed runs with a capture and check their insides."""
    capture = Capture(len(ctx.grid.regions))
    replays = []
    with installed(capture, CAPTURE_TARGETS):
        for i in range(min(n_replays, len(records))):
            capture.reset()
            rec = run_single(ctx, i)
            replays.append((rec, capture.truth, capture.estimate, capture.ms_est,
                            list(capture.lps)))

    same = sum(_same_metrics(rec, records[i]) for i, (rec, *_) in enumerate(replays))
    report.add("replay_identical", same == len(replays),
               f"{same} of {len(replays)} hooked replays score exactly like "
               f"their timed runs")

    gap = max(abs(_angle_aae(ctx.grid, est, truth) - rec.metrics.aae_theta_deg)
              for rec, truth, est, _, _ in replays)
    report.add("aae_recomputed", gap <= 1e-9,
               f"angle AAE recomputed from estimate and truth differs from the "
               f"scored value by at most {gap:.1e} deg")

    method = ctx.scenario.method
    if method.endswith("_dnn"):
        _check_injections(ctx, report)
    if method.startswith("drse"):
        _check_lp_oracle(replays[:LP_SAMPLE], report)
    if method.startswith("cwls"):
        _check_wls_stationarity(ctx.grid, replays, report)


def _angle_aae(grid, est, truth) -> float:
    errs = [abs(math.degrees(est.theta[n] - truth.state.theta[n])) for n in est.theta]
    return float(np.mean(errs))


def _check_injections(ctx, report):
    """Generated injections against the true ones, on held-out hours drawn
    from the workload seed, with the workload's telemetry, bad data and
    screening; the baseline is each component's mixture mean."""
    sc, model = ctx.scenario, ctx.model
    rng = np.random.default_rng(sc.seed)
    dnn, base = [], []
    for _ in range(INJECTION_HOURS):
        _, profile = ctx.test_profiles.sample_tick(rng)
        truth = solve_powerflow(ctx.grid, profile)
        ms = simulate_measurements(ctx.grid, truth.state, ctx.schedule, t=sc.tick_time,
                                   seed=rng)
        if sc.bad_data_case:
            ms = inject_bad_data(ms, sc.bad_data_case, target=sc.bad_data_target)
        for m in generated_measurements(model, ms, ctx.grid, sc.tick_time):
            node = m.location[0]
            if m.kind is MeasurementKind.AC_Q_INJ:
                key, true = f"q:{node}", profile.q_at(node)
            else:
                key, true = f"p:{node}", profile.p_at(node)
            dnn.append(abs(m.value - true))
            base.append(abs(model.gmm_means[key] - true))
    ratio = float(np.mean(dnn) / np.mean(base))
    report.add("dnn_injection_accuracy", ratio <= INJECTION_RATIO_MAX,
               f"generated-injection AAE {np.mean(dnn):.2e} vs mixture-mean "
               f"baseline {np.mean(base):.2e}: ratio {ratio:.3f} over "
               f"{INJECTION_HOURS} held-out hours (<= {INJECTION_RATIO_MAX:.3f})")


def _check_lp_oracle(replays, report):
    worst, n = 0.0, 0
    for *_, lps in replays:
        for problem, sol in lps:
            bounds = [(None, None) if free else (0, None) for free in problem.free_mask]
            ref = linprog(problem.c, A_eq=problem.a_eq, b_eq=problem.b_eq,
                          bounds=bounds, method="highs")
            if ref.status != 0:
                worst = math.inf
                continue
            worst = max(worst, abs(sol.objective - ref.fun) / max(1.0, abs(ref.fun)))
            n += 1
    report.add("lp_oracle", worst <= LP_REL_GAP,
               f"final regional LP objectives of {len(replays)} runs vs HiGHS: "
               f"worst relative gap {worst:.1e} over {n} LPs (<= {LP_REL_GAP:g})")


def _check_wls_stationarity(grid, replays, report):
    """Gauss-Newton step J'WJ dx = J'W(z - h(x)) at the returned state, on a
    system model rebuilt from the readings the LNR test kept."""
    worst = 0.0
    for _, _, est, ms_est, _ in replays:
        flagged = {idx for rep in est.bad_data.values() for idx, _ in rep.flagged}
        kept = [(i, m) for i, m in enumerate(ms_est.measurements) if i not in flagged]
        model = build_system_model(grid, kept)
        x = est.regions[-1].x
        h, jac = model.h_jac(x)
        sigma = np.where([s == SOURCE_VIRTUAL_ZERO for s in model.sources],
                         ZERO_INJ_SIGMA, model.sigma)
        w = 1.0 / sigma ** 2
        grad = jac.T @ (w * (model.z - h))
        step = np.linalg.solve(jac.T @ (w[:, None] * jac), grad)
        worst = max(worst, float(np.abs(step).max()))
    report.add("wls_stationarity", worst <= GN_STEP_MAX,
               f"largest Gauss-Newton step left at the returned state "
               f"{worst:.1e} over {len(replays)} runs (<= {GN_STEP_MAX:g})")
