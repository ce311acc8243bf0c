"""Command-line interface.

Subcommands: ``pf`` (power flow), ``gen-profiles``, ``simulate`` (telemetry),
``train`` (injection model), ``estimate`` (single estimation run) and
``benchmark`` (Monte-Carlo suites).  Exit codes: 0 success, 1 usage error,
2 validation error (bad files/arguments), 3 numerical failure (divergence,
unobservability).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import METHODS, ScenarioError, load_scenario, run_estimator, run_montecarlo
from .coordination import CoordinationParams
from .estimation import EstimationError, LpError
from .grid import GridError, load_grid
from .injection import (InjectionModel, gen_load_profiles, generated_measurements,
                        prior_measurements, train_injection_model)
from .powerflow import (PowerFlowError, conservation_residual, load_profile,
                        mismatch_residual, solve_powerflow)
from .telemetry import (MeasurementSet, ScheduleConfig, TelemetryError,
                        inject_bad_data, simulate_measurements)

USAGE_EXIT = 1
VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _schedule_from_args(args) -> ScheduleConfig:
    kw = {}
    if getattr(args, "scada_lines", None):
        pairs = []
        for part in args.scada_lines.split(","):
            a, b = part.split("-")
            pairs.append((int(a), int(b)))
        kw["scada_ac_branches"] = tuple(pairs)
    return ScheduleConfig(**kw)


def _write_state_csv(path, grid, v, theta):
    lines = ["node_id,V,theta"]
    for node in sorted(v):
        th = repr(theta[node]) if node in theta else ""
        lines.append(f"{node},{v[node]!r},{th}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_pf(args) -> int:
    grid = load_grid(args.grid)
    profile = load_profile(args.injections)
    result = solve_powerflow(grid, profile)
    audit = mismatch_residual(grid, profile, result.state, result.converters)
    residual = conservation_residual(grid, profile, result)
    print(f"converged in {result.outer_iterations} outer iterations; "
          f"mismatch audit {audit:.3e} p.u.; "
          f"conservation residual {residual:.3e} p.u.")
    for cid, sol in sorted(result.converters.items()):
        print(f"converter {cid}: p_vsc={sol.p_vsc:.6f} q_vsc={sol.q_vsc:.6f} "
              f"loss={sol.p_loss:.6f} p_djc={sol.p_djc:.6f}")
    if args.out:
        _write_state_csv(args.out, grid, result.state.v, result.state.theta)
    return 0


def cmd_gen_profiles(args) -> int:
    grid = load_grid(args.grid)
    base = load_profile(args.base)
    profiles = gen_load_profiles(grid, days=args.days, seed=args.seed, base=base)
    profiles.to_csv(args.out)
    print(f"wrote {profiles.hours} hourly ticks for "
          f"{len(profiles.p)} nodes to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    grid = load_grid(args.grid)
    profile = load_profile(args.injections)
    schedule = _schedule_from_args(args)
    result = solve_powerflow(grid, profile)
    ms = simulate_measurements(grid, result.state, schedule, t=args.t,
                               seed=args.seed)
    if args.bad_data_case:
        ms = inject_bad_data(ms, args.bad_data_case)
    ms.to_csv(args.out)
    print(f"wrote {len(ms)} measurements to {args.out}")
    return 0


def cmd_train(args) -> int:
    grid = load_grid(args.grid)
    base = load_profile(args.base)
    schedule = _schedule_from_args(args)
    profiles = gen_load_profiles(grid, days=args.days, seed=args.seed, base=base)
    model, report = train_injection_model(grid, profiles, schedule,
                                          n_trials=args.trials,
                                          epochs=args.epochs, seed=args.seed)
    model.save(args.out)
    print(f"trained on {args.trials} trials ({model.meta['dropped']} dropped); "
          f"holdout loss {report.holdout_loss:.4f}; model saved to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    grid = load_grid(args.grid)
    ms = MeasurementSet.from_csv(args.meas)
    params = CoordinationParams(lambda0=args.lambda0, xi=args.xi, tau=args.tau,
                                max_iterations=args.max_iterations,
                                nr_test=not args.no_nr_test)
    if args.method.endswith(("_dnn", "_pseudo")):
        if not args.model:
            raise ScenarioError(f"method {args.method} needs --model")
        model = InjectionModel.load(args.model)
        t = max(m.timestamp for m in ms) if len(ms) else 0.0
        if args.method.endswith("_dnn"):
            extra = generated_measurements(model, ms, grid, t)
        else:
            # offline pseudo rows: mixture-mean priors at the stated uncertainty
            extra = prior_measurements(model, grid, t, pct=args.pseudo_pct / 100.0)
        ms = MeasurementSet(list(ms.measurements) + extra, ms.corrupt_indices)

    est = run_estimator(args.method.split("_")[0], grid, ms, params)

    print(f"method {args.method}: iterations {est.iterations}, "
          f"converged {est.converged}, max boundary mismatch "
          f"{est.max_mismatch():.3e} p.u.")
    for cid, hist in sorted(est.mismatch_history.items()):
        trail = " ".join(f"{v:.2e}" for v in hist[:8])
        more = " ..." if len(hist) > 8 else ""
        print(f"  converter {cid} mismatch trace: {trail}{more}")
    _write_state_csv(args.out, grid, est.v, est.theta)
    print(f"estimate written to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.runs:
        scenario.runs = args.runs
    scenario.seed = args.seed
    out = Path(args.out)
    result = run_montecarlo(scenario, out_dir=out, model_path=args.model)
    agg = result.aggregate
    print(f"method {scenario.method}: {int(agg['runs'])} runs")
    for key in sorted(agg):
        if key in ("method", "runs"):
            continue
        print(f"  {key}: {agg[key]:.6g}")
    se = [r.se_ms for r in result.ok_records]
    if se:
        print(f"  se_time_ms median: {float(np.median(se)):.2f}")
    print(f"artifacts in {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hybridse",
                     description="Hybrid AC/DC grid simulation and distributed "
                                 "robust state estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pf", help="solve the AC/DC power flow")
    p.add_argument("--grid", required=True)
    p.add_argument("--injections", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pf)

    p = sub.add_parser("gen-profiles", help="generate synthetic load profiles")
    p.add_argument("--grid", required=True)
    p.add_argument("--base", required=True, help="nominal injections CSV")
    p.add_argument("--days", type=int, default=365)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_profiles)

    p = sub.add_parser("simulate", help="synthesize telemetry for a solved state")
    p.add_argument("--grid", required=True)
    p.add_argument("--injections", required=True)
    p.add_argument("--t", type=float, default=3600.0, help="scenario time (s)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scada-lines", help="comma list of measured AC lines, e.g. 1-2,2-19")
    p.add_argument("--bad-data-case", type=int, choices=(1, 2, 3))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the injection-generation model")
    p.add_argument("--grid", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--days", type=int, default=365)
    p.add_argument("--trials", type=int, default=2500)
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scada-lines")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="run one estimation method")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--grid", required=True)
    p.add_argument("--meas", required=True)
    p.add_argument("--model", help="injection model for *_dnn / *_pseudo")
    p.add_argument("--pseudo-pct", type=float, default=30.0)
    p.add_argument("--lambda0", type=float, default=0.0)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1e-4)
    p.add_argument("--max-iterations", type=int, default=20)
    p.add_argument("--no-nr-test", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("benchmark", help="run a Monte-Carlo scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="master seed (mandatory, overrides the scenario)")
    p.add_argument("--runs", type=int)
    p.add_argument("--model", help="reuse a trained injection model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except (GridError, ScenarioError, TelemetryError, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except (PowerFlowError, EstimationError, LpError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
