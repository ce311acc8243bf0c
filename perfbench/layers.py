"""Per-layer metrics from hooked calls.

A ``Tracer`` aggregates every hooked call by span name (count, inclusive
seconds, self seconds), pulls work counters out of the returned objects, and
keeps the spans themselves in memory so they can be written out when the
benchmark ends.  ``layer_metrics`` turns the aggregates of one set-up and of
the traced runs into the named per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from calibrate import speed_factor
from hooks import Recorder

ESTIMATORS = ("montecarlo.run_drse", "montecarlo.run_cwls")


def _corrections(args, result):
    before = args[1].measurements
    return sum(a.value != b.value for a, b in zip(before, result.measurements))


def _counters(name, args, kwargs, result):
    """Work counters of one call, keyed by per-layer metric name."""
    if name == "montecarlo.solve_powerflow":
        return {"powerflow.outer_iterations": result.outer_iterations}
    if name == "wlav.lp_solve":
        return {"estimation.lp.calls": 1,
                "estimation.lp.pivots": result.iterations,
                "estimation.lp.warm_calls": int(kwargs.get("basis") is not None)}
    if name in ("coordination.solve_wls", "wls.solve_wls"):
        return {"estimation.wls.calls": 1,
                "estimation.wls.gn_iterations": result.iterations}
    if name == "coordination.lnr_test":
        return {"estimation.lnr.cycles": result.report.cycles,
                "estimation.lnr.flagged": len(result.report.flagged)}
    if name in ESTIMATORS:
        out = {"coordination.se_parallel_ms": result.se_time * 1000.0}
        if name == "montecarlo.run_drse":
            out["coordination.iterations"] = result.iterations
        return out
    if name == "pipeline.sanitize_scada":
        return {"injection.screen_corrections": _corrections(args, result)}
    return {}


class Tracer(Recorder):
    def __init__(self):
        super().__init__()
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans: list[tuple] = []

    def record(self, name, args, kwargs, result, span_id, parent, t0, dur, self_dur):
        self.count[name] += 1
        self.total[name] += dur
        self.self_time[name] += self_dur
        for key, value in _counters(name, args, kwargs, result).items():
            self.counters[key] += value
        self.spans.append((span_id, parent, name, t0, dur))

    def seconds(self, names, self_only=False):
        table = self.self_time if self_only else self.total
        return sum(table[n] for n in names)


# per-run time metrics (ms): span names, and whether only self time counts
RUN_TIMES = {
    "powerflow.solve_ms": (("montecarlo.solve_powerflow",), False),
    "telemetry.simulate_ms": (("montecarlo.simulate_measurements",
                               "montecarlo.inject_bad_data"), False),
    "telemetry.build_region_H_ms": (("coordination.build_region_H",
                                     "pipeline.build_region_H"), False),
    "measmodel.build_ms": (("coordination.build_region_model",
                            "coordination.build_system_model"), False),
    "estimation.wlav.build_ms": (("wlav.build_regional_wlav_lp",), False),
    "estimation.wlav.self_ms": (("coordination.solve_wlav_region",), True),
    "estimation.lp.solve_ms": (("wlav.lp_solve",), False),
    "estimation.wls.solve_ms": (("coordination.solve_wls", "wls.solve_wls"), False),
    "estimation.lnr.ms": (("coordination.lnr_test",), True),
    "coordination.self_ms": (ESTIMATORS, True),
    "injection.screen_ms": (("pipeline.sanitize_scada",), False),
    "injection.infer_ms": (("pipeline.infer_injections",), False),
    "bench.score_ms": (("montecarlo.compute_metrics",), False),
    "bench.run_self_ms": (("montecarlo.run_single",), True),
}

RUN_COUNTS = (
    "powerflow.outer_iterations",
    "estimation.lp.calls", "estimation.lp.pivots", "estimation.lp.warm_calls",
    "estimation.wls.calls", "estimation.wls.gn_iterations",
    "estimation.lnr.cycles", "estimation.lnr.flagged",
    "coordination.iterations", "injection.screen_corrections",
)

# offline stage, seconds per set-up
SETUP_TIMES = {
    "injection.profiles_s": "montecarlo.gen_load_profiles",
    "injection.gmm_fit_s": "pipeline.fit_injection_gmms",
    "injection.mc_extract_s": "pipeline.build_training_set",
    "injection.mlp_train_s": "pipeline.train_mlp",
    "injection.error_gmm_s": "pipeline.fit_error_gmm",
}

UNITS = {name: "ms" for name in RUN_TIMES}
UNITS.update({name: "count" for name in RUN_COUNTS})
UNITS.update({name: "s" for name in SETUP_TIMES})
UNITS.update({"coordination.se_parallel_ms": "ms", "injection.mc_powerflows": "count",
              "trace.runs": "count", "trace.overhead_pct": "%",
              "machine.kernel_ms": "ms"})


def layer_metrics(setup: Tracer, runs: Tracer, n_runs: int, overhead_pct: float,
                  setup_kernels: list[float],
                  run_kernels: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: run metrics per traced run, set-up metrics per set-up.
    Times are at the reference speed, by the kernel samples of their phase."""
    setup_scale = speed_factor(setup_kernels)
    run_scale = speed_factor(run_kernels)
    out: dict[str, float] = {}
    for name, (spans, self_only) in RUN_TIMES.items():
        out[name] = runs.seconds(spans, self_only) * 1000.0 * run_scale / n_runs
    for name in RUN_COUNTS:
        out[name] = runs.counters[name] / n_runs
    out["coordination.se_parallel_ms"] = (runs.counters["coordination.se_parallel_ms"]
                                          * run_scale / n_runs)
    for name, span in SETUP_TIMES.items():
        out[name] = setup.seconds((span,)) * setup_scale
    out["injection.mc_powerflows"] = setup.count["pipeline.solve_powerflow"]
    out["trace.runs"] = n_runs
    out["trace.overhead_pct"] = overhead_pct
    out["machine.kernel_ms"] = statistics.median(run_kernels)
    return {name: (float(value), UNITS[name]) for name, value in out.items()}


def write_spans(tracers: dict[str, Tracer], path) -> None:
    """One CSV row per span: phase, id, parent id, name, start, duration (s)."""
    lines = ["phase,span,parent,name,start_s,dur_s"]
    for phase, tracer in tracers.items():
        for span_id, parent, name, t0, dur in tracer.spans:
            lines.append(f"{phase},{span_id},{parent},{name},{t0!r},{dur!r}")
    path.write_text("\n".join(lines) + "\n")
