"""End-to-end benchmark of hybridse on the bundled case33 hybrid grid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  One process runs one workload: it sets the workload up (the
offline injection training included, where the method needs it), runs
``hybridse.bench.run_single`` back to back for S seconds (closed loop, one
caller), checks the outputs, and prints one JSON object as its last line.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the set-up runs with every layer hooked, and each timed run is made twice,
plain and hooked, on the same inputs; the metrics are the per-layer ones,
plus the tracing overhead of the hooked runs against the plain ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# one core per benchmark process: BLAS worker threads would compete with
# whatever else runs on the machine's other core
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from calibrate import kernel_ms, speed_factor
from hooks import TRACE_TARGETS, Recorder, installed
from layers import Tracer, layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SCADA_LINES = [[1, 2], [2, 19], [3, 23], [6, 26]]

# name -> (method, bad-data case, set-ups per process, runs replayed by the checks)
WORKLOADS = {
    "drse_dnn_baddata": ("drse_dnn", 2, 1, 20),
    "cwls_clean": ("cwls", 0, 11, 20),
}

ESTIMATE_TARGETS = (
    ("hybridse.bench.montecarlo", "generated_measurements"),
    ("hybridse.bench.montecarlo", "run_drse"),
    ("hybridse.bench.montecarlo", "run_cwls"),
)


class EstimateTimer(Recorder):
    """Wall time of injection generation plus the estimator call."""

    def __init__(self):
        super().__init__()
        self.seconds = 0.0

    def record(self, name, args, kwargs, result, span_id, parent, t0, dur, self_dur):
        self.seconds += dur


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "hybridse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hybridse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hybridse
    if Path(hybridse.__file__).resolve().parent != SRC / "hybridse":
        sys.exit(f"perfbench: imported hybridse from {hybridse.__file__}, not {SRC}")


def master_seed(seed: int, workload: str) -> int:
    """Spread benchmark seeds apart, so neighbouring seeds share no run seeds."""
    entropy = [seed, sorted(WORKLOADS).index(workload)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0] >> 1)


def make_scenario(workload: str, seed: int):
    from hybridse import data
    from hybridse.bench import Scenario
    method, case, _, _ = WORKLOADS[workload]
    return Scenario(grid=str(data.path(data.CASE33_HYBRID)), method=method, runs=1,
                    seed=master_seed(seed, workload),
                    base_profile=str(data.path(data.CASE33_HYBRID_LOADS)),
                    schedule={"scada_ac_branches": SCADA_LINES},
                    bad_data_case=case)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    import_program()
    import checks
    from hybridse.bench import prepare_context, run_single

    method, _, setups, n_replays = WORKLOADS[args.workload]
    scenario = make_scenario(args.workload, args.seed)

    # -- set-up: repeated where it is cheap (median reported), once when traced
    setup_tracer = Tracer()
    setup_raw_s, setup_s, setup_kernels = [], [], []
    kernel_ms()                              # warm-up: the first call is slow
    for _ in range(1 if args.trace else setups):
        around = [kernel_ms() for _ in range(3)]
        hooks = installed(setup_tracer, TRACE_TARGETS) if args.trace else nullcontext()
        t0 = time.perf_counter()
        with hooks:
            ctx = prepare_context(scenario)
        raw = time.perf_counter() - t0
        around += [kernel_ms() for _ in range(3)]
        setup_raw_s.append(raw)
        setup_s.append(raw * speed_factor(around))
        setup_kernels += around

    # -- timed phase: whole runs until the time is up, each between two kernels
    run_single(ctx, 0)                       # warm-up, not counted
    timer = EstimateTimer()
    tracer = Tracer()
    records, traced, kernels, est_ms, plain_s, traced_s = [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        i = len(records)
        before = kernel_ms()
        timer.seconds = 0.0
        with installed(timer, ESTIMATE_TARGETS):
            t0 = time.perf_counter()
            records.append(run_single(ctx, i))
            plain_s.append(time.perf_counter() - t0)
        kernels.append((before + kernel_ms()) / 2.0)
        est_ms.append(timer.seconds * 1000.0)
        if args.trace:
            with installed(tracer, TRACE_TARGETS):
                t0 = time.perf_counter()
                traced.append(tracer.call("montecarlo.run_single", run_single,
                                          (ctx, i), {}))
                traced_s.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness pass, untimed
    report = checks.Report()
    checks.check_records(ctx, records, report)
    checks.check_replays(ctx, records, n_replays, report)
    if args.trace:
        checks.check_traced(records, traced, report)

    attempted = len(records) + len(traced)
    failed = sum(bool(r.error) for r in records + traced)
    factors = [speed_factor([k]) for k in kernels]
    if args.trace:
        overhead = (sum(traced_s) / sum(plain_s) - 1.0) * 100.0
        metrics = layer_metrics(setup_tracer, tracer, len(traced), overhead,
                                setup_kernels, kernels)
    else:
        run_s = sum(s * f for s, f in zip(plain_s, factors))
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "runs_per_s": (len(records) / run_s, "1/s"),
            "estimate_ms.p50": (statistics.median(e * f for e, f in zip(est_ms, factors)),
                                "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    result = {"correct": report.passed, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = dict(result, workload=args.workload, method=method, seed=args.seed,
                   master_seed=scenario.seed, seconds=args.seconds,
                   raw={"setup_s": setup_raw_s, "setup_kernel_ms": setup_kernels,
                        "runs_per_s": len(records) / elapsed,
                        "run_ms": [s * 1e3 for s in plain_s],
                        "estimate_ms": est_ms, "kernel_ms": kernels},
                   checks=report.lines())
    (out_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if args.trace:
        write_spans({"setup": setup_tracer, "runs": tracer},
                    out_dir / f"{stem}-spans.csv")

    for line in report.lines():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
