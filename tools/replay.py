"""Captured-input timing and bit check of a perfbench workload's estimates.

    python3 tools/replay.py TREE [TREE2] --workload NAME [--seed N] [--runs N]
        [--passes P] [--rounds R]

TREE is a source checkout.  With one tree the tool imports its ``src/``,
builds the workload's scenario with ``make_scenario`` from its
``perfbench/run.py`` and prepares the run context.  It runs the first N
Monte-Carlo runs (``bench.run_single``) with ``generated_measurements`` and
``run_estimator`` of ``hybridse.bench.montecarlo`` wrapped, to capture each
run's inputs to them; nothing in ``src/`` or ``perfbench/`` is edited.  Then:

- one replay of every captured input with each ``lp_solve`` of the regional
  WLAV solves counted: it prints a sha256 over every estimate's v and theta
  (node by node, each float's repr), stop reason and iterations, and the
  total LP calls and pivots;
- P timed passes over the captured inputs, each run timed as its
  ``generated_measurements`` call (where the method has one) plus its
  estimator call; it prints, over the runs, the mean and the median of each
  run's median over the passes.

The last line printed is a JSON object with those figures.  With two trees
each tree runs in a process of its own, R rounds with the order alternating
between rounds, so a drift of the machine's speed falls on both alike; the
tool prints each tree's per-round means, their medians and whether the two
trees print the same hash and pivot total (exit status 1 when they do not).
Standard library and numpy only; BLAS runs on one thread, as in perfbench.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"


def capture(tree: Path, workload: str, seed: int, runs: int):
    """(module, captured inputs) of the first ``runs`` runs: one
    (generated_measurements args or None, run_estimator args) per run."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from run import make_scenario
    from hybridse.bench import montecarlo, prepare_context, run_single

    ctx = prepare_context(make_scenario(workload, seed))
    real_gen, real_est = montecarlo.generated_measurements, montecarlo.run_estimator
    inputs, gen_args = [], []

    def gen(*args):
        gen_args.append(args)
        return real_gen(*args)

    def est(*args):
        inputs.append((gen_args.pop() if gen_args else None, args))
        return real_est(*args)

    montecarlo.generated_measurements, montecarlo.run_estimator = gen, est
    try:
        for i in range(runs):
            record = run_single(ctx, i)
            if record.error:
                sys.exit(f"replay: run {i} failed: {record.error}")
    finally:
        montecarlo.generated_measurements, montecarlo.run_estimator = real_gen, real_est
    return montecarlo, inputs


def check(montecarlo, inputs) -> dict:
    """One replay with the LP solves counted: the estimates' hash, LP calls
    and pivots."""
    from hybridse.estimation import wlav
    real = wlav.lp_solve
    count = {"lp_calls": 0, "lp_pivots": 0}

    def counted(problem, basis=None):
        sol = real(problem, basis=basis)
        count["lp_calls"] += 1
        count["lp_pivots"] += sol.iterations
        return sol

    digest = hashlib.sha256()
    wlav.lp_solve = counted
    try:
        for gen, est in inputs:
            if gen is not None:
                montecarlo.generated_measurements(*gen)
            out = montecarlo.run_estimator(*est)
            for values in (out.v, out.theta):
                digest.update(repr(sorted(values.items())).encode())
            digest.update(f"{out.stop_reason} {out.iterations};".encode())
    finally:
        wlav.lp_solve = real
    return dict(count, sha256=digest.hexdigest())


def timed(montecarlo, inputs, passes: int) -> list[float]:
    """Each run's median over ``passes`` of its generation plus estimator
    call, in ms."""
    gen_fn, est_fn = montecarlo.generated_measurements, montecarlo.run_estimator
    per_run = [[] for _ in inputs]
    for _ in range(passes):
        for times, (gen, est) in zip(per_run, inputs):
            t0 = time.perf_counter()
            if gen is not None:
                gen_fn(*gen)
            est_fn(*est)
            times.append((time.perf_counter() - t0) * 1e3)
    return [statistics.median(times) for times in per_run]


def one_tree(args) -> int:
    montecarlo, inputs = capture(args.trees[0].resolve(), args.workload, args.seed, args.runs)
    result = check(montecarlo, inputs)
    ms = timed(montecarlo, inputs, args.passes)
    result.update(tree=str(args.trees[0]), workload=args.workload, seed=args.seed,
                  runs=len(inputs), passes=args.passes,
                  estimate_ms_mean=statistics.fmean(ms), estimate_ms_median=statistics.median(ms))
    print(f"{args.workload} seed {args.seed}: {len(inputs)} runs, {args.passes} passes: "
          f"estimate {result['estimate_ms_mean']:.4f} ms mean, "
          f"{result['estimate_ms_median']:.4f} ms median; {result['lp_calls']} LP calls, "
          f"{result['lp_pivots']} pivots; sha256 {result['sha256']}")
    print(json.dumps(result))
    return 0


def two_trees(args) -> int:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--runs", str(args.runs), "--passes", str(args.passes)]
    sides = {str(tree): [] for tree in args.trees}
    for r in range(args.rounds):
        for tree in (args.trees if r % 2 == 0 else args.trees[::-1]):
            proc = subprocess.run(cmd + [str(tree)], capture_output=True, text=True)
            if proc.returncode:
                sys.exit(f"replay: {tree} failed: {proc.stderr.strip()[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            sides[str(tree)].append(result)
            print(f"round {r} {tree}: {result['estimate_ms_mean']:.4f} ms mean, "
                  f"{result['lp_pivots']} pivots, sha256 {result['sha256']}", flush=True)
    summary = {}
    for tree, results in sides.items():
        means = [res["estimate_ms_mean"] for res in results]
        summary[tree] = {"estimate_ms_mean": statistics.median(means),
                         "rounds": means, "sha256": results[0]["sha256"],
                         "lp_calls": results[0]["lp_calls"],
                         "lp_pivots": results[0]["lp_pivots"]}
        print(f"{tree}: median of round means {statistics.median(means):.4f} ms")
    facts = {(s["sha256"], s["lp_calls"], s["lp_pivots"]) for s in summary.values()}
    same = len(facts) == 1
    print("same hash, LP calls and pivots" if same else "DIFFERENT hash, LP calls or pivots")
    print(json.dumps({"trees": summary, "same": same}))
    return 0 if same else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", type=Path, nargs="+", help="one or two source checkouts")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--runs", type=int, default=100)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=4)
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    return one_tree(args) if len(args.trees) == 1 else two_trees(args)


if __name__ == "__main__":
    sys.exit(main())
