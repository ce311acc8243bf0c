"""Paired runs of perfbench on two source trees.

    python3 tools/bench_pairs.py BASE CHANGE --workload NAME [--workload NAME ...]
        --seeds 9201-9210 [--seconds 20] [--trace 0|1] [--out FILE]

BASE and CHANGE are source checkouts (for example ``git archive REV | tar -x
-C DIR``).  For every workload and seed the tool runs ``perfbench/run.py`` once
in each tree, one process at a time, the base first on even pairs and the
change first on odd ones, so a drift of the machine's speed during the session
falls on both sides alike.  It prints, per metric, each side's median and
quartiles, the median of the paired relative differences, how many pairs
the change won (by the ``better`` direction that the change tree's
BENCHMARK.json gives the metric) and a verdict (see ``verdict``), and writes
every run's result with that summary to ``--out`` as JSON.  Beside perfbench's
metrics it reports ``setup_s.raw``, the set-up's wall seconds before
perfbench's speed calibration (the median of the run's ``raw.setup_s`` in
``perfbench/out``), lower is better, without a bound and with the verdict
``info``: uncalibrated by design, it swings with the machine and only helps
place a move of ``setup_s``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench process; its final JSON line, or the error it died with."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
                "wall_s": wall}
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    out = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    if out.is_file():
        raw = json.loads(out.read_text()).get("raw", {})
        if raw.get("setup_s"):
            result["metrics"]["setup_s.raw"] = statistics.median(raw["setup_s"])
    result["checks"] = [ln for ln in lines if ln.startswith("check ")]
    result["wall_s"] = wall
    return result


def metric_specs(tree: Path) -> dict[str, dict]:
    """BENCHMARK.json's entry of each metric: its ``better`` direction and,
    for an end-to-end metric, the ``bound`` by which it may worsen; an
    ``info`` metric is reported without a verdict."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    specs["setup_s.raw"] = {"name": "setup_s.raw", "better": "lower", "info": True}
    return specs


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


MIN_PAIRS = 10     # fewer pairs support no verdict but ``unresolved``


def verdict(rows: list[tuple[float, float]], better: str, bound: float | None) -> str:
    """One metric's verdict over its (base, change) pairs, at least
    ``MIN_PAIRS`` of them.

    ``gain``: the change wins at least nine tenths of the pairs (ties count
    for neither) and its median is better than the base's by more than the
    base's quartile spread.  ``regression``: the change's median is worse
    than the base's by more than ``bound`` (relative to the base's median);
    a metric without a bound regresses by the mirror of the gain rule.
    ``unresolved``: neither, and the base's quartile spread is wider than
    the bound, unless every change run is better than every base run; for a
    metric without a bound, the medians differ by more than that spread.
    ``unchanged`` otherwise."""
    if len(rows) < MIN_PAIRS:
        return "unresolved"
    sign = -1.0 if better == "lower" else 1.0
    base, change = spread([b for b, _ in rows]), spread([c for _, c in rows])
    gap = sign * (change["median"] - base["median"])       # > 0: the change is better
    iqr = base["q3"] - base["q1"]
    wins = sum(sign * (c - b) > 0 for b, c in rows)
    losses = sum(sign * (c - b) < 0 for b, c in rows)
    if wins >= 0.9 * len(rows) and gap > iqr:
        return "gain"
    if bound is None:
        if losses >= 0.9 * len(rows) and -gap > iqr:
            return "regression"
        return "unresolved" if abs(gap) > iqr else "unchanged"
    scale = abs(base["median"])
    if -gap > bound * scale:
        return "regression"
    all_better = all(sign * (c - b) > 0 for _, c in rows for b, _ in rows)
    return "unresolved" if iqr > bound * scale and not all_better else "unchanged"


def summarize(pairs: list[dict], specs: dict[str, dict]) -> dict:
    done = [p for p in pairs if "metrics" in p["base"] and "metrics" in p["change"]]
    names = sorted({n for p in done for n in p["base"]["metrics"]})
    out = {}
    for name in names:
        rows = [(p["base"]["metrics"][name], p["change"]["metrics"][name]) for p in done
                if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        base, change = [b for b, _ in rows], [c for _, c in rows]
        rel = [(c - b) / b for b, c in rows if b]
        spec = specs.get(name, {})
        better = spec.get("better", "?")
        sign = -1.0 if better == "lower" else 1.0
        judged = "info" if spec.get("info") else verdict(rows, better, spec.get("bound"))
        out[name] = {
            "better": better,
            "bound": spec.get("bound"),
            "base": spread(base),
            "change": spread(change),
            "median_rel_diff": statistics.median(rel) if rel else float("nan"),
            "change_wins": sum(sign * (c - b) > 0 for b, c in rows),
            "pairs": len(rows),
            "verdict": judged,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 9201-9210")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    specs = metric_specs(args.change)
    report = {"base": str(args.base), "change": str(args.change), "seeds": args.seeds,
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed,
                                      args.seconds, args.trace)
                res = pair[side]
                print(f"{workload} seed {seed} {side}: "
                      + (res["error"] if "error" in res else
                         f"correct={res['correct']} failed={res['failed']} "
                         + " ".join(f"{n}={v:.4g}" for n, v in res["metrics"].items()
                                    if args.trace == 0)),
                      flush=True)
            pairs.append(pair)
        summary = summarize(pairs, specs)
        report["workloads"][workload] = {"pairs": pairs, "summary": summary}
        print(f"\n{workload}: {len(pairs)} pairs, base -> change "
              "(median [q1, q3]; median paired difference; change wins: verdict)")
        for name, s in summary.items():
            b, c = s["base"], s["change"]
            print(f"  {name}: {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] -> "
                  f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]; "
                  f"{100 * s['median_rel_diff']:+.1f}%; {s['change_wins']}/{s['pairs']}"
                  f" ({s['better']} is better): {s['verdict']}")
        if args.out:
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
