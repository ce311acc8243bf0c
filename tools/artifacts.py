"""Byte-identity of two source trees' reproducible Monte-Carlo artifacts.

    python3 tools/artifacts.py TREE_A TREE_B [--scenarios M:C:D ...]
        [--runs N] [--seed S] [--out DIR]

Each tree runs every scenario of the matrix in one process of its own, which
imports that tree's ``src/`` and writes the scenario's artifacts with
``bench.run_montecarlo`` under DIR/a/NAME and DIR/b/NAME.  Scenario
METHOD:CASE:DAYS is case33 with the four SCADA lines of the acceptance
suite, bad-data case CASE and ``test_days`` DAYS: N runs at master seed S,
in one process (``HYBRIDSE_WORKERS`` 1) with BLAS on one thread.  Then the
tool compares each scenario's ``runs.csv``, ``aggregate.csv`` and
``trace_boundary.csv`` byte for byte, prints one line per scenario and "K of
N files identical", and exits with status 1 when a file differs or is
missing (a scenario whose runs fail writes none; its error is printed).

The default matrix is drse, drse_pseudo, dwls and cwls on bad-data cases 0-3
at ``test_days`` 5 and 60, and drse_dnn on cases 0 and 2 at ``test_days``
60, which train their injection model: 34 scenarios, 102 files, 40 runs
each at master seed 20240.  Without ``--out`` the artifacts go to a
temporary directory that is removed afterwards.  Standard library and numpy
only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ARTIFACTS = ("runs.csv", "aggregate.csv", "trace_boundary.csv")
SCADA_LINES = [[1, 2], [2, 19], [3, 23], [6, 26]]
DEFAULT_MATRIX = [f"{method}:{case}:{days}" for method, case, days in itertools.product(
    ("drse", "drse_pseudo", "dwls", "cwls"), range(4), (5, 60))] + [
    "drse_dnn:0:60", "drse_dnn:2:60"]


def run_tree(tree: Path, out: Path, scenarios: list[str], runs: int, seed: int) -> None:
    """Write each scenario's artifacts under out/NAME with ``tree``'s program."""
    sys.path.insert(0, str(tree / "src"))
    from hybridse import data
    from hybridse.bench import Scenario, run_montecarlo

    for name in scenarios:
        method, case, days = name.split(":")
        scenario = Scenario(grid=str(data.path(data.CASE33_HYBRID)), method=method, runs=runs,
                            seed=seed, base_profile=str(data.path(data.CASE33_HYBRID_LOADS)),
                            test_days=int(days), bad_data_case=int(case),
                            schedule={"scada_ac_branches": SCADA_LINES})
        try:
            run_montecarlo(scenario, out_dir=out / name)
        except RuntimeError as exc:
            print(json.dumps({"scenario": name, "error": str(exc)}), flush=True)


def compare(a: Path, b: Path, scenarios: list[str]) -> int:
    """Print one line per scenario and the total; return the number of files
    that differ or are missing."""
    same = 0
    for name in scenarios:
        differ = [f for f in ARTIFACTS
                  if not ((a / name / f).is_file() and (b / name / f).is_file()
                          and (a / name / f).read_bytes() == (b / name / f).read_bytes())]
        same += len(ARTIFACTS) - len(differ)
        print(f"{name}: " + ("identical" if not differ else "DIFFERENT " + ", ".join(differ)))
    total = len(ARTIFACTS) * len(scenarios)
    print(f"{same} of {total} files identical")
    return total - same


def two_trees(args, out: Path) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", HYBRIDSE_WORKERS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--runs", str(args.runs),
           "--seed", str(args.seed), "--scenarios", *args.scenarios, "--run-tree"]
    procs = [subprocess.Popen(cmd + [str(tree.resolve()), str(out / side)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for tree, side in zip(args.trees, "ab")]
    for tree, proc in zip(args.trees, procs):
        stdout, stderr = proc.communicate()
        if proc.returncode:
            sys.exit(f"artifacts: {tree} failed: {stderr.strip()[-500:]}")
        for line in stdout.splitlines():
            print(f"{tree}: {line}")
    return 1 if compare(out / "a", out / "b", args.scenarios) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", type=Path, nargs="*", help="two source checkouts")
    ap.add_argument("--scenarios", nargs="+", default=DEFAULT_MATRIX,
                    help="METHOD:CASE:TEST_DAYS, by default the matrix of the docstring")
    ap.add_argument("--runs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--out", type=Path, help="keep the artifacts here")
    ap.add_argument("--run-tree", nargs=2, type=Path, metavar=("TREE", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_tree:
        run_tree(*args.run_tree, args.scenarios, args.runs, args.seed)
        return 0
    if len(args.trees) != 2:
        ap.error("give two trees")
    if args.out is not None:
        return two_trees(args, args.out)
    with tempfile.TemporaryDirectory() as tmp:
        return two_trees(args, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
