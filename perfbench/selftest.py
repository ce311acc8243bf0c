"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: the one without offline training) it runs
``run.py`` for one second in both modes and checks that the last line is the
result object, that it names exactly the metrics of BENCHMARK.json with their
units, and that every check of the correctness pass ran and passed.  It also
checks that ``run.py`` fails, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COMMON_CHECKS = ("no_failed_runs", "conservation", "angle_aae", "replay_identical",
                 "aae_recomputed")
WORKLOAD_CHECKS = {
    "drse_dnn_baddata": ("corrupt_dominant", "dnn_injection_accuracy", "lp_oracle"),
    "cwls_clean": ("wls_stationarity",),
}
DEFAULT_WORKLOADS = ("cwls_clean",)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_workload(spec: dict, workload: str) -> list[str]:
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, workload, trace)
        tag = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            errors.append(f"{tag}: exit code {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{tag}: result keys {sorted(result)}")
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
            errors.append(f"{tag}: correct={result['correct']} "
                          f"attempted={result['attempted']} failed={result['failed']}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                          f"missing {sorted(set(want) - set(got))}, "
                          f"extra {sorted(set(got) - set(want))}, "
                          f"units {sorted(n for n in want if n in got and got[n] != want[n])}")
        ran = {line.split(":")[0].removeprefix("check ")
               for line in proc.stdout.splitlines() if line.startswith("check ")}
        expected = set(COMMON_CHECKS + WORKLOAD_CHECKS[workload])
        if trace:
            expected.add("traced_identical")
        if ran != expected:
            errors.append(f"{tag}: checks ran {sorted(ran)}, expected {sorted(expected)}")
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark files: no program to measure."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = run(bare, "cwls_clean", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
    if proc.returncode == 0 or any(line.startswith("{") for line in last):
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    workloads = argv or list(DEFAULT_WORKLOADS)
    unknown = [w for w in workloads if w not in names]
    if unknown or names != set(WORKLOAD_CHECKS):
        print(f"selftest: unknown workloads {unknown} or BENCHMARK.json names "
              f"{sorted(names)} differ from {sorted(WORKLOAD_CHECKS)}")
        return 1
    errors = check_bare_directory()
    for workload in workloads:
        errors += check_workload(spec, workload)
    for line in errors:
        print("FAIL", line)
    print("selftest:", "FAIL" if errors else "PASS",
          f"({len(workloads)} workloads, both trace modes, bare-directory refusal)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
