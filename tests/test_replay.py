"""``tools/replay.py`` on its own checkout: two invocations on the same
workload print the same estimate hash and LP work."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _replay(*args) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "replay.py"), str(ROOT), *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_invocations_print_the_same_hash():
    first, second = (_replay("--workload", "cwls_clean", "--runs", "3", "--passes", "1")
                     for _ in range(2))
    assert first["runs"] == second["runs"] == 3
    assert len(first["sha256"]) == 64
    assert first["sha256"] == second["sha256"]
    # the centralized estimator solves no LP
    assert first["lp_calls"] == first["lp_pivots"] == 0
    assert first["estimate_ms_mean"] > 0.0
