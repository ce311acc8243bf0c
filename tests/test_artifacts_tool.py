"""``tools/artifacts.py``: a tree against itself writes byte-identical
artifacts, and the comparison reports a single flipped byte."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("artifacts", ROOT / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)

SCENARIO = "drse:0:2"


@pytest.fixture(scope="module")
def same_tree(tmp_path_factory):
    """(process, artifact directory) of the tool on this tree twice."""
    out = tmp_path_factory.mktemp("artifacts")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "artifacts.py"), str(ROOT),
                           str(ROOT), "--scenarios", SCENARIO, "--runs", "2", "--out", str(out)],
                          capture_output=True, text=True)
    return proc, out


def test_one_tree_twice_is_identical(same_tree):
    proc, out = same_tree
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [f"{SCENARIO}: identical", "3 of 3 files identical"]
    assert (out / "a" / SCENARIO / "trace_boundary.csv").stat().st_size > 0


def test_a_flipped_byte_is_reported(same_tree, tmp_path, capsys):
    _, out = same_tree
    copy = tmp_path / "copy"
    shutil.copytree(out / "a", copy)
    path = copy / SCENARIO / "runs.csv"
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 1
    path.write_bytes(bytes(raw))
    assert artifacts.compare(out / "a", copy, [SCENARIO]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{SCENARIO}: DIFFERENT runs.csv",
                                                    "2 of 3 files identical"]
