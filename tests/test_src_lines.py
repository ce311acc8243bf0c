"""The unused-definition scan of ``tools/src_lines.py`` on a small tree and
on this one; standard library only, like the tool."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("src_lines", _ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)


def test_lists_what_neither_src_nor_perfbench_reads(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "from os import path\n"
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def traced():\n    return 2\n"
        "def orphan():\n    return used()\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 0\n"
        "    def read(self):\n        return self.n\n"
        "    def bench_only(self):\n        return 0\n")
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("from .mod import Box, orphan\n")
    (tmp_path / "perfbench" / "hooks.py").write_text(
        "TARGETS = (('hybridse.pkg.mod', 'traced'),)\n"
        "def check(box):\n    return box.bench_only()\n")
    found = [(path, qual) for path, _, qual, _ in src_lines.unused(tmp_path)]
    assert found == [("src/pkg/mod.py", "orphan"), ("src/pkg/mod.py", "Box"),
                     ("src/pkg/mod.py", "Box.read")]


def test_what_the_benchmark_calls_counts_as_used():
    # only perfbench's checks call MetricsRow.as_dict
    names = {qual for _, _, qual, _ in src_lines.unused(_ROOT)}
    assert "MetricsRow.as_dict" not in names


def test_this_tree_lists_only_the_grid_writer():
    # grid.serialize is the grid format's writer, kept beside its reader;
    # whatever only tests call lives with the tests
    assert [qual for _, _, qual, _ in src_lines.unused(_ROOT)] == ["serialize"]
