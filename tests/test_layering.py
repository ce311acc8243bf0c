"""The module layering read from the source with ``ast``: ``powerflow``, on
which the power-flow audits rely, sits directly on ``grid``, and the one
row interpreter, ``CompiledRows``, lives there; the LP kernel
``estimation.lp`` stands alone, its WLAV contract stated only in its
docstring."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hybridse"


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by their names under hybridse."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                out |= {node.module} if node.module else {a.name for a in node.names}
            elif (node.module or "").startswith("hybridse"):
                out.add(node.module.removeprefix("hybridse").lstrip("."))
        elif isinstance(node, ast.Import):
            out |= {a.name.removeprefix("hybridse").lstrip(".") for a in node.names
                    if a.name.startswith("hybridse")}
    return out


def test_powerflow_imports_only_grid():
    tree = ast.parse((PACKAGE / "powerflow.py").read_text())
    assert package_imports(tree) == {"grid"}


def test_compiled_rows_defined_once_in_powerflow():
    where = [path.relative_to(PACKAGE).as_posix()
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef) and node.name == "CompiledRows"]
    assert where == ["powerflow.py"]


def test_lp_kernel_imports_no_package_module():
    tree = ast.parse((PACKAGE / "estimation" / "lp.py").read_text())
    assert package_imports(tree) == set()
