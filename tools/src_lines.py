"""Line counts of a source tree's ``src/``, and its definitions that nothing
in ``src/`` uses.

    python3 tools/src_lines.py [TREE]

Prints the total line count of the ``*.py`` files under ``TREE/src`` (the
current directory without ``TREE``) and the count of lines that are not blank
after stripping and do not start with ``#``.  Docstrings count as code.

Then it lists every top-level function or class of ``src/``, and every
method of a top-level class, whose name nothing in ``src/`` reads: no name
or attribute of that spelling is loaded anywhere in ``src/`` (an import is
not a read).  The scan goes by name, so a definition that shares its name
with a used one is not listed.  Dunder methods are left out, since Python
calls them itself.  A name that ``TREE/perfbench`` reads, or names as a
trace target (a ``("hybridse.<module>", "<name>")`` pair), counts as used,
because the benchmark is a caller of the program.  What is listed runs only
from tests and tools, or not at all.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def count(src: Path) -> tuple[int, int]:
    """(total, non-blank non-comment) lines of the Python files under src."""
    total = code = 0
    for path in sorted(src.rglob("*.py")):
        for line in path.read_text().splitlines():
            total += 1
            stripped = line.strip()
            code += bool(stripped) and not stripped.startswith("#")
    return total, code


def definitions(path: Path):
    """(line, qualified name, name, line count) of each top-level function
    or class of a module and each method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, kinds):
            continue
        yield node.lineno, node.name, node.name, node.end_lineno - node.lineno + 1
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]):
                    yield (item.lineno, f"{node.name}.{item.name}", item.name,
                           item.end_lineno - item.lineno + 1)


def reads(path: Path) -> set[str]:
    """Names a module loads, as a bare name or as an attribute, and the
    names of the ``("hybridse.<module>", "<name>")`` pairs it spells."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                      for e in node.elts)
              and node.elts[0].value.startswith("hybridse.")):
            names.add(node.elts[1].value)
    return names


def unused(tree: Path) -> list[tuple[str, int, str, int]]:
    """(path, line, qualified name, line count) of every definition of
    ``tree/src`` that neither ``src/`` nor ``perfbench/`` reads."""
    files = sorted((tree / "src").rglob("*.py"))
    used = set().union(*(reads(p) for p in files),
                       *(reads(p) for p in sorted((tree / "perfbench").glob("*.py"))))
    return [(str(p.relative_to(tree)), line, qual, size)
            for p in files for line, qual, name, size in definitions(p)
            if name not in used and not (name.startswith("__") and name.endswith("__"))]


def main(argv: list[str]) -> int:
    tree = Path(argv[0] if argv else ".")
    src = tree / "src"
    if not src.is_dir():
        print(f"no src/ directory in {tree}", file=sys.stderr)
        return 1
    total, code = count(src)
    print(f"{src}: {total} lines, {code} non-blank non-comment")
    found = unused(tree)
    print(f"definitions nothing in src/ or perfbench/ reads: {len(found)}")
    for path, line, qual, size in found:
        print(f"  {path}:{line} {qual} ({size} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
