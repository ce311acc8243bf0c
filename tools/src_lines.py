"""Line counts of a source tree's ``src/``.

    python3 tools/src_lines.py [TREE]

Prints the total line count of the ``*.py`` files under ``TREE/src`` (the
current directory without ``TREE``) and the count of lines that are not blank
after stripping and do not start with ``#``.  Docstrings count as code.
Standard library only.
"""

from __future__ import annotations

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


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else ".") / "src"
    if not src.is_dir():
        print(f"no src/ directory in {src.parent}", file=sys.stderr)
        return 1
    total, code = count(src)
    print(f"{src}: {total} lines, {code} non-blank non-comment")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
