"""Count the lines of the package's modules by kind.

    python3 tools/src_lines.py [DIR]

Prints, for each module of ``DIR`` (default: this repository's
``src/vkplate``) and in total, its lines split into code, docstring,
comment and blank.  A docstring line is any line of a module, class or
function docstring, blank ones inside it included (found by ``ast``); a
comment line holds only a comment; a blank line holds only whitespace.
Every other line is code, a line with code and a trailing comment
included.  The four columns add up to ``wc -l``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the module's, its classes' and its functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        kind = ("docstring" if number in docs else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main() -> int:
    directory = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "vkplate"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<22}" + "".join(f"{k:>10}" for k in KINDS + ("lines",)))
    for path in sorted(directory.glob("*.py")):
        counts = count(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<22}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<22}" + "".join(f"{total[k]:>10,}" for k in KINDS)
          + f"{sum(total.values()):>10,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
