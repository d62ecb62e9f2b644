"""Count the code lines and the physical lines of ``src/``, per module and in total.

    python3 tools/src_lines.py [root]

The first column counts code lines: a code line is a line that holds some
token other than a comment, so blank lines, comment lines and docstrings
(the string that opens a module, class or function body) do not count,
while every line of any other string spanning several lines does.  The
second column counts physical lines, as ``wc -l`` does.  ``root`` defaults
to the ``src/`` directory next to this script's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    text = path.read_text()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    code_total = physical_total = 0
    for path in sorted(root.rglob("*.py")):
        code, physical = code_lines(path), path.read_text().count("\n")
        code_total += code
        physical_total += physical
        print(f"{code:6d}  {physical:6d}  {path.relative_to(root)}")
    print(f"{code_total:6d}  {physical_total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
