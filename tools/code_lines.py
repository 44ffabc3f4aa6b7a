"""Count the code lines and the source bytes of Python modules.

    python3 tools/code_lines.py src/entireops

Prints, per module and in total, the code lines and then the source bytes.
A line counts when a token other than a comment starts or continues on it,
outside the docstrings of the module, its classes and its functions; so
blank lines, comments and docstrings are not code lines.  The bytes are the
file's size: they count every line, docstrings and comments included.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path("src/entireops")]
    files = sorted(p for root in roots for p in ([root] if root.is_file() else root.rglob("*.py")))
    total_lines = total_bytes = 0
    for path in files:
        source = path.read_bytes()
        count = code_lines(source.decode())
        total_lines += count
        total_bytes += len(source)
        print(f"{count:6d}  {len(source):7d}  {path}")
    print(f"{total_lines:6d}  {total_bytes:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
