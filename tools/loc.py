"""Line counts per module of src/randcs: raw lines and code lines.

Code lines leave out blank lines, comment-only lines and the lines of
docstrings (module, class and function), found with ``tokenize`` and
``ast``.  Run from anywhere:

    python tools/loc.py [SOURCE_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "randcs"


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                          tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    source = Path(argv[0]) if argv else SOURCE
    total_raw = total_code = 0
    print(f"{'module':<16}{'raw':>6}{'code':>6}")
    for path in sorted(source.glob("*.py")):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:<16}{raw:>6}{code:>6}")
    print(f"{'total':<16}{total_raw:>6}{total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
