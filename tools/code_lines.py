"""Count code lines: the lines of Python source that are not blank, not
comments and not docstrings.

    python3 tools/code_lines.py src/fedpart
    python3 tools/code_lines.py src/fedpart/objectives.py tests/reference.py

Each path is a `.py` file or a directory searched recursively for them.
Prints one `<count> <file>` line per file, in sorted order, then
`<total> total (<files> files)`. A docstring is the string that opens a
module, class or function body; other strings count as code on every line
they span.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths) -> list[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, _, names in os.walk(path):
                files += [os.path.join(root, n) for n in names if n.endswith(".py")]
        else:
            files.append(path)
    return sorted(files)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    files = python_files(paths)
    total = 0
    for name in files:
        with open(name, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {name}")
    print(f"{total:6d} total ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
