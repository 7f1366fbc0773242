#!/usr/bin/env python3
"""Count the lines of Python source: all lines, as `wc -l` counts them, and
code lines.

    python tools/line_count.py              # the .py files of src/flowmem
    python tools/line_count.py PATH ...     # .py files, or directories of them

Code lines leave out blank lines, comment-only lines and docstring lines. A
line is code when a token other than a comment or a line break starts on
it, or a multi-line token (a string) spans it, and it is not part of a
module, class or function docstring. One line is printed per file, then
the total.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            code.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return source.count("\n"), len(code)


def python_files(paths) -> list[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(
                os.path.join(folder, name)
                for folder, _, names in os.walk(path)
                for name in names
                if name.endswith(".py")
            )
        else:
            files.append(path)
    return files


def main(argv: list[str]) -> int:
    paths = argv or [os.path.normpath(os.path.join(ROOT, "src", "flowmem"))]
    total_lines = total_code = 0
    print(f"{'lines':>6} {'code':>6}  file")
    for path in python_files(paths):
        with open(path, encoding="utf-8") as fh:
            lines, code = count(fh.read())
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
