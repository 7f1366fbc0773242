import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "line_count.py"

MODULE = '''\
"""Module docstring
spanning two lines."""

# a comment
import os  # a trailing comment leaves the line code


def f(a,
      b):
    """One-line docstring."""
    x = """not a docstring

    so every line of it is code"""
    return (a +

            b)


class C:
    """Class docstring."""
    y = 1
'''
# code lines: 5, 8, 9, 11, 12, 13, 14, 16, 19 and 21 of the 21
CODE_LINES = 10


def test_counts_all_lines_and_code_lines(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[1].split() == ["21", str(CODE_LINES), str(path)]
    assert out[2].split() == ["21", str(CODE_LINES), "total"]
    assert len(out) == 3
