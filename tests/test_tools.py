"""The maintenance scripts under tools/ run and count what they say."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("source_lines", ROOT / "tools" / "source_lines.py")
source_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(source_lines)

SOURCE = '''"""Module docstring."""

import os  # a comment


class A:
    """Class docstring
    on two lines."""

    def f(self, x):
        # a comment line
        s = """a string, not a docstring"""
        return (x +
                1)
'''


def test_counts_code_and_non_blank_lines():
    # code: import, class, def, s = ..., and both lines of the return
    assert source_lines.count(SOURCE) == (6, 10)


def test_prints_every_module_and_the_totals():
    done = subprocess.run([sys.executable, "tools/source_lines.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    header, *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert header == ["module", "code", "non-blank"]
    modules = sorted(p.stem for p in (ROOT / "src" / "acmcurves").glob("*.py"))
    assert [row[0] for row in rows] == modules
    counts = [(int(code), int(non_blank)) for _, code, non_blank in rows]
    assert all(0 < code <= non_blank for code, non_blank in counts)
    assert total == ["total", str(sum(c for c, _ in counts)), str(sum(n for _, n in counts))]
