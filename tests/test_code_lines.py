"""The code-only line count of `tools/code_lines.py`: the rule that
leaves out docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function
    docstring."""
    s = """a multi-line
string that is not a docstring"""
    return (a +
            b)
'''


def test_the_rule_counts_code_lines_only():
    # import, class, x, def over two lines, s over two lines, return over two
    assert code_lines.code_lines(FIXTURE) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     2  a.py", "     9  b.py", "    11  total", ""]
