"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment counts as code


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring
        over two lines."""
        text = """a string that is
not a docstring"""
        return math.pi, text
'''


def test_counts_lines_outside_comments_and_docstrings():
    # import, class, def, the two lines of the string, return
    assert code_lines.code_lines(SOURCE) == 6


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["2", "a.py", "1", "b.py", "3", "total"]
