"""tools/code_lines.py, the code-line counter that ROADMAP's line counts use."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0
