"""tools/code_lines.py, the code-line counter that ROADMAP's line counts use."""

import importlib.util
import subprocess
import sys
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


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_help_prints_the_usage_and_missing_paths_exit_2(tmp_path):
    for flag in ("-h", "--help"):
        done = run_tool(flag)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("Count the code lines") and "Usage:" in done.stdout
    missing = tmp_path / "missing.py"
    done = run_tool(str(TOOL), str(missing))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: no such file or directory: {missing}\n"
