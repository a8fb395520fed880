"""The package's library surface: the names in `padicfeas.__all__` and the
README's library quick start."""

import contextlib
import io
import re
from pathlib import Path

import padicfeas

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_once():
    assert len(set(padicfeas.__all__)) == len(padicfeas.__all__)
    assert [name for name in padicfeas.__all__ if not hasattr(padicfeas, name)] == []
    assert set(padicfeas.__all__) <= set(dir(padicfeas))


def test_readme_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "PadicDecision(feasible=True, rule='cyclic-order', witness=None)"
    assert lines[1].startswith("True ")
