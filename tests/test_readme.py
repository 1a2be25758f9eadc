"""The README's Quick tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_prints_its_comments():
    source = _quick_tour()
    commented = [
        line.split("#", 1)[1].strip()
        for line in source.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert commented == ["0.0976190476190476", "Verdict.CONDITION_HOLDS"]
    assert lines[:2] == commented
    # The orbit loop prints k, pi and the bound for steps 0..16.
    assert [int(line.split()[0]) for line in lines[2:]] == list(range(17))
